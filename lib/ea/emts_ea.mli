(** Generic (μ+λ) evolution strategy (paper Sections III-C/III-D;
    Schwefel & Rudolph's "Plus-Strategy").

    The engine is agnostic to the genome type: EMTS instantiates it with
    allocation vectors, the test-suite with toy numeric genomes.
    Selection is elitist ("plus"): the best [mu] of parents ∪ offspring
    survive, so the best fitness is monotonically non-increasing across
    generations — a property the paper relies on and that the tests
    check.

    Fitness is minimised.  All randomness comes from the supplied
    {!Emts_prng.t}; offspring mutations are drawn sequentially from it
    before any evaluation, so enabling parallel evaluation cannot change
    the result. *)

(** Survivor selection.  The paper uses the elitist "Plus-Strategy"
    ((μ+λ): survivors drawn from parents ∪ offspring, so the best
    individual can never be lost — Schwefel & Rudolph); the
    "Comma-Strategy" ((μ,λ): survivors drawn from offspring only,
    requires [lambda >= mu]) is provided for the selection ablation. *)
type selection = Plus | Comma

type config = {
  mu : int;           (** parents kept per generation, [>= 1] *)
  lambda : int;       (** offspring per generation, [>= 1] *)
  generations : int;  (** evolutionary steps [U >= 0]; 0 = only rank seeds *)
  time_budget : float option;
      (** optional wall-clock cap in seconds: the run stops after the
          first generation that exceeds it (the paper's "given time
          constraint" mode) *)
  domains : int;
      (** worker domains for fitness evaluation; 1 = sequential.  The
          workers form a persistent {!Emts_pool} created once per
          {!run} (and joined on every exit path, including a raising
          fitness function), not re-spawned per generation. *)
  selection : selection;  (** default [Plus] *)
  islands : int;
      (** island-model sub-populations, [>= 1]; default 1.  With
          [islands = k > 1] the run evolves [k] independent
          populations of [mu] each, every island drawing from its own
          PRNG stream ({!Emts_prng.split} of the caller's [rng], one
          split per island before anything else), and exchanges
          migrants on a ring every [migration_interval] generations.
          [islands = 1] is {e exactly} the plain (μ+λ) strategy — the
          caller's stream is never split, so results are bit-identical
          to earlier releases.  Results for any fixed
          (seed, islands, interval, count) are deterministic and
          independent of [domains]. *)
  migration_interval : int;
      (** generations between ring exchanges, [>= 1]; default 5.
          Ignored when [islands = 1]. *)
  migration_count : int;
      (** emigrants per exchange, in [0, mu]; default 1.  Island [i]'s
          [migration_count] best replace the worst of island
          [(i + 1) mod islands]; emigrants are snapshotted before any
          replacement, so one exchange moves each individual at most
          one hop.  0 disables migration (fully isolated islands). *)
}

val config :
  ?time_budget:float -> ?domains:int -> ?selection:selection ->
  ?islands:int -> ?migration_interval:int -> ?migration_count:int ->
  mu:int -> lambda:int -> generations:int -> unit -> config
(** Validating constructor; raises [Invalid_argument] on bad sizes, on
    [Comma] with [lambda < mu], and on bad island parameters. *)

type 'g problem = {
  fitness : cutoff:float -> 'g -> float;
      (** [fitness ~cutoff g] must be exact when the fitness of [g] is at
          most [cutoff], and may otherwise return any value above
          [cutoff], so it can abandon the work as soon as it knows.
          It must be pure and thread-safe (called from worker domains).

          The cutoff is the run's {e selection bound}: the [mu]-th best
          fitness already known among the individuals [g] competes
          with — its generation's parents under [Plus], then every
          offspring of the same generation (and island) that came back
          at or below its own cutoff; under [Comma] only the latter, so
          the cutoff is [infinity] until [mu] of them are known.  A
          seed's cutoff is always [infinity]: seeds are scored exactly
          (see [seed_fitness]).  A call that returns above its cutoff
          scores strictly worse than [mu] members of its selection
          pool, so it can neither survive nor be the best ever: the
          result is the same as with an exact fitness, whatever the
          order in which pool workers finish.  Which calls return above
          their cutoff does depend on that order when [domains > 1].  The
          [ea.early_reject.hits] and [ea.early_reject.misses] counters
          count the calls that did and did not. *)
  mutate : Emts_prng.t -> generation:int -> total_generations:int -> 'g -> 'g;
      (** derive one offspring; receives the current generation [u]
          (1-based) and [U] so operators can anneal their step size *)
  recombine : (Emts_prng.t -> 'g -> 'g -> 'g) option;
      (** optional crossover.  When present, each offspring is produced
          with probability [crossover_rate] by recombining two distinct
          uniformly drawn parents and then mutating the child; otherwise
          by mutation alone (the paper's mutation-only strategy is
          [recombine = None]). *)
  crossover_rate : float;
      (** probability of applying [recombine] per offspring, in [0, 1];
          ignored when [recombine = None] or when the population holds a
          single distinct parent slot ([mu = 1]). *)
}

val mutation_only :
  fitness:('g -> float) ->
  mutate:
    (Emts_prng.t -> generation:int -> total_generations:int -> 'g -> 'g) ->
  'g problem
(** The paper's strategy: [recombine = None], with an exact [fitness]
    that ignores the cutoff. *)

type generation_stats = {
  generation : int;       (** 0 for the seed ranking *)
  best : float;
  mean : float;
  worst : float;          (** over the [mu] survivors *)
  evaluations : int;      (** cumulative fitness calls *)
  fresh_survivors : int;
      (** survivors born in this generation — the selection success
          signal used by step-size adaptation rules (Rechenberg's 1/5
          rule); equals [mu] for the seed ranking *)
}

type 'g result = {
  best : 'g;
      (** best individual EVER evaluated — for [Plus] this is also the
          best of the final population; for [Comma] the population may
          have drifted away from it *)
  best_fitness : float;
  seed_fitness : float list;  (** each seed's exact fitness, in order *)
  history : generation_stats list;  (** chronological, seeds first *)
  evaluations : int;
  elapsed : float;
      (** elapsed seconds, measured on the monotonic clock
          ({!Emts_obs.Clock}) so mid-run wall-clock adjustments cannot
          skew it *)
}

(** {1 Checkpointing}

    A checkpoint is a single checksummed JSON line written atomically
    ({!Emts_resilience.Checksummed}) after a generation completes: it
    snapshots the population (genomes, fitnesses, birth indices), the
    best individual ever seen, the cumulative evaluation and birth
    counters, the chronological history, the full 256-bit PRNG state,
    and an echo of the run configuration.  {!resume} restores all of
    it and continues the loop; because the PRNG state is captured at a
    generation boundary and the restored history is replayed through
    [on_generation], the resumed run is {e bit-identical} to the
    uninterrupted one — same [best], [best_fitness], [history] and
    [evaluations] — for any interruption point and any [domains]
    setting. *)

type 'g codec = {
  encode : 'g -> string;
      (** must produce a newline-free string; it is embedded in the
          JSON checkpoint *)
  decode : string -> ('g, string) Stdlib.result;
}
(** Genome serialisation for checkpoints.  [decode (encode g)] must
    reconstruct [g] exactly (the population is re-used for further
    evolution, so a lossy codec breaks bit-identical resumption). *)

val int_array_codec : int array codec
(** Codec for [int array] genomes (EMTS allocation vectors):
    comma-separated decimal. *)

type 'g checkpoint
(** Where and how often to snapshot. *)

val checkpoint : path:string -> every:int -> 'g codec -> 'g checkpoint
(** [checkpoint ~path ~every codec] snapshots to [path] after the seed
    ranking (generation 0), after every [every]-th generation, and when
    the loop exits for any reason (completion, time budget, [?stop]).
    Raises [Invalid_argument] if [every < 1]. *)

val run :
  ?on_generation:(generation_stats -> unit) ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?pool:Emts_pool.t ->
  ?checkpoint:'g checkpoint ->
  rng:Emts_prng.t ->
  config:config ->
  seeds:'g list ->
  'g problem ->
  'g result
(** [run ~rng ~config ~seeds problem] evaluates the non-empty seed list
    exactly, keeps the best [mu] as the initial population (padding by
    reusing the best seed when fewer than [mu] seeds are given), then
    iterates: draw [lambda] offspring by mutating uniformly chosen
    parents, evaluate, and select the best [mu] of parents ∪ offspring.
    Survivor ranking prefers, at equal fitness, the longest-lived
    individual (stable elitism).  [on_generation] observes every entry
    appended to [history].

    [stop] is polled at each generation boundary (default: never); when
    it returns [true] the run ends gracefully — a final checkpoint is
    written if one is configured, and the result covers the generations
    actually completed.  Pass {!Emts_resilience.Shutdown.requested} to
    make a standalone run respond to Ctrl-C.

    [deadline] is an {e absolute} instant on the monotonic clock
    ({!Emts_obs.Clock.now}); the loop stops gracefully after the first
    generation that ends past it, returning the best-so-far result.
    Unlike [config.time_budget] (relative to the start of [run]), an
    absolute deadline can account for time spent before the run begins
    — the serving layer sets it from the request's {e arrival} time, so
    queue wait counts against the request's latency budget.

    [pool] supplies a persistent worker pool owned by the caller: the
    run evaluates through it and does {e not} shut it down, and
    [config.domains] is ignored in favour of the pool's lane count.
    The serving layer keeps one pool per server worker across requests,
    eliminating the per-request domain-spawn cost.  The result is
    bit-identical either way (pool evaluation is outcome-preserving).

    Every island count runs the same generation loop, over
    [config.islands] populations.  Each island starts from the shared
    seed ranking (the same best-[mu] seeds) and draws its offspring
    from its own stream: [rng] itself for one island, else one split of
    it per island.  Each generation evaluates all islands' offspring as
    one batch through the pool, island [i] owning batch entries
    [i * lambda .. (i + 1) * lambda - 1] with a selection bound of
    their own; survivor selection is per island, migration runs only
    between two or more islands, and [generation_stats] cover the
    {e union} of the island populations.  Checkpointing requires
    [islands = 1] (raises [Invalid_argument] otherwise). *)

val resume :
  ?on_generation:(generation_stats -> unit) ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?pool:Emts_pool.t ->
  from:'g checkpoint ->
  config:config ->
  'g problem ->
  ('g result, string) Stdlib.result
(** [resume ~from ~config problem] restores the snapshot at [from]'s
    path and continues until [config.generations].  [config] must agree
    with the checkpointed run ([mu], [lambda], [generations],
    [selection] are validated; [domains] and [time_budget] may differ
    freely — neither affects the result).  The restored history is
    replayed through [on_generation] (chronologically, before any new
    generation runs) so callers that derive state from the stats stream
    rebuild it exactly.  Checkpointing continues with [from]'s cadence.

    [Error] with a one-line [file: reason] diagnostic on a missing or
    corrupt checkpoint, a config mismatch, or a genome that fails to
    decode; the checkpoint file is never modified on error.  [elapsed]
    counts only the resumed portion, and [seed_fitness] is empty.
    [config.islands] must be 1 ([Error] otherwise — island runs are
    not checkpointable). *)

val default_domains : unit -> int
(** Recommended worker count: [Domain.recommended_domain_count],
    capped at 8 — fitness functions in this library are memory-bound
    beyond that. *)
