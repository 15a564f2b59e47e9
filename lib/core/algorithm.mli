(** EMTS — Evolutionary Moldable Task Scheduling (paper Section III).

    EMTS is a two-step scheduler: a (μ+λ) evolution strategy searches
    the space of allocation vectors (seeded by fast heuristics), and
    every candidate is mapped with the bottom-level list scheduler whose
    makespan is the individual's fitness.  Because candidates only ever
    consult the tabulated execution times, EMTS works with any
    execution-time model — monotone or not. *)

type config = {
  mu : int;                        (** parents, μ *)
  lambda : int;                    (** offspring per generation, λ *)
  generations : int;               (** U *)
  mutation : Mutation.params;
  heuristics : Emts_alloc.heuristic list;  (** seed providers *)
  domains : int;                   (** fitness worker domains *)
  time_budget : float option;      (** optional wall-clock cap, seconds *)
  recombination : (Recombination.kind * float) option;
      (** optional crossover (operator, per-offspring rate); [None] is
          the paper's mutation-only strategy.  See {!Recombination}. *)
  selection : Emts_ea.selection;
      (** survivor selection; the paper's choice (and default) is the
          elitist [Plus] strategy.  [Comma] exists for the selection
          ablation and is incompatible with [early_reject] (the
          rejection proof relies on parents surviving) — {!run} raises
          [Invalid_argument] on that combination, so a [Comma] config
          must set [early_reject = false]. *)
  adaptive_sigma : bool;
      (** Rechenberg's 1/5 success rule applied to the mutation sigmas
          (the "different evolutionary methods" the paper's conclusion
          proposes comparing): after each generation, if more than 1/5
          of the survivors are freshly created the step size grows
          (x1.22), otherwise it shrinks (/1.22), clamped to
          [0.1x, 10x] of the configured sigmas.  Default [false] — the
          paper's fixed-sigma operator. *)
  early_reject : bool;
      (** the rejection strategy from the paper's conclusion: abandon a
          fitness evaluation as soon as the partial schedule proves the
          makespan exceeds the worst surviving makespan of the previous
          generation (the delta evaluator also rejects on a certified
          critical-path bound, see {!Emts_sched.Evaluator.makespan}).
          Pure optimisation — the selected survivors are provably
          unchanged (a rejected individual scores above every current
          parent and ties break toward the older individual, so it could
          never have been selected); property-tested in [test_emts].
          Default [true] in every preset; [Comma] selection needs
          [false]. *)
  fitness_cache : int option;
      (** when [Some capacity], memoize fitness evaluations by
          allocation vector in an {!Emts_pool.Cache} of at most
          [capacity] entries: duplicate genomes — frequent under (μ+λ)
          selection with seeded starts — are list-scheduled once.  Pure
          optimisation, bit-identical results (property-tested),
          including under [early_reject]: a rejected evaluation is
          cached together with its rejecting cutoff and only reused
          while the current cutoff is at or below it.  Default [None]
          (off). *)
  delta_fitness : bool;
      (** evaluate fitness through the per-worker-domain
          {!Emts_sched.Evaluator}: a list-scheduling kernel over sorted
          availability values, on preallocated scratch (zero
          steady-state allocation per evaluation).  Pure optimisation —
          the returned makespans are bit-identical to the from-scratch
          path (property-tested and fuzz-checked), composing with
          [domains], [early_reject] and [fitness_cache] unchanged.
          Default [true]; set [false] ([--no-delta-fitness] on the CLI)
          to fall back to from-scratch evaluation. *)
  islands : int;
      (** island-model sub-populations, [>= 1]; default 1 (plain
          (μ+λ), bit-identical to earlier releases).  With [k > 1] the
          EA evolves [k] independent populations of [mu] each from
          split PRNG streams and exchanges migrants on a ring — see
          {!Emts_ea.config}.  Deterministic per
          (seed, islands, interval, count), independent of [domains]. *)
  migration_interval : int;
      (** generations between ring exchanges, [>= 1]; default 5.
          Ignored when [islands = 1]. *)
  migration_count : int;
      (** emigrants per exchange, in [0, mu]; default 1.  0 isolates
          the islands completely. *)
}

val emts5 : config
(** The paper's EMTS5: a (5+25)-EA over 5 generations (125 offspring
    evaluations), default mutation, default seeds, sequential, early
    rejection on. *)

val emts10 : config
(** The paper's EMTS10: a (10+100)-EA over 10 generations (1000
    offspring evaluations). *)

val emts1 : config
(** EMTS1: a tiny (2+4)-EA over 2 generations (8 offspring
    evaluations).  Not from the paper — a cheap request class for
    serving benchmarks that mix light and heavy work. *)

val with_islands :
  ?migration_interval:int -> ?migration_count:int -> int -> config -> config
(** [with_islands k config] enables the island model with [k]
    sub-populations (see the [islands] field).  Raises
    [Invalid_argument] when [k < 1]. *)

val with_domains : int -> config -> config
(** Enable parallel fitness evaluation (identical results). *)

val with_fitness_cache : int -> config -> config
(** [with_fitness_cache capacity config] enables the fitness
    memoization cache with the given capacity; [0] disables it
    (identical results either way).  Raises [Invalid_argument] on a
    negative capacity. *)

type result = {
  alloc : Emts_sched.Allocation.t;   (** best allocation found *)
  makespan : float;                  (** its list-scheduled makespan *)
  schedule : Emts_sched.Schedule.t;  (** the realised schedule *)
  seeds : Seeding.seed list;         (** heuristic starting solutions *)
  ea : Emts_sched.Allocation.t Emts_ea.result;  (** full EA trace *)
}

val allocation_codec : Emts_sched.Allocation.t Emts_ea.codec
(** Checkpoint codec for allocation genomes (comma-separated decimal). *)

val run :
  ?rng:Emts_prng.t ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?cache:Emts_pool.Cache.t ->
  ?pool:Emts_pool.t ->
  ?checkpoint:string * int ->
  ?resume:bool ->
  config:config ->
  model:Emts_model.t ->
  platform:Emts_platform.t ->
  graph:Emts_ptg.Graph.t ->
  unit ->
  result
(** Runs EMTS.  [rng] defaults to a fresh default-seeded generator (the
    paper uses one fixed seed for all experiments).  The result's
    makespan never exceeds the best seed's makespan: seeds join the
    initial population and selection is elitist.  Raises
    [Invalid_argument] on an empty graph.

    Serving hooks (all optional):
    - [deadline] is an absolute instant on the monotonic clock
      ({!Emts_obs.Clock.now}): the EA loop stops gracefully after the
      first generation ending past it and the best-so-far allocation is
      returned.  The serving layer sets it from the request's arrival
      time, so queue wait counts against the latency budget.
    - [cache] supplies an external fitness cache shared across runs of
      the {e same} scheduling instance (graph, platform, model); it
      overrides [config.fitness_cache].  Sharing a cache between
      different instances is unsound — keys are allocation vectors.
    - [pool] evaluates fitness through a persistent caller-owned worker
      pool instead of spawning one per run (see {!Emts_ea.run});
      [config.domains] is then ignored.

    Crash safety (all optional):
    - [stop] is polled at every generation boundary; [true] ends the
      run gracefully with the generations completed so far.
    - [checkpoint:(path, every)] snapshots the EA state to [path] after
      generation 0, every [every] generations, and at loop exit (see
      {!Emts_ea.checkpoint}).
    - [resume:true] (requires [checkpoint], else [Invalid_argument])
      restores [path] and continues — bit-identical to the
      uninterrupted run under any [domains] / [fitness_cache] /
      [early_reject] / [adaptive_sigma] setting, because the restored
      generation history is replayed through the internal adaptive
      state.  A missing checkpoint file falls back to a fresh run; a
      corrupt file or config mismatch raises [Failure] with a one-line
      [file: reason] diagnostic. *)

val run_ctx :
  ?rng:Emts_prng.t ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
  ?cache:Emts_pool.Cache.t ->
  ?pool:Emts_pool.t ->
  ?checkpoint:string * int ->
  ?resume:bool ->
  ?extra_seeds:Emts_sched.Allocation.t list ->
  config:config ->
  ctx:Emts_alloc.Common.ctx ->
  unit ->
  result
(** Same, reusing an existing tabulated context (campaign fast path).

    [extra_seeds] injects additional allocation vectors into the seed
    pool ranked alongside the heuristic seeds — the serving layer
    passes migrants received from fleet peers here.  Vectors that do
    not fit the instance (wrong length, entry outside [1, procs]) are
    silently dropped: wire-borne seeds must never crash a run.  The
    result's [seeds] field still lists only the heuristic seeds. *)

val schedule_allocation :
  ctx:Emts_alloc.Common.ctx ->
  Emts_sched.Allocation.t ->
  Emts_sched.Schedule.t
(** Maps any allocation with the EMTS list scheduler — the deterministic
    second step shared by all compared algorithms. *)
