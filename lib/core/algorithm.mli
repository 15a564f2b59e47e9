(** EMTS — Evolutionary Moldable Task Scheduling (paper Section III).

    EMTS is a two-step scheduler: a (μ+λ) evolution strategy searches
    the space of allocation vectors (seeded by fast heuristics), and
    every candidate is mapped with the bottom-level list scheduler whose
    makespan is the individual's fitness.  Fitness runs that scheduler's
    kernel, {!Emts_sched.Evaluator.makespan}, over the graph's
    covering edges (same makespan, fewer edges), on one preallocated
    evaluator per worker domain, so an evaluation allocates nothing in
    steady state.  Because candidates only ever consult the tabulated
    execution times, EMTS works with any execution-time model —
    monotone or not. *)

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
          ablation.  Either way fitness runs the rejection strategy
          from the paper's conclusion: an evaluation is abandoned as
          soon as the partial schedule proves the makespan exceeds the
          EA's selection bound, the [mu]-th best makespan already known
          among the individuals the offspring competes with (its
          parents under [Plus], then the offspring of its generation
          that came back first; see {!Emts_ea.problem}).  The evaluator
          also rejects on a certified critical-path bound, see
          {!Emts_sched.Evaluator.makespan}.  Pure optimisation: a
          rejected offspring is strictly worse than [mu] known
          competitors, so it could never have been selected;
          [test_emts] checks it against a run without any cutoff.
          Under [Comma] the parents do not count, so rejection begins
          once [mu] offspring of the generation are known. *)
  adaptive_sigma : bool;
      (** Rechenberg's 1/5 success rule applied to the mutation sigmas
          (the "different evolutionary methods" the paper's conclusion
          proposes comparing): after each generation, if more than 1/5
          of the survivors are freshly created the step size grows
          (x1.22), otherwise it shrinks (/1.22), clamped to
          [0.1x, 10x] of the configured sigmas.  Default [false] — the
          paper's fixed-sigma operator. *)
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
    evaluations), default mutation, default seeds, sequential, Plus
    selection. *)

val emts10 : config
(** The paper's EMTS10: a (10+100)-EA over 10 generations (1000
    offspring evaluations). *)

val emts1 : config
(** EMTS1: a tiny (2+4)-EA over 2 generations (8 offspring
    evaluations).  Not from the paper — a cheap request class for
    serving benchmarks that mix light and heavy work. *)

val preset : string -> config option
(** The preset named [emts1], [emts5] or [emts10], in any case. *)

val with_islands :
  ?migration_interval:int -> ?migration_count:int -> int -> config -> config
(** [with_islands k config] enables the island model with [k]
    sub-populations (see the [islands] field).  Raises
    [Invalid_argument] when [k < 1]. *)

val with_domains : int -> config -> config
(** Enable parallel fitness evaluation (identical results). *)

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
      uninterrupted run under any [domains] / [selection] /
      [adaptive_sigma] setting, because the restored
      generation history is replayed through the internal adaptive
      state.  A missing checkpoint file falls back to a fresh run; a
      corrupt file or config mismatch raises [Failure] with a one-line
      [file: reason] diagnostic. *)

val run_ctx :
  ?rng:Emts_prng.t ->
  ?stop:(unit -> bool) ->
  ?deadline:float ->
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
    second step shared by all compared algorithms — honouring the
    context's releases and availabilities. *)
