(** Reference runs: EMTS without the optimisations that must not change
    its answer, for the determinism oracle and the property tests to
    compare against. *)

val emts :
  rng:Emts_prng.t ->
  config:Emts.Algorithm.config ->
  ctx:Emts_alloc.Common.ctx ->
  Emts_sched.Allocation.t Emts_ea.result
(** [emts ~rng ~config ~ctx] runs {!Emts_ea.run} on one domain over
    [config]'s heuristic seeds, with {!Emts_sched.Evaluator.makespan}
    over the full graph at [cutoff = infinity] as the fitness: the
    paper's EMTS without early rejection.  {!Emts.Algorithm.run_ctx}
    from the same [rng] state, which cuts fitness off at the EA's
    selection bound and runs it over the covering edges, must return
    the same best allocation and fitness, history and evaluation
    count, bit for bit.  [config.time_budget] and
    [config.domains] are ignored.  Raises [Invalid_argument] when
    [config] sets [recombination] or [adaptive_sigma]. *)
