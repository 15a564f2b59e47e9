(** Incremental (delta) fitness evaluation with an allocation-free hot
    path.

    A per-domain scratch evaluator for the EA's inner loop: it computes
    the same list-scheduled makespan as
    [List_scheduler.makespan_bounded] over
    [Allocation.times_of_tables], {b bit-identically}, but

    - tracks processor availabilities as one sorted array of values,
      not processor ids: a makespan depends only on their multiset;
    - reuses the schedule prefix shared with the last successfully
      evaluated genome (the list scheduler's pop order diverges only
      from the earliest step a changed task can reach the ready heap).
      That pays on single-allele mutation chains; an EA batch, whose
      offspring each mutate about a third of the alleles, reuses
      almost nothing;
    - allocates nothing in steady state: all buffers are preallocated
      and owned by the evaluator, and the loop uses no closures,
      options, tuples or intermediate arrays.

    Ownership rules: an evaluator must be confined to one domain at a
    time (store it in {!Emts_pool.Local}); it rebinds automatically
    when the (graph, tables, procs) triple changes physical identity,
    keeping grown capacities, so one evaluator per worker domain serves
    arbitrarily many runs and serving requests. *)

type t

val create : unit -> t
(** A fresh evaluator with empty capacities; the first {!makespan} call
    binds it to an instance. *)

val makespan :
  t ->
  ?release:float array ->
  ?avail0:float array ->
  graph:Emts_ptg.Graph.t ->
  tables:float array array ->
  procs:int ->
  alloc:Allocation.t ->
  cutoff:float ->
  unit ->
  float
(** [makespan t ~graph ~tables ~procs ~alloc ~cutoff ()] is the
    bottom-level list-scheduled makespan of [alloc], or [infinity] if
    some task would finish past [cutoff] (exactly when
    [List_scheduler.makespan_bounded] returns [None]); {!last_rejected}
    distinguishes a rejection from a genuinely infinite makespan.  Pass
    [cutoff = infinity] to disable rejection.

    [release] (per-task earliest start) and [avail0] (initial
    availability per processor) make this the incremental twin of
    {!Online_list.makespan} for the online re-planning EA: both arrays
    join the instance binding (compared by physical identity, like
    [tables]; they must not be mutated while bound), so prefix reuse
    works across the candidates of one re-planning run exactly as in
    the offline case.  Omitting them is the offline all-zero case.

    Input validation matches the from-scratch path: raises
    [Invalid_argument] on allocation entries outside [1..procs] or the
    task's table row, on NaN or negative execution times or releases or
    availabilities, on length mismatches, and on a NaN [cutoff]. *)

val last_rejected : t -> bool
(** Whether the most recent {!makespan} call was cut off. *)

type stats = {
  full_runs : int;  (** evaluations computed from scratch *)
  incremental_runs : int;  (** evaluations that reused a prefix *)
  reused_steps : int;  (** scheduling steps skipped via reuse *)
  scheduled_steps : int;  (** scheduling steps actually executed *)
}

val stats : t -> stats
(** Lifetime counters (also exported as [sched.delta.*] metrics). *)
