(** Fitness evaluation with an allocation-free hot path.

    A per-domain scratch evaluator for the EA's inner loop: it computes
    the same list-scheduled makespan as
    [List_scheduler.makespan_bounded] over
    [Allocation.times_of_tables], {b bit-identically}, but

    - tracks processor availabilities as one sorted array of values,
      not processor ids: a makespan depends only on their multiset;
    - under a finite cutoff, stops as soon as a popped task's start plus
      its bottom level certifies that the makespan exceeds the cutoff,
      not only once a task finishes past it;
    - allocates nothing in steady state: all buffers are preallocated
      and owned by the evaluator, and the loop uses no closures,
      options, tuples or intermediate arrays.

    Every call schedules the whole candidate: nothing is carried over
    from the previous genome.

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
    the makespan exceeds [cutoff] (exactly when
    [List_scheduler.makespan_bounded] returns [None]); {!last_rejected}
    distinguishes a rejection from a genuinely infinite makespan.  Pass
    [cutoff = infinity] to disable rejection.

    Rejection is decided at the earliest step that proves it: when a
    task finishes past [cutoff], or when a popped task's start plus its
    bottom level exceeds [cutoff] padded by a factor
    [1 + 4(n+2)·epsilon_float] ([n] tasks).  The critical chain below
    the task cannot finish earlier than that sum up to the rounding the
    padding covers, so which calls reject is unchanged; only the step
    at which a rejected call stops moves (DESIGN.md §14).

    [release] (per-task earliest start) and [avail0] (initial
    availability per processor) make this the allocation-free twin of
    {!Online_list.makespan} for the online re-planning EA: both arrays
    join the instance binding (compared by physical identity, like
    [tables]; they must not be mutated while bound).  Omitting them is
    the offline all-zero case.

    Input validation matches the from-scratch path: raises
    [Invalid_argument] on allocation entries outside [1..procs] or the
    task's table row, on NaN or negative execution times or releases or
    availabilities, on length mismatches, and on a NaN [cutoff]. *)

val last_rejected : t -> bool
(** Whether the most recent {!makespan} call was cut off. *)

type stats = {
  full_runs : int;  (** evaluations run (every call is a full run) *)
  incremental_runs : int;  (** always 0: nothing is reused *)
  reused_steps : int;  (** always 0: nothing is reused *)
  scheduled_steps : int;  (** scheduling steps completed *)
}
(** [incremental_runs] and [reused_steps] date from the prefix reuse
    this evaluator no longer does.  They stay, at 0, because the
    benchmark reads the record's four fields. *)

val stats : t -> stats
(** Lifetime counters ([full_runs] and [scheduled_steps] are also
    exported as [sched.delta.*] metrics, next to
    [sched.delta.cutoff_rejections]). *)
