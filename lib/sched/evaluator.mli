(** The list-scheduling kernel: the library's one loop that pops ready
    tasks by priority and places them on the earliest-available
    processors (paper Section III-A).

    It runs in two modes over the same loop:

    - the {e value mode} returns the makespan.  {!makespan} is the EA's
      fitness: a per-domain scratch evaluator bound to an instance
      ([Allocation.times_of_tables] fused in), which
      - tracks processor availabilities as runs of equal values, not
        processor ids: a makespan depends only on their multiset, and
        a claim touches a few runs instead of one value per processor;
      - under a finite cutoff, stops as soon as a popped task's start
        plus its bottom level certifies that the makespan exceeds the
        cutoff, not only once a task finishes past it;
      - allocates nothing in steady state: all buffers are
        preallocated and owned by the evaluator, and the loop uses no
        closures, options, tuples or intermediate arrays;
    - the {e record mode} ({!schedule_of_times}) materialises a
      {!Schedule.t}: the loop records its pop order, which depends on
      the priorities and the graph alone, and {!First_fit} replays it
      to choose processor ids.

    {!List_scheduler} wraps {!makespan_of_times} and
    {!schedule_of_times}, which run on scratch of their own.

    Ownership rules for {!t}: an evaluator must be confined to one
    thread at a time (store it in {!Emts_pool.Local}); it rebinds
    automatically when the (graph, tables, procs) triple changes
    physical identity, keeping grown capacities, so one evaluator per
    worker domain serves arbitrarily many runs and serving requests. *)

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
    bottom-level list-scheduled makespan of [alloc] (that of
    {!List_scheduler.makespan} over [Allocation.times_of_tables]), or
    [infinity] if the makespan exceeds [cutoff]; {!last_rejected}
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
    availability per processor) serve the online re-planning EA, as
    [?release] and [?avail] serve {!List_scheduler.makespan}: both
    arrays join the instance binding (compared by physical identity,
    like [tables]; they must not be mutated while bound).  Omitting
    them is the offline all-zero case.

    Raises [Invalid_argument] on allocation entries outside [1..procs]
    or the task's table row, on NaN or negative execution times or
    releases or availabilities, on length mismatches, and on a NaN
    [cutoff]. *)

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
    [sched.delta.cutoff_rejections] and [sched.delta.claim_runs], the
    availability runs that pops walk and claims pass or move). *)

val makespan_of_times :
  ?release:float array ->
  ?avail0:float array ->
  ?prio:float array ->
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  unit ->
  float
(** The value mode over the caller's execution times, without a
    cutoff, on fresh scratch: {!List_scheduler.makespan}.  [prio]
    replaces the bottom levels as the ready-queue priority (higher pops
    first, ties to the smaller id; it must be NaN-free).  Counts into
    [sched.*], or [sched.online.*] when [release] or [avail0] is given.
    Raises [Invalid_argument] as {!makespan} does, and on a [times]
    array of the wrong length or holding a NaN or negative time. *)

val schedule_of_times :
  ?release:float array ->
  ?avail0:float array ->
  ?prio:float array ->
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  unit ->
  Schedule.t
(** The record mode: {!List_scheduler.run}.  A task's start is
    [Float.max] of its data-ready time and the availability of its
    last processor, the [s] earliest available in (availability, id)
    order. *)
