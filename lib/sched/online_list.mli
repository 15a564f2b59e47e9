(** Release-aware list scheduling: the mapping step against a live
    cluster, plus the Perotin–Sun compromise allotment for online
    moldable DAGs.

    The offline {!List_scheduler} assumes an empty machine at time
    zero.  Online re-planning schedules the {e unstarted} remainder of
    the workload against committed work: each task has a release time
    (DAG arrival, or the finish of an already-committed predecessor)
    and each processor an initial availability.  The policy is
    otherwise identical — decreasing bottom level, ties smaller id,
    first-fit onto the earliest-available processors — and with
    all-zero releases and availabilities the result is bit-identical to
    {!List_scheduler.run} (property-tested).  Placing a task costs O(P),
    as in {!List_scheduler}, after one O(P log P) sort of the initial
    availabilities.  {!Evaluator.makespan} computes the same makespan
    without materialising processor sets, for the re-planning EA's
    inner loop. *)

val compromise_allotment :
  tables:float array array -> procs:int -> Allocation.t
(** [compromise_allotment ~tables ~procs] gives every task the
    processor count [p] minimising [max t(v,p) (p *. t(v,p) /. procs)]
    (ties: smaller [p]) — Perotin & Sun's balance between a task's
    execution time and its share of the total area, the allotment rule
    of their online list-scheduling baseline.  [tables.(v).(p-1)] is
    the execution time of task [v] on [p] processors; rows shorter than
    [procs] bound the candidate counts.  Raises [Invalid_argument] on
    empty rows, NaN or negative times, or [procs < 1]. *)

val run :
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  release:float array ->
  avail:float array ->
  Schedule.t
(** [run ~graph ~times ~alloc ~procs ~release ~avail] builds the full
    schedule; task [v] starts at
    [max release.(v) (max data_ready proc_avail)] and [avail.(p)] is
    processor [p]'s initial availability ([Array.length avail = procs]
    required).  Raises [Invalid_argument] on inconsistent sizes, on
    [alloc] entries outside [1, procs], or on negative/NaN times,
    releases or availabilities. *)

val makespan :
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  release:float array ->
  avail:float array ->
  float
(** Same algorithm without materialising processor sets.  Equal to
    [Schedule.makespan (run ...)] for all inputs (property-tested). *)
