(** The mapping step of EMTS and of the CPA heuristic family (paper
    Section III-A).

    Given a PTG, per-task execution times (already reflecting each
    task's allocation) and the allocation vector, the list scheduler:

    + sorts ready nodes by decreasing bottom level (ties: smaller id),
    + maps each ready node [v] to the first processor set containing
      [s(v)] available processors — concretely the [s(v)] processors
      with the earliest availability (ties: smaller id), starting at the
      maximum of the data-ready time of [v] and the availability of the
      last processor chosen.

    Both calls run {!Evaluator}'s kernel, the library's one
    list-scheduling loop, on scratch of their own, so they are safe from
    any thread.  The result is deterministic.  Complexity
    O(E + V log V + V P), within the O(E + V log V + V P log P) bound
    cited in the paper (Section III-E).

    Online re-planning schedules against a live cluster: [release.(v)]
    is task [v]'s earliest start (DAG arrival, or the finish of a
    committed predecessor) and [avail.(p)] processor [p]'s initial
    availability.  Omitted, both are zero, the offline case; all-zero
    arrays give the same schedule bit for bit. *)

(** Ready-queue ordering.  The paper (and default) is [Bottom_level];
    the alternatives exist for the mapping-step ablation: how much of
    the schedule quality comes from the priority heuristic itself? *)
type priority =
  | Bottom_level  (** decreasing bottom level — the paper's rule *)
  | Top_level_first
      (** increasing top level: earliest-possible-start first *)
  | Static of float array
      (** explicit priorities (higher runs first), e.g. random orders
          for the ablation; length must equal the task count *)

val run :
  ?priority:priority ->
  ?release:float array ->
  ?avail:float array ->
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  unit ->
  Schedule.t
(** Builds the full schedule; task [v] starts at the maximum of
    [release.(v)], its predecessors' finishes and the availability of
    its last processor.  [times.(v)] must be the execution time of task
    [v] on [alloc.(v)] processors.  Raises [Invalid_argument] on
    inconsistent sizes ([release] of the task count, [avail] of
    [procs]), on [alloc] entries outside [1, procs], on negative or NaN
    times, releases or availabilities, and on a NaN static priority. *)

val makespan :
  ?priority:priority ->
  ?release:float array ->
  ?avail:float array ->
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  unit ->
  float
(** Same algorithm without materialising processor sets.  Equal to
    [Schedule.makespan (run ...)] for all inputs (property-tested). *)
