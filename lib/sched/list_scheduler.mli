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

    The result is deterministic.  Complexity O(E + V log V + V P), within
    the O(E + V log V + V P log P) bound cited in the paper (Section
    III-E): placing a task collects its processors in one O(P) scan and
    merge, without sorting them. *)

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
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  Schedule.t
(** Builds the full schedule.  [times.(v)] must be the execution time of
    task [v] on [alloc.(v)] processors; raises [Invalid_argument] on
    inconsistent sizes, on [alloc] entries outside [1, procs], or on
    negative/NaN times. *)

val makespan :
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  float
(** Same algorithm without materialising processor sets: the EA fitness
    fast path.  Equal to [Schedule.makespan (run ...)] for all inputs
    (property-tested). *)

val run_prioritized :
  priority:priority ->
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  Schedule.t
(** {!run} under an explicit ready-queue policy;
    [run_prioritized ~priority:Bottom_level] = [run]. *)

val makespan_prioritized :
  priority:priority ->
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  float
(** {!makespan} under an explicit ready-queue policy. *)

val makespan_bounded :
  graph:Emts_ptg.Graph.t ->
  times:float array ->
  alloc:Allocation.t ->
  procs:int ->
  cutoff:float ->
  float option
(** The rejection strategy proposed as future work in the paper's
    conclusion: abandon the construction of the schedule as soon as the
    partial makespan exceeds [cutoff] (any task finishing later than
    [cutoff] can only keep or increase the final makespan).  Returns
    [None] on rejection, [Some m] with [m = makespan ...] otherwise;
    with [cutoff = infinity] it never rejects.  Used by EMTS's
    early-rejection fitness mode to skip hopeless individuals. *)
