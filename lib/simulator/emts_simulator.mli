(** Discrete-event execution of static schedules (paper Section IV).

    The paper's evaluation runs inside a simulator that executes the
    scheduled PTG on the platform model.  This module is that simulator,
    extended with *duration noise*: the actual execution time of a task
    may deviate from the model's prediction, which lets us measure how
    robust a schedule is to model error — the imprecision of
    execution-time models is the paper's core motivation.

    Execution semantics (static schedule execution with reservations):
    the processor assignment and the per-processor task order of the
    input schedule are kept; a task starts as soon as (a) its planned
    start time is reached, (b) all its predecessors have finished and
    (c) all its assigned processors are free.  The planned start acts
    as a release time — a runtime executing a static plan does not
    launch tasks ahead of schedule, but late predecessors push work
    back.  With exact durations this reproduces the input schedule
    exactly, for every valid schedule (property- and fuzz-tested); with
    noisy durations it yields the realised schedule and makespan. *)

(** Duration perturbation models.  All draws flow through the supplied
    {!Emts_prng.t}, so simulations are reproducible. *)
module Noise : sig
  type t

  val none : t
  (** Actual duration = planned duration. *)

  val multiplicative_lognormal : sigma:float -> t
  (** Duration scaled by [exp (N(0, sigma))]: symmetric-in-log error,
      the customary model-error distribution.  [sigma >= 0]. *)

  val uniform_slowdown : max_factor:float -> t
  (** Duration scaled by [U(1, max_factor)]: tasks only ever run slower
      than predicted (interference, cache pollution).
      [max_factor >= 1]. *)

  val apply : t -> Emts_prng.t -> planned:float -> float
  (** Draw one actual duration ([>= 0]; planned must be [>= 0]). *)

  val name : t -> string
end

(** Chronological execution trace. *)
type event =
  | Start of { task : int; time : float; procs : int array }
  | Finish of { task : int; time : float }

val event_time : event -> float
val pp_event : Format.formatter -> event -> unit

type result = {
  realized : Emts_sched.Schedule.t;  (** as executed *)
  makespan : float;
  planned_makespan : float;
  trace : event list;                (** chronological; starts before
                                         finishes at equal times *)
}

val execute :
  ?noise:Noise.t ->
  ?rng:Emts_prng.t ->
  graph:Emts_ptg.Graph.t ->
  schedule:Emts_sched.Schedule.t ->
  unit ->
  result
(** Executes [schedule] for [graph].  [noise] defaults to {!Noise.none},
    [rng] to a fresh default-seeded generator.  The realised schedule is
    re-validated against the graph before returning; a violation (a bug,
    not an input error) raises [Failure]. *)

val slowdown : result -> float
(** [makespan /. planned_makespan]. *)

val trace_to_csv : result -> string
(** [event,task,time,procs] rows. *)

(** Live cluster state for online scheduling: DAGs arrive over time
    against partially executed work, virtual time advances, and tasks
    move from {e unstarted} to {e committed} exactly once.

    The state machine: {!admit} merges an arriving DAG into a dense
    global task-id space (ids of earlier DAGs never change);
    {!set_plan} installs a schedule for every unstarted task (the
    controller re-plans on arrival or drift); {!advance} commits
    unstarted tasks in deterministic order — a task whose predecessors
    are all committed launches at the latest of its planned start, its
    predecessors' realised finishes and its processors draining
    (exactly {!execute}'s reservation semantics, one task at a time) —
    drawing its realised duration through the owned noise model.

    Invariants the [online] fuzz oracle leans on:
    - {b commitment}: a committed task's (start, finish, processors)
      never changes, and the commitment log only ever grows;
    - {b exact replay}: with {!Noise.none} a plan built by the
      release-aware {!Emts_sched.List_scheduler.run} commits
      bit-identically to its planned times;
    - {b drift stops the clock}: the first commit whose realised times
      differ bitwise from the plan ends the {!advance} call, so the
      controller can re-plan before anything else commits.

    The state is kept in columns: four ints per task, and per
    commitment its task id, four unboxed times and its processor set
    as runs of consecutive ids.  Adjacency is read from each admitted
    DAG's graph, a commit drops the task's plan entry, and
    {!commitments} and {!realized_schedule} build their records on
    demand. *)
module Online : sig
  type t

  (** One commitment-log record, in commit order. *)
  type committed = {
    task : int;  (** global task id *)
    dag : int;
    start : float;
    finish : float;  (** realised (post-noise) *)
    procs : int array;
    planned_start : float;
    planned_finish : float;
  }

  type report = {
    committed : int;  (** commitments made by this {!advance} call *)
    drifted : bool;  (** true when the last commitment drifted *)
  }

  val create : procs:int -> ?noise:Noise.t -> ?rng:Emts_prng.t -> unit -> t
  (** A cluster of [procs] processors, idle at time 0.  [noise]
      defaults to {!Noise.none}, [rng] to a fresh default-seeded
      generator; all realised durations flow through them, so a state
      driven by the same arrival trace and seed commits
      bit-identically. *)

  val admit : t -> Emts_ptg.Graph.t -> int
  (** Admit an arriving DAG at the current time; returns its index.
      Its tasks occupy global ids [offset .. offset + n - 1] (see
      {!dag_offset}) and may not start before the current time.
      Raises [Invalid_argument] on an empty graph. *)

  val set_plan : t -> Emts_sched.Schedule.entry list -> unit
  (** Install the plan: exactly one entry per unstarted task (global
      ids), none for committed ones.  Entries must carry valid sorted
      processor sets and start at or after both the clock and their
      DAG's arrival.  Raises [Invalid_argument] otherwise. *)

  val advance : ?to_:float -> t -> report
  (** Commit every task whose effective start is [<= to_] (default:
      run to completion), stopping early after the first drifting
      commitment.  Commitments go one at a time, each to the ready task
      (unstarted, every predecessor committed, with a plan entry) of
      smallest effective start — the latest of its planned start, its
      predecessors' realised finishes and its processors' free times;
      at equal effective starts a zero-duration task before a
      positive-duration one, then the smaller global id.  Moves the
      clock to [to_] (or to the makespan when complete) unless drift
      stopped the pass — then the clock rests at the drifted start so
      re-planning cannot schedule into the past.  Raises
      [Invalid_argument] on a NaN or backwards [to_]. *)

  val procs : t -> int
  val now : t -> float
  val task_count : t -> int
  val dag_count : t -> int
  val dag_graph : t -> int -> Emts_ptg.Graph.t
  val dag_offset : t -> int -> int
  val dag_arrival : t -> int -> float

  val dag_unstarted : t -> int -> int
  (** Tasks of DAG [d] not yet committed: its task count at admission,
      one less at each of its commitments. *)

  val task_dag : t -> int -> int
  (** The DAG that global task [v] belongs to. *)

  val committed_count : t -> int
  val complete : t -> bool

  val commitments : t -> committed list
  (** The full log, in commit order, built afresh at each call: O(log
      length + processors committed). *)

  val unstarted : t -> int list
  (** Global ids not yet committed, ascending. *)

  val release_of : t -> int -> float
  (** Earliest legal start of an unstarted task: the latest of its
      DAG's arrival, the clock and its committed predecessors' realised
      finishes (unstarted predecessors are edges of the re-planning
      sub-problem instead).  Raises [Invalid_argument] on a committed
      task. *)

  val avail : t -> float array
  (** Fresh per-processor availability, clamped to the clock: what the
      re-planner must treat as each processor's earliest free time. *)

  val plan : t -> Emts_sched.Schedule.entry list
  (** The currently installed entries for unstarted tasks, ascending
      task id. *)

  val makespan : t -> float
  (** Latest realised finish among commitments (0 when none). *)

  val merged_graph : t -> Emts_ptg.Graph.t
  (** All admitted DAGs as one graph over the global id space (no
      cross-DAG edges). *)

  val realized_schedule : t -> Emts_sched.Schedule.t
  (** The committed schedule once {!complete}, built afresh at each
      call; raises [Invalid_argument] while work remains. *)
end
