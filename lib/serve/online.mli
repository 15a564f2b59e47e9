(** Online scheduling controller (serve-side).

    One session owns a live cluster state ({!Emts_simulator.Online})
    plus a re-planning policy.  DAGs are {!submit}ted over time against
    partially executed work; {!advance} commits tasks in virtual time
    and re-plans the unstarted remainder whenever a commitment drifts
    off plan.  The controller is what the [submit]/[advance] wire verbs
    drive, but it is equally usable in-process (tests, fuzz oracle,
    bench).

    {b Determinism}: all randomness derives from the session seed via
    labelled streams ([online/<seed>/noise] for duration noise,
    [online/<seed>/replan/<k>] for the k-th effective re-plan), so the
    same seed and arrival trace produce a bit-identical commitment log
    for a given island count, whatever the number of worker domains.

    {b Commitment invariant}: once committed, a task's
    (start, finish, processors) never change; re-planning only ever
    touches unstarted tasks. *)

(** Which solver re-plans the unstarted sub-problem. *)
type replanner =
  | Baseline
      (** The fastest allotment: every task at the processor count
          that minimises its execution time, ties to the smaller count
          ({!Emts_sched.Online_list.compromise_allotment}), then
          release-aware bottom-level list scheduling
          ({!Emts_sched.List_scheduler.run}). *)
  | Emts of { mu : int; lambda : int; generations : int }
      (** EMTS ({!Emts.Algorithm.run_ctx}) over the sub-problem's
          allocation vectors, seeded with the baseline allotment, the
          surviving previous plan padded with it, and all-ones; elitism
          makes every EMTS re-plan at least as good (in planned
          makespan) as the baseline for the same state. *)

val replanner_of_string : string -> replanner option
(** ["baseline"]/["online"], or ["emts1"]/["emts5"]/["emts10"] presets. *)

val replanner_name : replanner -> string

type config = private {
  platform : Emts_platform.t;
  model : Emts_model.t;
  replanner : replanner;
  seed : int;
  domains : int;
  islands : int;
  migration_interval : int;
  migration_count : int;
  noise : Emts_simulator.Noise.t;
}

val config :
  ?replanner:replanner ->
  ?seed:int ->
  ?domains:int ->
  ?islands:int ->
  ?migration_interval:int ->
  ?migration_count:int ->
  ?noise:Emts_simulator.Noise.t ->
  platform:Emts_platform.t ->
  model:Emts_model.t ->
  unit ->
  config
(** Defaults: [Baseline] re-planner, seed [0x5EED_CA11], one domain,
    one island, migration every 5 generations moving 1, no noise.
    Raises [Invalid_argument] on non-positive knobs. *)

type t

val create : ?pool:Emts_pool.t -> config -> t
(** A fresh session: empty cluster, clock at 0.  [pool] is borrowed
    for EMTS re-planning (never shut down here); without it the EA
    spawns [config.domains] domains per re-plan. *)

type advance_report = {
  now : float;
  committed : int;  (** commitments made by this call *)
  drifts : int;  (** drifting commitments encountered (each re-planned) *)
  replans : int;  (** session-lifetime effective re-plan count *)
  makespan : float option;  (** realised makespan once complete *)
  complete : bool;
}

val submit :
  t -> graph:Emts_ptg.Graph.t -> at:float -> (int * advance_report, string) result
(** Advance the cluster to time [at], admit the DAG, re-plan the
    unstarted workload.  Returns the new DAG's index.  Errors on NaN /
    negative / past [at] and on empty graphs; the state is unchanged on
    error. *)

val advance : ?to_:float -> t -> (advance_report, string) result
(** Commit work up to [to_] (default: run the admitted workload to
    completion), re-planning after every drifting commitment.  Errors
    on NaN or backwards [to_]. *)

val replan : t -> bool
(** Force a re-planning pass.  Returns [false] — leaving the installed
    plan bitwise untouched — when nothing changed since the current
    plan was computed (no arrival, no drift): re-planning an unchanged
    state is a no-op (QCheck-tested). *)

val clairvoyant_bound : t -> float
(** Certified lower bound on the makespan of {e any} schedule of the
    admitted workload, hence on the clairvoyant offline optimum of the
    merged DAG: [max(total minimal area / procs,
    max_d (arrival_d + minimal critical path_d))].  Valid whenever
    realised durations never undercut the model ({!Emts_simulator.Noise.none},
    {!Emts_simulator.Noise.uniform_slowdown}); the online/clairvoyant
    ratio reported by bench and loadgen uses this denominator. *)

(** {2 Accessors} *)

val now : t -> float
val procs : t -> int
val task_count : t -> int
val dag_count : t -> int
val committed_count : t -> int
val complete : t -> bool
val commitments : t -> Emts_simulator.Online.committed list
val plan : t -> Emts_sched.Schedule.entry list
val replans : t -> int
val makespan : t -> float option
val state : t -> Emts_simulator.Online.t

val open_dags : t -> int
(** DAGs whose re-planning context (time tables and covering edges) the
    session still holds: those with an unstarted task.  A DAG's context
    goes when its last task commits, so a {!complete} session holds
    none; {!clairvoyant_bound} keeps its two running totals. *)

val pp_committed : Emts_simulator.Online.committed -> string
(** One stable log line: ["dag<d> t<id> <start> <finish> [p,...]"]
    with [%.9g] times and a [" drift"] suffix when realised times
    differ from plan — the golden-file and cram format. *)

(** Named sessions for the wire protocol: the server holds one registry
    and serialises concurrent requests to the same session behind a
    per-session mutex. *)
module Registry : sig
  type session = t
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 64) bounds live sessions. *)

  val count : t -> int

  val with_session :
    t -> name:string -> create:(unit -> session) -> (session -> 'a) ->
    ('a, string) result
  (** Run [f] on the named session (creating it when absent) under its
      mutex.  When the table is full, a new name evicts the least
      recently used session that is {!complete} and idle (no request
      holds it); [Error] only when no session qualifies.  An evicted
      name is forgotten: {!with_existing} answers it as unknown, and
      its next [with_session] (the [submit] verb) starts a fresh
      session. *)

  val with_existing :
    t -> name:string -> (session -> 'a) -> ('a, string) result
  (** Like {!with_session} but [Error] on an unknown name. *)
end
