(** Shared machinery of the two-step allocation heuristics.

    All allocators work on a {!ctx}: the PTG plus the tabulated
    execution time of every task for every feasible processor count.
    Tabulating once up front keeps each heuristic a pure array
    computation and lets EMTS reuse the same tables for its fitness
    loop. *)

type ctx = {
  graph : Emts_ptg.Graph.t;
  cover : Emts_ptg.Graph.t;
      (** [Graph.transitive_reduction graph]: the covering edges, over
          which {!growth_loop} keeps its bottom levels and EMTS
          evaluates fitness *)
  procs : int;                  (** processors of the target cluster *)
  tables : float array array;   (** [tables.(v).(p-1)] = time of task [v] on [p] procs *)
  release : float array option;  (** per-task earliest start; [None] offline *)
  avail : float array option;  (** per-processor free time; [None] offline *)
}
(** Build a [ctx] with {!make_ctx} or {!sub_ctx} only (or update its
    [tables] from one), so that [cover] always reduces [graph].
    Heuristics ignore [release] and [avail]; EMTS honours them. *)

val make_ctx :
  model:Emts_model.t ->
  platform:Emts_platform.t ->
  graph:Emts_ptg.Graph.t ->
  ctx
(** Tabulates the model over the platform's processor range and reduces
    the graph to its covering edges. *)

val sub_ctx :
  cover:Emts_ptg.Graph.t -> tables:float array array -> procs:int ->
  release:float array -> avail:float array -> ctx
(** An online re-planning sub-problem over [cover], a graph that is
    already its own transitive reduction (no reduction runs).  The
    arrays are shared and must not be mutated while in use. *)

val time_of : ctx -> Emts_sched.Allocation.t -> int -> float
(** [time_of ctx alloc v] is the execution time of [v] under its
    current allocation. *)

val times : ctx -> Emts_sched.Allocation.t -> float array

val critical_path_length : ctx -> Emts_sched.Allocation.t -> float
(** [T_CP]: the longest path under the current allocation. *)

val average_area : ctx -> Emts_sched.Allocation.t -> float
(** [T_A = (1/P) sum_v T(v, s(v)) * s(v)]. *)

val critical_path : ctx -> Emts_sched.Allocation.t -> int list
(** One critical path under the current allocation (deterministic). *)

(** How CPA-family heuristics score giving one more processor to a
    critical task (see DESIGN.md on the under-specification in the
    original papers). *)
type gain =
  | Efficiency
      (** [T(v,s)/s - T(v,s+1)/(s+1)]: work-efficiency improvement —
          the published CPA criterion. *)
  | Absolute
      (** [T(v,s) - T(v,s+1)]: raw critical-path reduction — more
          aggressive growth; used for our HCPA instantiation. *)

val gain_value : ctx -> Emts_sched.Allocation.t -> gain -> int -> float
(** Score of adding one processor to task [v]; [neg_infinity] when the
    task is already at the cluster size. *)

(** CPA-style growth loop shared by CPA, HCPA and MCPA: start from the
    all-ones allocation and, while [T_CP > T_A], add one processor to
    the admissible task of {!critical_path} with the best positive
    gain; stop when no admissible task improves.  Ties in gain go to
    the first such task met walking the path from its source.  A task
    is admissible below [P] processors and, given [level_budget], while
    the total allocation of its precedence level is below the budget
    (MCPA's rule with budget [P]; default unbounded).  Each step
    updates only the bottom levels a grow can move and keeps [T_A] as
    a running sum, folded in task order only when the sum's error bound
    cannot decide [T_CP > T_A]; yet every [T_CP], stop decision, path
    and tie-break is the one a from-scratch recomputation gives.  At
    most [V * (P - 1)] grows.  Counts its grows in the metric
    [alloc.growth.steps] and its folds in [alloc.growth.exact_folds].
    Raises [Invalid_argument] on a NaN or negative time it reads. *)
val growth_loop :
  ?level_budget:int -> gain:gain -> ctx -> Emts_sched.Allocation.t
