(** Mixed-parallel schedules: when and where each task runs.

    A schedule fixes, for every task, a start time, a finish time and
    the concrete set of processors executing it.  Schedules are produced
    by {!List_scheduler} and consumed for fitness evaluation, validation
    and rendering (Figure 6). *)

type entry = {
  task : int;
  start : float;
  finish : float;
  procs : int array;  (** sorted, distinct processor ids *)
}

type t

val make : platform_procs:int -> entry array -> t
(** [make ~platform_procs entries] packages per-task entries
    ([entries.(v).task = v] required).  Raises [Invalid_argument] on
    inconsistent entries (wrong task field, NaN times, finish < start,
    empty, unsorted, repeating or out-of-range processor sets).  Checks
    each processor set in place, in time linear in its size. *)

val entry : t -> int -> entry
val entries : t -> entry array
(** Fresh copy, indexed by task id. *)

val task_count : t -> int
val platform_procs : t -> int
val makespan : t -> float
(** Latest finish time (0 for empty schedules). *)

val total_busy_time : t -> float
(** Sum over tasks of [duration * procs-used]: processor-seconds. *)

val utilization : t -> float
(** [total_busy_time / (makespan * platform procs)]; 0 for an empty
    schedule. *)

val allocation : t -> Allocation.t
(** The allocation vector this schedule realises. *)

(** {1 Validation}

    An invalid schedule anywhere in the pipeline is a bug; the checks
    below are exercised heavily by the property-based test suite. *)

type violation =
  | Precedence of { src : int; dst : int }
      (** [dst] starts before [src] finishes *)
  | Overlap of { proc : int; first : int; second : int }
      (** two tasks share processor [proc] at the same time *)
  | Allocation_mismatch of { task : int; expected : int; actual : int }
      (** processor-set size differs from the allocation vector *)
  | Invalid_time of { task : int }
      (** NaN start or finish time; the precedence and overlap sweeps
          are meaningless for such a task, so it is reported on its
          own.  Unreachable for schedules built by {!make} (which
          rejects NaN), kept as defense in depth for {!validate}
          itself. *)

val pp_violation : Format.formatter -> violation -> unit

val validate :
  ?alloc:Allocation.t ->
  t ->
  graph:Emts_ptg.Graph.t ->
  (unit, violation list) result
(** [validate s ~graph] checks precedence feasibility against the graph
    edges and absence of processor double-booking; when [alloc] is
    given, also that each task uses exactly its allocated count.
    Comparisons use a small epsilon so adjacent tasks may share an
    instant. *)

val to_csv : t -> string
(** [task,start,finish,procs] rows, header included; processor sets are
    ['|']-separated. *)
