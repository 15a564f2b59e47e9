(** First-fit processor selection, the step of the id-tracking list
    schedulers ({!List_scheduler.run}, {!Online_list.run}) that picks a
    task's processors.

    The state keeps every processor's availability and the processor ids
    sorted by (availability, id).  A task of width [s] takes the first
    [s] ids of that order; afterwards they share one availability, the
    task's finish.  {!claim} collects them in ascending id order by
    marking them in a byte array and scanning [0..P-1], then merges them
    back into the untouched suffix of the order, so placing a task costs
    O(P) and sorts nothing. *)

type t

val create : float array -> t
(** [create avail] takes ownership of [avail], the initial availability
    of each processor (mutated by {!claim}), and sorts the processor ids
    by (availability, id). *)

val ready_at : t -> int -> float
(** [ready_at t s] is the availability of the [s]-th earliest available
    processor: the earliest time [s] processors are free together. *)

val claim : t -> int -> float -> int array
(** [claim t s finish] gives the [s] earliest available processors to a
    task finishing at [finish] and returns their ids in ascending order,
    as a fresh array. *)
