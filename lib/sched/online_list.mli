(** The Perotin–Sun compromise allotment for online moldable DAGs.
    Their online baseline schedules these allotments with the
    release-aware {!List_scheduler.run}. *)

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
