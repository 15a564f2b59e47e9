(** The allotment of the online baseline re-planner, which schedules
    it with the release-aware {!List_scheduler.run}. *)

val compromise_allotment :
  tables:float array array -> procs:int -> Allocation.t
(** [compromise_allotment ~tables ~procs] gives every task the
    processor count [p] minimising [max t(v,p) (p *. t(v,p) /. procs)]
    (ties: smaller [p]).  For [p <= procs] the area term never exceeds
    [t(v,p)], so the rule is argmin_p t(v,p), ties to the smaller [p]:
    each task's fastest allotment, not a balance between its time and
    its share of the area.  The area term acts only through rounding at
    [p = procs], where [procs *. t /. procs] may come out one ulp above
    [t] and tie with a smaller count; [test_list_scheduler]'s
    "compromise allotment" case pins both.  [tables.(v).(p-1)] is
    the execution time of task [v] on [p] processors; rows shorter than
    [procs] bound the candidate counts.  Raises [Invalid_argument] on
    empty rows, NaN or negative times, or [procs < 1]. *)
