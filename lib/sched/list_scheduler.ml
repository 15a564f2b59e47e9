module Graph = Emts_ptg.Graph

type priority = Bottom_level | Top_level_first | Static of float array

(* [None] lets the kernel pop by the bottom levels it computes anyway.
   A NaN priority would break the heap's order, so a static one is
   checked; top levels of validated times have none. *)
let prio ~priority ~graph ~times =
  match priority with
  | Bottom_level -> None
  | Top_level_first ->
    (* negate: the heap favours larger values, we want small top levels *)
    Some
      (Array.map (fun t -> -.t)
         (Emts_ptg.Analysis.top_levels graph ~time:(fun v -> times.(v))))
  | Static p ->
    if Array.length p <> Graph.task_count graph then
      invalid_arg "List_scheduler: static priority length mismatch";
    if Array.exists Float.is_nan p then
      invalid_arg "List_scheduler: static priority contains NaN";
    Some p

let run ?(priority = Bottom_level) ?release ?avail ~graph ~times ~alloc ~procs
    () =
  let prio = prio ~priority ~graph ~times in
  Emts_obs.Trace.span "sched.run"
    ~args:[ ("tasks", Emts_obs.Trace.Int (Graph.task_count graph)) ]
  @@ fun () ->
  Evaluator.schedule_of_times ?release ?avail0:avail ?prio ~graph ~times
    ~alloc ~procs ()

let makespan ?(priority = Bottom_level) ?release ?avail ~graph ~times ~alloc
    ~procs () =
  Evaluator.makespan_of_times ?release ?avail0:avail
    ?prio:(prio ~priority ~graph ~times)
    ~graph ~times ~alloc ~procs ()
