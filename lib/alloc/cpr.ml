let name = "CPR"

let makespan_of ctx alloc =
  let times = Common.times ctx alloc in
  Emts_sched.List_scheduler.makespan ~graph:ctx.Common.graph ~times ~alloc
    ~procs:ctx.Common.procs ()

let allocate ctx =
  let n = Emts_ptg.Graph.task_count ctx.Common.graph in
  let alloc = Array.make n 1 in
  if n = 0 then alloc
  else begin
    let best = ref (makespan_of ctx alloc) in
    let improved = ref true in
    (* Each accepted step adds one processor somewhere, so the loop
       takes at most V * (P - 1) accepted steps. *)
    while !improved do
      improved := false;
      let candidates = Common.critical_path ctx alloc in
      let best_task = ref (-1) and best_m = ref !best in
      List.iter
        (fun v ->
          if alloc.(v) < ctx.Common.procs then begin
            alloc.(v) <- alloc.(v) + 1;
            let m = makespan_of ctx alloc in
            alloc.(v) <- alloc.(v) - 1;
            if m < !best_m -. 1e-12 then begin
              best_m := m;
              best_task := v
            end
          end)
        candidates;
      if !best_task >= 0 then begin
        alloc.(!best_task) <- alloc.(!best_task) + 1;
        best := !best_m;
        improved := true
      end
    done;
    alloc
  end
