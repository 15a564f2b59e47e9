module Graph = Emts_ptg.Graph

(* Binary max-heap of (priority, id); higher bottom level first, smaller
   id on ties.  Fixed capacity = task count. *)
module Heap = struct
  type t = {
    prio : float array;
    ids : int array;
    mutable size : int;
  }

  let create capacity =
    { prio = Array.make (max 1 capacity) 0.; ids = Array.make (max 1 capacity) 0; size = 0 }

  (* [Float.compare], not [>]/[=]: the IEEE operators are both false
     when either side is NaN, so a NaN priority would make [before]
     asymmetric and silently corrupt the heap order.  [Float.compare] is
     a total order, so even a NaN that slips past validation degrades to
     a deterministic (if meaningless) rank instead of structural
     corruption.  NaN priorities are additionally rejected up front in
     [priorities]. *)
  let before h i j =
    let c = Float.compare h.prio.(i) h.prio.(j) in
    c > 0 || (c = 0 && h.ids.(i) < h.ids.(j))

  let swap h i j =
    let p = h.prio.(i) and v = h.ids.(i) in
    h.prio.(i) <- h.prio.(j);
    h.ids.(i) <- h.ids.(j);
    h.prio.(j) <- p;
    h.ids.(j) <- v

  let push h prio id =
    let i = ref h.size in
    h.prio.(!i) <- prio;
    h.ids.(!i) <- id;
    h.size <- h.size + 1;
    while !i > 0 && before h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then invalid_arg "Heap.pop: empty";
    let top = h.ids.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.prio.(0) <- h.prio.(h.size);
      h.ids.(0) <- h.ids.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let best = ref !i in
        if l < h.size && before h l !best then best := l;
        if r < h.size && before h r !best then best := r;
        if !best = !i then continue := false
        else begin
          swap h !i !best;
          i := !best
        end
      done
    end;
    top

  let is_empty h = h.size = 0
end

let check_inputs ~graph ~times ~alloc ~procs =
  let n = Graph.task_count graph in
  if Array.length times <> n then
    invalid_arg "List_scheduler: times length does not match task count";
  if Array.length alloc <> n then
    invalid_arg "List_scheduler: allocation length does not match task count";
  if procs < 1 then invalid_arg "List_scheduler: procs must be >= 1";
  for v = 0 to n - 1 do
    if alloc.(v) < 1 || alloc.(v) > procs then
      invalid_arg
        (Printf.sprintf "List_scheduler: task %d allocated %d procs (1..%d)" v
           alloc.(v) procs);
    if Float.is_nan times.(v) || times.(v) < 0. then
      invalid_arg
        (Printf.sprintf "List_scheduler: task %d has invalid time %g" v
           times.(v))
  done

exception Rejected

(* Mapping-step instruments.  The loop below counts into plain local
   ints (free) and flushes them to the shared atomics once per run, and
   only when collection is enabled — fitness evaluation calls this from
   worker domains, so per-operation atomic bumps would contend. *)
let m_runs = Emts_obs.Metrics.counter "sched.runs"
let m_tasks = Emts_obs.Metrics.counter "sched.tasks_scheduled"
let m_ready_pushes = Emts_obs.Metrics.counter "sched.ready_pushes"
let m_ready_pops = Emts_obs.Metrics.counter "sched.ready_pops"
let m_proc_limited = Emts_obs.Metrics.counter "sched.proc_limited_starts"
let m_cutoff_rejections = Emts_obs.Metrics.counter "sched.cutoff_rejections"

type priority = Bottom_level | Top_level_first | Static of float array

(* Every mode is checked for NaN, not just [Static]: computed bottom /
   top levels are NaN-free whenever the task times are (and
   [check_inputs] rejects NaN times), but a NaN that reached the heap
   would corrupt its ordering silently, so the defense is worth one
   linear scan per schedule. *)
let reject_nan ~what p =
  Array.iter
    (fun x ->
      if Float.is_nan x then
        invalid_arg (Printf.sprintf "List_scheduler: %s contains NaN" what))
    p

let priorities ~priority ~graph ~times =
  match priority with
  | Bottom_level ->
    let p =
      Emts_ptg.Analysis.bottom_levels graph ~time:(fun v -> times.(v))
    in
    reject_nan ~what:"bottom-level priority" p;
    p
  | Top_level_first ->
    (* negate: the heap favours larger values, we want small top levels *)
    let p =
      Array.map (fun t -> -.t)
        (Emts_ptg.Analysis.top_levels graph ~time:(fun v -> times.(v)))
    in
    reject_nan ~what:"top-level priority" p;
    p
  | Static p ->
    if Array.length p <> Graph.task_count graph then
      invalid_arg "List_scheduler: static priority length mismatch";
    reject_nan ~what:"static priority" p;
    p

(* Core loop, shared by [run], [makespan] and [makespan_bounded].
   [record] receives (task, start, finish, chosen-processor-ids) where
   the id array is sorted ascending; pass [None] to skip
   materialisation.  Raises [Rejected] as soon as a task finishes past
   [cutoff]. *)
let schedule_loop ?(cutoff = infinity) ?(priority = Bottom_level) ~graph
    ~times ~alloc ~procs ~record () =
  let n = Graph.task_count graph in
  let bl = priorities ~priority ~graph ~times in
  let indeg = Array.init n (fun v -> Array.length (Graph.preds graph v)) in
  let data_ready = Array.make n 0. in
  (* First-fit over the processors in (avail, id) order; placing a
     task costs O(P) and sorts nothing (see [First_fit]). *)
  let ff = First_fit.create (Array.make procs 0.) in
  let ready = Heap.create n in
  let pushes = ref 0 and pops = ref 0 and proc_limited = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      Heap.push ready bl.(v) v;
      incr pushes
    end
  done;
  let finished = ref 0 in
  let makespan = ref 0. in
  let flush ~rejected =
    if Emts_obs.Metrics.enabled () then begin
      Emts_obs.Metrics.incr m_runs;
      Emts_obs.Metrics.add m_tasks !finished;
      Emts_obs.Metrics.add m_ready_pushes !pushes;
      Emts_obs.Metrics.add m_ready_pops !pops;
      Emts_obs.Metrics.add m_proc_limited !proc_limited;
      if rejected then Emts_obs.Metrics.incr m_cutoff_rejections
    end
  in
  (try
     while not (Heap.is_empty ready) do
       let v = Heap.pop ready in
       incr pops;
       let s = alloc.(v) in
       (* First-fit: the s processors available earliest. *)
       let proc_avail = First_fit.ready_at ff s in
       if proc_avail > data_ready.(v) then incr proc_limited;
       let start = Float.max data_ready.(v) proc_avail in
       let finish = start +. times.(v) in
       if finish > cutoff then raise Rejected;
       let chosen = First_fit.claim ff s finish in
       (match record with
       | None -> ()
       | Some f -> f v start finish chosen);
       if finish > !makespan then makespan := finish;
       incr finished;
       Array.iter
         (fun w ->
           if finish > data_ready.(w) then data_ready.(w) <- finish;
           indeg.(w) <- indeg.(w) - 1;
           if indeg.(w) = 0 then begin
             Heap.push ready bl.(w) w;
             incr pushes
           end)
         (Graph.succs graph v)
     done
   with Rejected ->
     flush ~rejected:true;
     raise Rejected);
  if !finished <> n then
    (* Unreachable for a validated DAG; defensive. *)
    invalid_arg "List_scheduler: not all tasks were scheduled";
  flush ~rejected:false;
  !makespan

let run_prioritized ~priority ~graph ~times ~alloc ~procs =
  check_inputs ~graph ~times ~alloc ~procs;
  Emts_obs.Trace.span "sched.run"
    ~args:[ ("tasks", Emts_obs.Trace.Int (Graph.task_count graph)) ]
  @@ fun () ->
  let n = Graph.task_count graph in
  let entries =
    Array.init n (fun task ->
        { Schedule.task; start = 0.; finish = 0.; procs = [| 0 |] })
  in
  let record task start finish chosen =
    entries.(task) <- { Schedule.task; start; finish; procs = chosen }
  in
  ignore
    (schedule_loop ~priority ~graph ~times ~alloc ~procs
       ~record:(Some record) ());
  Schedule.make ~platform_procs:procs entries

let run ~graph ~times ~alloc ~procs =
  run_prioritized ~priority:Bottom_level ~graph ~times ~alloc ~procs

let makespan_prioritized ~priority ~graph ~times ~alloc ~procs =
  check_inputs ~graph ~times ~alloc ~procs;
  schedule_loop ~priority ~graph ~times ~alloc ~procs ~record:None ()

let makespan ~graph ~times ~alloc ~procs =
  makespan_prioritized ~priority:Bottom_level ~graph ~times ~alloc ~procs

let makespan_bounded ~graph ~times ~alloc ~procs ~cutoff =
  check_inputs ~graph ~times ~alloc ~procs;
  if Float.is_nan cutoff then
    invalid_arg "List_scheduler.makespan_bounded: cutoff is NaN";
  match schedule_loop ~cutoff ~graph ~times ~alloc ~procs ~record:None () with
  | m -> Some m
  | exception Rejected -> None
