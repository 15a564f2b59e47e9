module Graph = Emts_ptg.Graph

(* Release-aware list scheduling for the online mode.

   Identical policy to [List_scheduler] — decreasing bottom level, ties
   smaller id, first-fit onto the earliest-available processors — but
   scheduling against a cluster that is neither empty nor at time zero:
   every task [v] carries a release time (it may not start before DAG
   arrival or before its committed predecessors finish) and every
   processor starts at a given availability (committed work still
   occupies it).  With all releases and availabilities at zero the
   result is bit-identical to [List_scheduler.run] (property-tested),
   so the offline scheduler remains the special case.

   The allotment rule is Perotin & Sun's compromise allotment for
   online moldable DAGs: give each task the processor count minimising
   [max(t(v,p), p*t(v,p)/P)] — the balance point between the task's own
   execution time and its share of the total area.  Ties take the
   smaller count. *)

let m_runs = Emts_obs.Metrics.counter "sched.online.runs"
let m_tasks = Emts_obs.Metrics.counter "sched.online.tasks_scheduled"

module Heap = struct
  type t = { prio : float array; ids : int array; mutable size : int }

  let create capacity =
    {
      prio = Array.make (max 1 capacity) 0.;
      ids = Array.make (max 1 capacity) 0;
      size = 0;
    }

  (* [Float.compare], not [>]: total order even if a NaN slipped past
     validation (same reasoning as [List_scheduler.Heap]). *)
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

let check_inputs ~graph ~times ~alloc ~procs ~release ~avail =
  let n = Graph.task_count graph in
  if Array.length times <> n then
    invalid_arg "Online_list: times length does not match task count";
  if Array.length alloc <> n then
    invalid_arg "Online_list: allocation length does not match task count";
  if Array.length release <> n then
    invalid_arg "Online_list: release length does not match task count";
  if procs < 1 then invalid_arg "Online_list: procs must be >= 1";
  if Array.length avail <> procs then
    invalid_arg "Online_list: avail length does not match procs";
  for v = 0 to n - 1 do
    if alloc.(v) < 1 || alloc.(v) > procs then
      invalid_arg
        (Printf.sprintf "Online_list: task %d allocated %d procs (1..%d)" v
           alloc.(v) procs);
    if Float.is_nan times.(v) || times.(v) < 0. then
      invalid_arg
        (Printf.sprintf "Online_list: task %d has invalid time %g" v times.(v));
    if Float.is_nan release.(v) || release.(v) < 0. then
      invalid_arg
        (Printf.sprintf "Online_list: task %d has invalid release %g" v
           release.(v))
  done;
  for p = 0 to procs - 1 do
    if Float.is_nan avail.(p) || avail.(p) < 0. then
      invalid_arg
        (Printf.sprintf "Online_list: processor %d has invalid avail %g" p
           avail.(p))
  done

let compromise_allotment ~tables ~procs =
  if procs < 1 then invalid_arg "Online_list: procs must be >= 1";
  let fprocs = float_of_int procs in
  Array.mapi
    (fun v row ->
      let pmax = min procs (Array.length row) in
      if pmax < 1 then
        invalid_arg
          (Printf.sprintf "Online_list: task %d has an empty time table" v);
      let best = ref 1 and best_score = ref infinity in
      for p = 1 to pmax do
        let tv = row.(p - 1) in
        if Float.is_nan tv || tv < 0. then
          invalid_arg
            (Printf.sprintf "Online_list: task %d has invalid time %g on %d"
               v tv p);
        let score = Float.max tv (float_of_int p *. tv /. fprocs) in
        (* strict [<]: ties keep the smaller processor count *)
        if score < !best_score then begin
          best := p;
          best_score := score
        end
      done;
      !best)
    tables

(* Core loop: [List_scheduler.schedule_loop] with two generalisations —
   [data_ready] starts at the release times instead of zero, and the
   processor availabilities start at [avail] instead of all-zero.  Both
   loops place a task through [First_fit], in O(P).  [record] receives
   (task, start, finish, sorted-chosen-processor-ids). *)
let schedule_loop ~graph ~times ~alloc ~release ~avail:avail0 ~record () =
  let n = Graph.task_count graph in
  let bl = Emts_ptg.Analysis.bottom_levels graph ~time:(fun v -> times.(v)) in
  Array.iter
    (fun x ->
      if Float.is_nan x then
        invalid_arg "Online_list: bottom-level priority contains NaN")
    bl;
  let indeg = Array.init n (fun v -> Array.length (Graph.preds graph v)) in
  let data_ready = Array.copy release in
  let ff = First_fit.create (Array.copy avail0) in
  let ready = Heap.create n in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Heap.push ready bl.(v) v
  done;
  let finished = ref 0 in
  let makespan = ref 0. in
  while not (Heap.is_empty ready) do
    let v = Heap.pop ready in
    let s = alloc.(v) in
    let start = Float.max data_ready.(v) (First_fit.ready_at ff s) in
    let finish = start +. times.(v) in
    let chosen = First_fit.claim ff s finish in
    (match record with None -> () | Some f -> f v start finish chosen);
    if finish > !makespan then makespan := finish;
    incr finished;
    Array.iter
      (fun w ->
        if finish > data_ready.(w) then data_ready.(w) <- finish;
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Heap.push ready bl.(w) w)
      (Graph.succs graph v)
  done;
  if !finished <> n then
    (* Unreachable for a validated DAG; defensive. *)
    invalid_arg "Online_list: not all tasks were scheduled";
  if Emts_obs.Metrics.enabled () then begin
    Emts_obs.Metrics.incr m_runs;
    Emts_obs.Metrics.add m_tasks !finished
  end;
  !makespan

let run ~graph ~times ~alloc ~procs ~release ~avail =
  check_inputs ~graph ~times ~alloc ~procs ~release ~avail;
  let n = Graph.task_count graph in
  let entries =
    Array.init n (fun task ->
        { Schedule.task; start = 0.; finish = 0.; procs = [| 0 |] })
  in
  let record task start finish chosen =
    entries.(task) <- { Schedule.task; start; finish; procs = chosen }
  in
  ignore
    (schedule_loop ~graph ~times ~alloc ~release ~avail ~record:(Some record)
       ());
  Schedule.make ~platform_procs:procs entries

let makespan ~graph ~times ~alloc ~procs ~release ~avail =
  check_inputs ~graph ~times ~alloc ~procs ~release ~avail;
  schedule_loop ~graph ~times ~alloc ~release ~avail ~record:None ()
