module Schedule = Emts_sched.Schedule

module Noise = struct
  type t = { name : string; draw : Emts_prng.t -> float -> float }

  let none = { name = "none"; draw = (fun _ planned -> planned) }

  let multiplicative_lognormal ~sigma =
    if not (sigma >= 0.) then
      invalid_arg "Noise.multiplicative_lognormal: sigma must be >= 0";
    {
      name = Printf.sprintf "lognormal(sigma=%g)" sigma;
      draw =
        (fun rng planned ->
          planned *. exp (Emts_prng.normal rng ~mu:0. ~sigma));
    }

  let uniform_slowdown ~max_factor =
    if not (max_factor >= 1.) then
      invalid_arg "Noise.uniform_slowdown: max_factor must be >= 1";
    {
      name = Printf.sprintf "slowdown(max=%g)" max_factor;
      draw =
        (fun rng planned ->
          if max_factor = 1. then planned
          else planned *. Emts_prng.float_in rng 1. max_factor);
    }

  let apply t rng ~planned =
    if Float.is_nan planned || planned < 0. then
      invalid_arg "Noise.apply: planned duration must be >= 0";
    let actual = t.draw rng planned in
    Float.max 0. actual

  let name t = t.name
end

type event =
  | Start of { task : int; time : float; procs : int array }
  | Finish of { task : int; time : float }

let event_time = function Start { time; _ } | Finish { time; _ } -> time

let pp_event ppf = function
  | Start { task; time; procs } ->
    Format.fprintf ppf "%.6g start  t%d on [%s]" time task
      (String.concat "," (Array.to_list (Array.map string_of_int procs)))
  | Finish { task; time } -> Format.fprintf ppf "%.6g finish t%d" time task

type result = {
  realized : Schedule.t;
  makespan : float;
  planned_makespan : float;
  trace : event list;
}

let slowdown r =
  if r.planned_makespan <= 0. then 1. else r.makespan /. r.planned_makespan

(* Dispatch order: planned start time, zero-duration tasks first among
   ties, topological position last.  The middle component matters: a
   processor's timeline can hold several tasks at one instant — any
   number of zero-duration tasks plus at most one task that advances
   the clock, and the list scheduler necessarily placed the
   zero-duration ones first (a positive-duration task bumps the
   availability past the instant, so nothing else can tie with it from
   behind).  Dispatching the clock-advancing task before its
   zero-duration peers would let it start too early and shift the rest
   of the timeline.  The topological tie-break keeps chained
   zero-duration tasks in precedence order. *)
let dispatch_order graph schedule =
  let n = Schedule.task_count schedule in
  let topo_pos = Array.make n 0 in
  Array.iteri
    (fun k v -> topo_pos.(v) <- k)
    (Emts_ptg.Graph.topological_order graph);
  let order = Array.init n Fun.id in
  let key v =
    let e = Schedule.entry schedule v in
    (e.Schedule.start, e.Schedule.finish > e.Schedule.start, topo_pos.(v))
  in
  Array.sort (fun a b -> compare (key a) (key b)) order;
  order

let execute ?(noise = Noise.none) ?rng ~graph ~schedule () =
  let n = Schedule.task_count schedule in
  if Emts_ptg.Graph.task_count graph <> n then
    invalid_arg "Emts_simulator.execute: graph does not match schedule";
  let rng = match rng with Some r -> r | None -> Emts_prng.create () in
  let procs = Schedule.platform_procs schedule in
  let free = Array.make procs 0. in
  let finish = Array.make n 0. in
  let entries = Array.make n None in
  let rev_events = ref [] in
  Array.iter
    (fun v ->
      let planned = Schedule.entry schedule v in
      let duration =
        Noise.apply noise rng
          ~planned:(planned.Schedule.finish -. planned.Schedule.start)
      in
      let data_ready =
        Array.fold_left
          (fun acc p -> Float.max acc finish.(p))
          0.
          (Emts_ptg.Graph.preds graph v)
      in
      let procs_free =
        Array.fold_left
          (fun acc p -> Float.max acc free.(p))
          0. planned.Schedule.procs
      in
      (* Reservation semantics: the plan's start time is a release
         time, so a task launches at the latest of its reservation, its
         data being ready and its processors draining.  Without the
         reservation bound, zero-noise execution could legally start a
         task *earlier* than planned (the list scheduler delays
         low-priority tasks to processor-availability instants that
         pure (data_ready, procs_free) recomputation does not
         reproduce), and exact replay would not hold. *)
      let start =
        Float.max planned.Schedule.start (Float.max data_ready procs_free)
      in
      let stop = start +. duration in
      finish.(v) <- stop;
      Array.iter (fun p -> free.(p) <- stop) planned.Schedule.procs;
      entries.(v) <-
        Some
          {
            Schedule.task = v;
            start;
            finish = stop;
            procs = planned.Schedule.procs;
          };
      rev_events :=
        Finish { task = v; time = stop }
        :: Start { task = v; time = start; procs = planned.Schedule.procs }
        :: !rev_events)
    (dispatch_order graph schedule);
  let entries =
    Array.map
      (function
        | Some e -> e
        | None -> failwith "Emts_simulator.execute: task never dispatched")
      entries
  in
  let realized = Schedule.make ~platform_procs:procs entries in
  (match Schedule.validate realized ~graph with
  | Ok () -> ()
  | Error violations ->
    failwith
      (Format.asprintf
         "Emts_simulator.execute: realised schedule invalid: %a"
         (Format.pp_print_list Schedule.pp_violation)
         violations));
  let trace =
    List.stable_sort
      (fun a b ->
        let c = Float.compare (event_time a) (event_time b) in
        if c <> 0 then c
        else
          (* for back-to-back tasks at the same instant, read the
             finishing task first, then the starting one *)
          match (a, b) with
          | Finish _, Start _ -> -1
          | Start _, Finish _ -> 1
          | Start _, Start _ | Finish _, Finish _ -> 0)
      (List.rev !rev_events)
  in
  {
    realized;
    makespan = Schedule.makespan realized;
    planned_makespan = Schedule.makespan schedule;
    trace;
  }

(* Live cluster state for the online scheduling mode: virtual time
   advances, tasks move from unstarted to committed exactly once, and a
   committed task never changes again (the commitment invariant the
   [online] fuzz oracle checks).  The commit rule is [execute]'s
   reservation semantics applied one task at a time — a task launches
   at the latest of its planned start, its predecessors' realised
   finishes and its processors draining — so with [Noise.none] a plan
   replays exactly, and under noise the first drifting commit stops the
   clock for the controller to re-plan. *)
module Online = struct
  (* Columns rather than a record per task, so a completed session keeps
     a few words per task: no boxed floats, no adjacency of its own (a
     task's predecessors and successors are its DAG graph's, shifted by
     the DAG's offset), and each processor set as [(first id, count)]
     runs of consecutive ids, into which the re-planner's sets fall
     (DESIGN.md §17). *)
  type committed = {
    task : int;
    dag : int;
    start : float;
    finish : float;
    procs : int array;
    planned_start : float;
    planned_finish : float;
  }

  type t = {
    procs : int;
    noise : Noise.t;
    rng : Emts_prng.t;
    mutable now : float;
    (* per DAG *)
    mutable graphs : Emts_ptg.Graph.t array;
    mutable offsets : int array;
    mutable arrivals : float array;
    mutable dag_unstarted : int array;  (* uncommitted tasks *)
    (* per task, by global id *)
    mutable task_dag : int array;
    mutable waiting : int array;  (* uncommitted predecessors *)
    mutable log_pos : int array;  (* commit index; -1 while unstarted *)
    mutable planned : Schedule.entry array;  (* [no_entry] when none *)
    (* per commitment, in commit order; sized to the admitted tasks *)
    mutable log_task : int array;
    mutable log_times : float array;
        (* [4i .. 4i + 3]: start, finish, planned start, planned finish *)
    mutable log_runs : int array;  (* first slot of commit [i] in [runs] *)
    mutable runs : int array;  (* [(first id, count)] pairs *)
    mutable runs_len : int;
    mutable committed_count : int;
    mutable makespan : float;  (* latest realised finish *)
    free : float array;
    mutable ready : int array;
        (* [ready.(0 .. ready_len - 1)]: the uncommitted tasks with
           [waiting = 0], in no particular order *)
    mutable ready_len : int;
  }

  type report = { committed : int; drifted : bool }

  let no_entry = { Schedule.task = -1; start = nan; finish = nan; procs = [||] }

  let create ~procs ?(noise = Noise.none) ?rng () =
    if procs < 1 then invalid_arg "Online.create: procs must be >= 1";
    let rng = match rng with Some r -> r | None -> Emts_prng.create () in
    {
      procs;
      noise;
      rng;
      now = 0.;
      graphs = [||];
      offsets = [||];
      arrivals = [||];
      dag_unstarted = [||];
      task_dag = [||];
      waiting = [||];
      log_pos = [||];
      planned = [||];
      log_task = [||];
      log_times = [||];
      log_runs = [||];
      runs = [||];
      runs_len = 0;
      committed_count = 0;
      makespan = 0.;
      free = Array.make procs 0.;
      ready = [||];
      ready_len = 0;
    }

  let procs t = t.procs
  let now t = t.now
  let task_count t = Array.length t.task_dag
  let dag_count t = Array.length t.graphs
  let committed_count t = t.committed_count
  let complete t = t.committed_count = task_count t
  let makespan t = t.makespan
  let dag_graph t d = t.graphs.(d)
  let dag_offset t d = t.offsets.(d)
  let dag_arrival t d = t.arrivals.(d)
  let dag_unstarted t d = t.dag_unstarted.(d)
  let task_dag t v = t.task_dag.(v)
  let is_committed t v = t.log_pos.(v) >= 0
  let finish_of t v = t.log_times.((4 * t.log_pos.(v)) + 1)

  (* [v]'s predecessors or successors ([adj] is [Graph.preds] or
     [Graph.succs]), as local ids, and the offset that makes them
     global. *)
  let adjacent adj t v =
    let d = t.task_dag.(v) in
    let off = t.offsets.(d) in
    (adj t.graphs.(d) (v - off), off)

  (* [a] copied into a fresh array of [len] cells, the rest [fill]. *)
  let grow a len fill =
    let b = Array.make len fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let push_ready t v =
    t.ready.(t.ready_len) <- v;
    t.ready_len <- t.ready_len + 1

  let admit t graph =
    let n = Emts_ptg.Graph.task_count graph in
    if n = 0 then invalid_arg "Online.admit: empty graph";
    let offset = task_count t in
    let dag = dag_count t in
    let total = offset + n in
    t.graphs <- Array.append t.graphs [| graph |];
    t.offsets <- Array.append t.offsets [| offset |];
    t.arrivals <- Array.append t.arrivals [| t.now |];
    t.dag_unstarted <- Array.append t.dag_unstarted [| n |];
    t.task_dag <- grow t.task_dag total dag;
    t.waiting <- grow t.waiting total 0;
    for v = 0 to n - 1 do
      t.waiting.(offset + v) <- Emts_ptg.Graph.in_degree graph v
    done;
    t.log_pos <- grow t.log_pos total (-1);
    t.planned <- grow t.planned total no_entry;
    (* every task commits once, so the log never outgrows the tasks *)
    t.log_task <- grow t.log_task total 0;
    t.log_times <- grow t.log_times (4 * total) 0.;
    t.log_runs <- grow t.log_runs total 0;
    (* ready tasks are uncommitted ones, so one slot per uncommitted
       task suffices until the next admission *)
    let ready = Array.make (total - t.committed_count) 0 in
    Array.blit t.ready 0 ready 0 t.ready_len;
    t.ready <- ready;
    for v = 0 to n - 1 do
      if t.waiting.(offset + v) = 0 then push_ready t (offset + v)
    done;
    dag

  let unstarted t =
    let acc = ref [] in
    for v = task_count t - 1 downto 0 do
      if not (is_committed t v) then acc := v :: !acc
    done;
    !acc

  (* Earliest legal start for an unstarted task under the current
     committed state: its DAG's arrival, the clock, and the realised
     finishes of its committed predecessors.  Unstarted predecessors
     are precedence edges of the re-planning sub-problem, not release
     bounds. *)
  let release_of t v =
    if is_committed t v then invalid_arg "Online.release_of: task committed";
    let preds, off = adjacent Emts_ptg.Graph.preds t v in
    Array.fold_left
      (fun acc p ->
        if is_committed t (off + p) && finish_of t (off + p) > acc then
          finish_of t (off + p)
        else acc)
      (Float.max t.arrivals.(t.task_dag.(v)) t.now)
      preds

  let avail t = Array.map (fun f -> Float.max f t.now) t.free

  let check_proc_set t v ps =
    let k = Array.length ps in
    if k = 0 then
      invalid_arg (Printf.sprintf "Online.set_plan: task %d has no procs" v);
    Array.iteri
      (fun i p ->
        if p < 0 || p >= t.procs then
          invalid_arg
            (Printf.sprintf "Online.set_plan: task %d uses processor %d" v p);
        if i > 0 && ps.(i - 1) >= p then
          invalid_arg
            (Printf.sprintf
               "Online.set_plan: task %d processor set not sorted/distinct" v))
      ps

  let set_plan t entries =
    let n = task_count t in
    let seen = Array.make n false in
    List.iter
      (fun (e : Schedule.entry) ->
        let v = e.Schedule.task in
        if v < 0 || v >= n then
          invalid_arg (Printf.sprintf "Online.set_plan: unknown task %d" v);
        if is_committed t v then
          invalid_arg
            (Printf.sprintf "Online.set_plan: task %d is already committed" v);
        if seen.(v) then
          invalid_arg (Printf.sprintf "Online.set_plan: task %d planned twice" v);
        seen.(v) <- true;
        if
          Float.is_nan e.Schedule.start
          || Float.is_nan e.Schedule.finish
          || e.Schedule.finish < e.Schedule.start
        then
          invalid_arg
            (Printf.sprintf "Online.set_plan: task %d has invalid times" v);
        if e.Schedule.start < t.arrivals.(t.task_dag.(v)) then
          invalid_arg
            (Printf.sprintf
               "Online.set_plan: task %d planned before its DAG arrived" v);
        if e.Schedule.start < t.now then
          invalid_arg
            (Printf.sprintf "Online.set_plan: task %d planned in the past" v);
        check_proc_set t v e.Schedule.procs)
      entries;
    for v = 0 to n - 1 do
      if (not (is_committed t v)) && not seen.(v) then
        invalid_arg
          (Printf.sprintf "Online.set_plan: unstarted task %d has no entry" v)
    done;
    List.iter
      (fun (e : Schedule.entry) -> t.planned.(e.Schedule.task) <- e)
      entries

  let plan t =
    let acc = ref [] in
    for v = task_count t - 1 downto 0 do
      let e = t.planned.(v) in
      if e != no_entry then acc := e :: !acc
    done;
    !acc

  let float_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  (* The next commitment: among the ready tasks (unstarted, every
     predecessor committed) that have a plan, the minimal (effective
     start, positive planned duration, id) — zero-duration tasks first
     among equal starts, mirroring [dispatch_order]'s middle component,
     then the smallest global id.  The rule is explicit because the
     ready array is in no particular order.  Returns the winner's slot
     in [ready] and its effective start.

     A candidate whose planned start already exceeds the best effective
     start so far is skipped before its folds: its effective start is
     at least its planned start, so it would lose.  The test is strict,
     since an equal planned start can still tie and win on duration
     class or id. *)
  let next_commit t =
    let best = ref (-1) and best_id = ref max_int in
    let best_eff = ref infinity and best_pos = ref true in
    for slot = 0 to t.ready_len - 1 do
      let v = t.ready.(slot) in
      let e = t.planned.(v) in
      if e != no_entry && e.Schedule.start <= !best_eff then begin
        let preds, off = adjacent Emts_ptg.Graph.preds t v in
        let data_ready =
          Array.fold_left
            (fun acc p -> Float.max acc (finish_of t (off + p)))
            0. preds
        in
        let procs_free =
          Array.fold_left
            (fun acc p -> Float.max acc t.free.(p))
            0. e.Schedule.procs
        in
        let eff =
          Float.max e.Schedule.start (Float.max data_ready procs_free)
        in
        let pos = e.Schedule.finish > e.Schedule.start in
        let better =
          let c = Float.compare eff !best_eff in
          c < 0
          || c = 0
             && (((not pos) && !best_pos)
                || (pos = !best_pos && v < !best_id))
        in
        if !best < 0 || better then begin
          best := slot;
          best_id := v;
          best_eff := eff;
          best_pos := pos
        end
      end
    done;
    if !best < 0 then None else Some (!best, !best_eff)

  (* Append [ps] (sorted, distinct) to [runs] as maximal runs of
     consecutive ids. *)
  let push_runs t ps =
    let k = Array.length ps in
    if t.runs_len + (2 * k) > Array.length t.runs then
      t.runs <-
        grow t.runs (max (t.runs_len + (2 * k)) (2 * Array.length t.runs)) 0;
    let i = ref 0 in
    while !i < k do
      let j = ref (!i + 1) in
      while !j < k && ps.(!j) = ps.(!j - 1) + 1 do
        incr j
      done;
      t.runs.(t.runs_len) <- ps.(!i);
      t.runs.(t.runs_len + 1) <- !j - !i;
      t.runs_len <- t.runs_len + 2;
      i := !j
    done

  (* Log [v]'s commitment at [start, finish] under plan entry [e]. *)
  let log_commit t v ~start ~finish (e : Schedule.entry) =
    let i = t.committed_count in
    t.log_pos.(v) <- i;
    t.log_task.(i) <- v;
    t.log_times.(4 * i) <- start;
    t.log_times.((4 * i) + 1) <- finish;
    t.log_times.((4 * i) + 2) <- e.Schedule.start;
    t.log_times.((4 * i) + 3) <- e.Schedule.finish;
    t.log_runs.(i) <- t.runs_len;
    push_runs t e.Schedule.procs;
    t.committed_count <- i + 1;
    t.makespan <- Float.max t.makespan finish;
    if complete t then begin
      (* nothing is ready or growing until the next admission: keep
         only what the log holds *)
      t.runs <- Array.sub t.runs 0 t.runs_len;
      t.ready <- [||]
    end

  let advance ?(to_ = infinity) t =
    if Float.is_nan to_ then invalid_arg "Online.advance: to_ is NaN";
    if to_ < t.now then invalid_arg "Online.advance: cannot advance backwards";
    let committed = ref 0 in
    let drifted = ref false in
    let stop = ref false in
    while not !stop do
      match next_commit t with
      | None ->
        if to_ = infinity && not (complete t) then
          (* set_plan guarantees coverage, so this means a cycle or a
             plan that was never installed; defensive *)
          invalid_arg "Online.advance: no eligible task but work remains";
        stop := true
      | Some (slot, eff) ->
        if eff > to_ then stop := true
        else begin
          let v = t.ready.(slot) in
          t.ready_len <- t.ready_len - 1;
          t.ready.(slot) <- t.ready.(t.ready_len);
          let succs, off = adjacent Emts_ptg.Graph.succs t v in
          Array.iter
            (fun w ->
              let w = off + w in
              t.waiting.(w) <- t.waiting.(w) - 1;
              if t.waiting.(w) = 0 then push_ready t w)
            succs;
          let e = t.planned.(v) in
          let planned_dur = e.Schedule.finish -. e.Schedule.start in
          let dur = Noise.apply t.noise t.rng ~planned:planned_dur in
          let finish = eff +. dur in
          t.planned.(v) <- no_entry;
          let d = t.task_dag.(v) in
          t.dag_unstarted.(d) <- t.dag_unstarted.(d) - 1;
          Array.iter (fun p -> t.free.(p) <- finish) e.Schedule.procs;
          log_commit t v ~start:eff ~finish e;
          incr committed;
          if eff > t.now then t.now <- eff;
          if
            not
              (float_eq eff e.Schedule.start
              && float_eq finish e.Schedule.finish)
          then begin
            (* noise-induced drift: stop so the controller can re-plan
               the unstarted remainder against the realised state *)
            drifted := true;
            stop := true
          end
        end
    done;
    if not !drifted then
      if to_ < infinity then t.now <- Float.max t.now to_
      else if complete t then t.now <- Float.max t.now t.makespan;
    { committed = !committed; drifted = !drifted }

  (* Commitment [i]'s processor set, decoded from its runs. *)
  let procs_of t i =
    let lo = t.log_runs.(i)
    and hi =
      if i + 1 < t.committed_count then t.log_runs.(i + 1) else t.runs_len
    in
    let k = ref 0 in
    for r = 0 to ((hi - lo) / 2) - 1 do
      k := !k + t.runs.(lo + (2 * r) + 1)
    done;
    let ps = Array.make !k 0 in
    let at = ref 0 in
    for r = 0 to ((hi - lo) / 2) - 1 do
      let first = t.runs.(lo + (2 * r)) in
      for j = 0 to t.runs.(lo + (2 * r) + 1) - 1 do
        ps.(!at) <- first + j;
        incr at
      done
    done;
    ps

  let commitments t =
    List.init t.committed_count (fun i ->
        let v = t.log_task.(i) in
        {
          task = v;
          dag = t.task_dag.(v);
          start = t.log_times.(4 * i);
          finish = t.log_times.((4 * i) + 1);
          procs = procs_of t i;
          planned_start = t.log_times.((4 * i) + 2);
          planned_finish = t.log_times.((4 * i) + 3);
        })

  let merged_graph t =
    let b = Emts_ptg.Graph.Builder.create () in
    Array.iter
      (fun g ->
        let tasks = Emts_ptg.Graph.tasks g in
        Array.iter
          (fun task ->
            ignore
              (Emts_ptg.Graph.Builder.add_task b
                 ~flop:task.Emts_ptg.Task.flop))
          tasks)
      t.graphs;
    Array.iteri
      (fun d g ->
        let off = t.offsets.(d) in
        List.iter
          (fun (src, dst) ->
            Emts_ptg.Graph.Builder.add_edge b ~src:(src + off)
              ~dst:(dst + off))
          (Emts_ptg.Graph.edges g))
      t.graphs;
    Emts_ptg.Graph.Builder.build b

  let realized_schedule t =
    if not (complete t) then
      invalid_arg "Online.realized_schedule: work remains";
    let entries =
      Array.init (task_count t) (fun v ->
          let i = t.log_pos.(v) in
          {
            Schedule.task = v;
            start = t.log_times.(4 * i);
            finish = t.log_times.((4 * i) + 1);
            procs = procs_of t i;
          })
    in
    Schedule.make ~platform_procs:t.procs entries
end

let trace_to_csv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "event,task,time,procs\n";
  List.iter
    (fun event ->
      match event with
      | Start { task; time; procs } ->
        Buffer.add_string buf
          (Printf.sprintf "start,%d,%.9g,%s\n" task time
             (String.concat "|"
                (Array.to_list (Array.map string_of_int procs))))
      | Finish { task; time } ->
        Buffer.add_string buf (Printf.sprintf "finish,%d,%.9g,\n" task time))
    r.trace;
  Buffer.contents buf
