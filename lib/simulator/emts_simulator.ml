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
  (* A committed task keeps only its realised [r_*] fields: its commit
     step empties [preds], [succs] and [planned], which only uncommitted
     tasks are read for. *)
  type task = {
    dag : int;
    arrival : float;
    mutable preds : int array;  (* global ids *)
    mutable succs : int array;
    mutable committed : bool;
    mutable waiting : int;  (* uncommitted predecessors *)
    mutable r_start : float;
    mutable r_finish : float;
    mutable r_procs : int array;
    mutable planned : Schedule.entry option;  (* global-id entry *)
  }

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
    mutable tasks : task array;
    mutable dags : (Emts_ptg.Graph.t * int * float) array;
    mutable dag_unstarted : int array;  (* uncommitted tasks per DAG *)
    free : float array;
    mutable log : committed list;  (* newest first *)
    mutable committed_count : int;
    mutable ready : int array;
        (* [ready.(0 .. ready_len - 1)]: the uncommitted tasks with
           [waiting = 0], in no particular order *)
    mutable ready_len : int;
  }

  type report = { committed : int; drifted : bool }

  let create ~procs ?(noise = Noise.none) ?rng () =
    if procs < 1 then invalid_arg "Online.create: procs must be >= 1";
    let rng = match rng with Some r -> r | None -> Emts_prng.create () in
    {
      procs;
      noise;
      rng;
      now = 0.;
      tasks = [||];
      dags = [||];
      dag_unstarted = [||];
      free = Array.make procs 0.;
      log = [];
      committed_count = 0;
      ready = [||];
      ready_len = 0;
    }

  let procs t = t.procs
  let now t = t.now
  let task_count t = Array.length t.tasks
  let dag_count t = Array.length t.dags
  let committed_count t = t.committed_count
  let complete t = t.committed_count = Array.length t.tasks
  let commitments t = List.rev t.log

  let dag_graph t d =
    let g, _, _ = t.dags.(d) in
    g

  let dag_offset t d =
    let _, off, _ = t.dags.(d) in
    off

  let dag_arrival t d =
    let _, _, at = t.dags.(d) in
    at

  let dag_unstarted t d = t.dag_unstarted.(d)
  let task_dag t v = t.tasks.(v).dag

  let push_ready t v =
    t.ready.(t.ready_len) <- v;
    t.ready_len <- t.ready_len + 1

  let admit t graph =
    let n = Emts_ptg.Graph.task_count graph in
    if n = 0 then invalid_arg "Online.admit: empty graph";
    let offset = Array.length t.tasks in
    let dag = Array.length t.dags in
    let shift = Array.map (fun v -> v + offset) in
    let fresh =
      Array.init n (fun v ->
          let preds = shift (Emts_ptg.Graph.preds graph v) in
          {
            dag;
            arrival = t.now;
            preds;
            succs = shift (Emts_ptg.Graph.succs graph v);
            committed = false;
            waiting = Array.length preds;
            r_start = 0.;
            r_finish = 0.;
            r_procs = [||];
            planned = None;
          })
    in
    t.tasks <- Array.append t.tasks fresh;
    t.dags <- Array.append t.dags [| (graph, offset, t.now) |];
    t.dag_unstarted <- Array.append t.dag_unstarted [| n |];
    (* ready tasks are uncommitted ones, so one slot per uncommitted
       task suffices until the next admission *)
    let ready = Array.make (Array.length t.tasks - t.committed_count) 0 in
    Array.blit t.ready 0 ready 0 t.ready_len;
    t.ready <- ready;
    Array.iteri
      (fun v task -> if task.waiting = 0 then push_ready t (offset + v))
      fresh;
    dag

  let unstarted t =
    let acc = ref [] in
    for v = Array.length t.tasks - 1 downto 0 do
      if not t.tasks.(v).committed then acc := v :: !acc
    done;
    !acc

  (* Earliest legal start for an unstarted task under the current
     committed state: its DAG's arrival, the clock, and the realised
     finishes of its committed predecessors.  Unstarted predecessors
     are precedence edges of the re-planning sub-problem, not release
     bounds. *)
  let release_of t v =
    let task = t.tasks.(v) in
    if task.committed then invalid_arg "Online.release_of: task committed";
    Array.fold_left
      (fun acc p ->
        let pr = t.tasks.(p) in
        if pr.committed && pr.r_finish > acc then pr.r_finish else acc)
      (Float.max task.arrival t.now)
      task.preds

  let avail t = Array.map (fun f -> Float.max f t.now) t.free

  let makespan t =
    List.fold_left (fun acc c -> Float.max acc c.finish) 0. t.log

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
    let n = Array.length t.tasks in
    let seen = Array.make n false in
    List.iter
      (fun (e : Schedule.entry) ->
        let v = e.Schedule.task in
        if v < 0 || v >= n then
          invalid_arg (Printf.sprintf "Online.set_plan: unknown task %d" v);
        if t.tasks.(v).committed then
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
        if e.Schedule.start < t.tasks.(v).arrival then
          invalid_arg
            (Printf.sprintf
               "Online.set_plan: task %d planned before its DAG arrived" v);
        if e.Schedule.start < t.now then
          invalid_arg
            (Printf.sprintf "Online.set_plan: task %d planned in the past" v);
        check_proc_set t v e.Schedule.procs)
      entries;
    for v = 0 to n - 1 do
      if (not t.tasks.(v).committed) && not seen.(v) then
        invalid_arg
          (Printf.sprintf "Online.set_plan: unstarted task %d has no entry" v)
    done;
    List.iter
      (fun (e : Schedule.entry) ->
        t.tasks.(e.Schedule.task).planned <- Some e)
      entries

  let plan t =
    let acc = ref [] in
    for v = Array.length t.tasks - 1 downto 0 do
      let task = t.tasks.(v) in
      if not task.committed then
        match task.planned with
        | Some e -> acc := e :: !acc
        | None -> ()
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
      let task = t.tasks.(v) in
      match task.planned with
      | Some e when e.Schedule.start <= !best_eff ->
        let data_ready =
          Array.fold_left
            (fun acc p -> Float.max acc t.tasks.(p).r_finish)
            0. task.preds
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
      | Some _ | None -> ()
    done;
    if !best < 0 then None else Some (!best, !best_eff)

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
          let task = t.tasks.(v) in
          t.ready_len <- t.ready_len - 1;
          t.ready.(slot) <- t.ready.(t.ready_len);
          Array.iter
            (fun w ->
              let succ = t.tasks.(w) in
              succ.waiting <- succ.waiting - 1;
              if succ.waiting = 0 then push_ready t w)
            task.succs;
          let e = Option.get task.planned in
          let planned_dur = e.Schedule.finish -. e.Schedule.start in
          let dur = Noise.apply t.noise t.rng ~planned:planned_dur in
          let finish = eff +. dur in
          task.committed <- true;
          task.r_start <- eff;
          task.r_finish <- finish;
          task.r_procs <- e.Schedule.procs;
          task.preds <- [||];
          task.succs <- [||];
          task.planned <- None;
          t.dag_unstarted.(task.dag) <- t.dag_unstarted.(task.dag) - 1;
          Array.iter (fun p -> t.free.(p) <- finish) e.Schedule.procs;
          t.committed_count <- t.committed_count + 1;
          t.log <-
            {
              task = v;
              dag = task.dag;
              start = eff;
              finish;
              procs = e.Schedule.procs;
              planned_start = e.Schedule.start;
              planned_finish = e.Schedule.finish;
            }
            :: t.log;
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
      else if complete t then t.now <- Float.max t.now (makespan t);
    { committed = !committed; drifted = !drifted }

  let merged_graph t =
    let b = Emts_ptg.Graph.Builder.create () in
    Array.iter
      (fun (g, _, _) ->
        let tasks = Emts_ptg.Graph.tasks g in
        Array.iter
          (fun task ->
            ignore
              (Emts_ptg.Graph.Builder.add_task b
                 ~flop:task.Emts_ptg.Task.flop))
          tasks)
      t.dags;
    Array.iter
      (fun (g, off, _) ->
        List.iter
          (fun (src, dst) ->
            Emts_ptg.Graph.Builder.add_edge b ~src:(src + off)
              ~dst:(dst + off))
          (Emts_ptg.Graph.edges g))
      t.dags;
    Emts_ptg.Graph.Builder.build b

  let realized_schedule t =
    if not (complete t) then
      invalid_arg "Online.realized_schedule: work remains";
    let entries =
      Array.mapi
        (fun v task ->
          {
            Schedule.task = v;
            start = task.r_start;
            finish = task.r_finish;
            procs = task.r_procs;
          })
        t.tasks
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
