module Sim = Emts_simulator.Online
module Graph = Emts_ptg.Graph
module Schedule = Emts_sched.Schedule
module Common = Emts_alloc.Common

(* Online scheduling controller: one session owns a live cluster state
   ({!Emts_simulator.Online}) and re-plans the unstarted remainder of
   the workload whenever a DAG arrives or a commitment drifts off plan.

   Re-planning builds the induced sub-problem over unstarted tasks
   (per-task release times from arrivals and committed predecessors,
   per-processor availability from committed work) as an EMTS context,
   and solves it either with the baseline (every task at its fastest
   processor count, then release-aware list scheduling) or with
   [Emts.Algorithm.run_ctx], seeded with the baseline allotment, the
   surviving previous plan padded with it, and all-ones — elitism
   therefore guarantees each EMTS re-plan is no worse than the baseline
   plan for the same state.  All randomness
   derives from the session seed via labelled streams, so the same seed
   and arrival trace commit bit-identically for a given island count,
   whatever the number of worker domains. *)

(* One re-planning EA at a time in the process.  The daemon re-plans on
   connection reader threads, all systhreads of one domain and so of
   one evaluator slot ([Emts.Algorithm]'s, per domain): a thread switch
   inside [Evaluator.makespan] would corrupt another session's scratch.
   Those threads never ran in parallel anyway. *)
let ea_lock = Mutex.create ()

type replanner =
  | Baseline
  | Emts of { mu : int; lambda : int; generations : int }

let replanner_of_string s =
  match String.lowercase_ascii s with
  | "baseline" | "online" -> Some Baseline
  | name ->
    Option.map
      (fun (c : Emts.Algorithm.config) ->
        Emts { mu = c.mu; lambda = c.lambda; generations = c.generations })
      (Emts.Algorithm.preset name)

let replanner_name = function
  | Baseline -> "baseline"
  | Emts { mu; lambda; generations } ->
    Printf.sprintf "emts(%d+%d,%d)" mu lambda generations

type config = {
  platform : Emts_platform.t;
  model : Emts_model.t;
  replanner : replanner;
  seed : int;
  domains : int;
  islands : int;
  migration_interval : int;
  migration_count : int;
  noise : Emts_simulator.Noise.t;
}

let config ?(replanner = Baseline) ?(seed = 0x5EED_CA11) ?(domains = 1)
    ?(islands = 1) ?(migration_interval = 5) ?(migration_count = 1)
    ?(noise = Emts_simulator.Noise.none)
    ~platform ~model () =
  if domains < 1 then invalid_arg "Online.config: domains must be >= 1";
  if islands < 1 then invalid_arg "Online.config: islands must be >= 1";
  if migration_interval < 1 then
    invalid_arg "Online.config: migration_interval must be >= 1";
  if migration_count < 0 then
    invalid_arg "Online.config: migration_count must be >= 0";
  {
    platform;
    model;
    replanner;
    seed;
    domains;
    islands;
    migration_interval;
    migration_count;
    noise;
  }

type t = {
  cfg : config;
  procs : int;
  state : Sim.t;
  pool : Emts_pool.t option;  (* borrowed; never shut down here *)
  mutable dag_ctxs : Common.ctx option array;
      (* by DAG: the time tables and covering edges re-planning reads,
         by local task id, until the DAG's last task commits; [None]
         from then on *)
  mutable open_dags : int list;  (* the DAGs whose context is held *)
  mutable min_area : float;  (* sum over DAGs of sum_v min_p (p * t(v,p)) *)
  mutable min_cp : float;
      (* max over DAGs of arrival + critical path under min-time durations *)
  mutable dirty : bool;  (* arrivals or drift since the current plan *)
  mutable replans : int;  (* effective re-plans performed *)
}

let create ?pool cfg =
  let procs = cfg.platform.Emts_platform.processors in
  let rng =
    Emts_prng.create
      ~seed:
        (Emts_prng.seed_of_label (Printf.sprintf "online/%d/noise" cfg.seed))
      ()
  in
  {
    cfg;
    procs;
    state = Sim.create ~procs ~noise:cfg.noise ~rng ();
    pool;
    dag_ctxs = [||];
    open_dags = [];
    min_area = 0.;
    min_cp = 0.;
    dirty = false;
    replans = 0;
  }

let now t = Sim.now t.state
let procs t = t.procs
let task_count t = Sim.task_count t.state
let dag_count t = Sim.dag_count t.state
let committed_count t = Sim.committed_count t.state
let complete t = Sim.complete t.state
let commitments t = Sim.commitments t.state
let plan t = Sim.plan t.state
let replans t = t.replans
let makespan t = if complete t then Some (Sim.makespan t.state) else None
let state t = t.state
let open_dags t = List.length t.open_dags

let drifted (c : Sim.committed) =
  let eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  not (eq c.Sim.start c.Sim.planned_start && eq c.Sim.finish c.Sim.planned_finish)

let pp_committed (c : Sim.committed) =
  Printf.sprintf "dag%d t%d %.9g %.9g [%s]%s" c.Sim.dag c.Sim.task c.Sim.start
    c.Sim.finish
    (String.concat ","
       (Array.to_list (Array.map string_of_int c.Sim.procs)))
    (if drifted c then " drift" else "")

(* Drop the context of each DAG whose last task has committed.  Walks
   the open DAGs only, once per [Sim.advance]. *)
let close_finished t =
  let closed, open_ =
    List.partition (fun d -> Sim.dag_unstarted t.state d = 0) t.open_dags
  in
  List.iter (fun d -> t.dag_ctxs.(d) <- None) closed;
  t.open_dags <- open_

(* The induced sub-problem over the unstarted tasks, as the ids of its
   tasks (sub id -> global id) and its EMTS context.  Its edges are the
   covering edges between unstarted tasks.  A task commits only after
   all of its predecessors, so the unstarted tasks are closed under
   successors: every covering edge out of one ends at another, and
   these edges are the covering edges of the induced sub-graph
   (DESIGN.md §17). *)
let subproblem t =
  let st = t.state in
  let global = Array.of_list (Sim.unstarted st) in
  let k = Array.length global in
  let sub_of = Hashtbl.create (2 * k) in
  Array.iteri (fun i v -> Hashtbl.replace sub_of v i) global;
  (* an unstarted task's DAG context and local id *)
  let locate v =
    let d = Sim.task_dag st v in
    (Option.get t.dag_ctxs.(d), v - Sim.dag_offset st d)
  in
  let b = Graph.Builder.create () in
  let tables =
    Array.map
      (fun v ->
        let c, local = locate v in
        let task = Graph.task c.Common.cover local in
        ignore (Graph.Builder.add_task b ~flop:task.Emts_ptg.Task.flop);
        c.Common.tables.(local))
      global
  in
  Array.iteri
    (fun i v ->
      let c, local = locate v in
      Array.iter
        (fun w ->
          Graph.Builder.add_edge b ~src:i
            ~dst:(Hashtbl.find sub_of (v - local + w)))
        (Graph.succs c.Common.cover local))
    global;
  ( global,
    Common.sub_ctx ~cover:(Graph.Builder.build b) ~tables ~procs:t.procs
      ~release:(Array.map (Sim.release_of st) global)
      ~avail:(Sim.avail st) )

(* Solve the sub-problem with EMTS, seeded with the baseline allotment,
   the surviving plan padded with it and all-ones, so elitism pins the
   result at or below the baseline's makespan for the same state. *)
let emts_schedule t ~global ~ctx ~baseline ~mu ~lambda ~generations =
  let rng =
    Emts_prng.create
      ~seed:
        (Emts_prng.seed_of_label
           (Printf.sprintf "online/%d/replan/%d" t.cfg.seed t.replans))
      ()
  in
  let prev =
    (* the surviving plan's allocation, padded with the baseline for
       tasks that have no entry yet (fresh arrivals) *)
    let planned = Hashtbl.create (2 * Array.length global) in
    List.iter
      (fun (e : Schedule.entry) ->
        Hashtbl.replace planned e.Schedule.task (Array.length e.Schedule.procs))
      (Sim.plan t.state);
    Array.mapi
      (fun i v ->
        match Hashtbl.find_opt planned v with
        | Some s -> s
        | None -> baseline.(i))
      global
  in
  let constant name alloc = { Emts_alloc.name; allocate = (fun _ -> alloc) } in
  let heuristics =
    [ constant "baseline" baseline; constant "plan" prev;
      constant "SEQ" (Array.make (Array.length global) 1) ]
  in
  let { domains; islands; migration_interval; migration_count; _ } = t.cfg in
  let config =
    { Emts.Algorithm.emts5 with mu; lambda; generations; heuristics; domains;
      islands; migration_interval; migration_count = min migration_count mu }
  in
  Mutex.protect ea_lock (fun () ->
      (Emts.Algorithm.run_ctx ?pool:t.pool ~rng ~config ~ctx ())
        .Emts.Algorithm.schedule)

(* Recompute the plan for the current state.  No-op unless something
   changed since the current plan was computed — [submit] marks new
   arrivals, [advance] marks drift — so re-planning an unchanged state
   never perturbs the schedule (QCheck-tested). *)
let replan t =
  if not t.dirty then false
  else begin
    (let global, ctx = subproblem t in
     if Array.length global > 0 then begin
       let baseline =
         Emts_sched.Online_list.compromise_allotment ~tables:ctx.Common.tables
           ~procs:t.procs
       in
       let sched =
         match t.cfg.replanner with
         | Baseline -> Emts.Algorithm.schedule_allocation ~ctx baseline
         | Emts { mu; lambda; generations } ->
           emts_schedule t ~global ~ctx ~baseline ~mu ~lambda ~generations
       in
       let entries =
         Array.to_list
           (Array.map
              (fun (e : Schedule.entry) ->
                { e with Schedule.task = global.(e.Schedule.task) })
              (Schedule.entries sched))
       in
       Sim.set_plan t.state entries
     end);
    t.replans <- t.replans + 1;
    t.dirty <- false;
    true
  end

(* Commit up to [to_], re-planning after every drifting commitment;
   each drifted pass commits at least one task, so this terminates. *)
let advance_to t to_ =
  let committed = ref 0 and drifts = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let r = Sim.advance ~to_ t.state in
    if r.Sim.committed > 0 then close_finished t;
    committed := !committed + r.Sim.committed;
    if r.Sim.drifted then begin
      incr drifts;
      t.dirty <- true;
      ignore (replan t)
    end
    else continue_ := false
  done;
  (!committed, !drifts)

type advance_report = {
  now : float;
  committed : int;  (** commitments made by this call *)
  drifts : int;  (** drifting commitments encountered *)
  replans : int;  (** session-lifetime re-plan count *)
  makespan : float option;  (** realised makespan once complete *)
  complete : bool;
}

let report t ~committed ~drifts =
  {
    now = Sim.now t.state;
    committed;
    drifts;
    replans = t.replans;
    makespan = makespan t;
    complete = complete t;
  }

let advance ?to_ t =
  let to_ = Option.value to_ ~default:infinity in
  if Float.is_nan to_ then Error "advance: target time is NaN"
  else if to_ < Sim.now t.state then
    Error
      (Printf.sprintf "advance: target %g is before the clock (%g)" to_
         (Sim.now t.state))
  else begin
    let committed, drifts = advance_to t to_ in
    Ok (report t ~committed ~drifts)
  end

let submit t ~graph ~at =
  if Float.is_nan at || at < 0. then Error "submit: invalid arrival time"
  else if at < Sim.now t.state then
    Error
      (Printf.sprintf "submit: arrival %g is before the clock (%g)" at
         (Sim.now t.state))
  else if Graph.task_count graph = 0 then Error "submit: empty graph"
  else begin
    (* run the cluster up to the arrival instant, then admit *)
    let committed, drifts = advance_to t at in
    let dag = Sim.admit t.state graph in
    let ctx =
      Common.make_ctx ~model:t.cfg.model ~platform:t.cfg.platform ~graph
    in
    let min_time row =
      Array.fold_left Float.min row.(0) row
    in
    let min_area row =
      let best = ref infinity in
      Array.iteri
        (fun i tv ->
          let a = float_of_int (i + 1) *. tv in
          if a < !best then best := a)
        row;
      !best
    in
    let tables = ctx.Common.tables in
    t.min_area <-
      t.min_area
      +. Array.fold_left (fun acc row -> acc +. min_area row) 0. tables;
    t.min_cp <-
      Float.max t.min_cp
        (Sim.dag_arrival t.state dag
        +. Emts_ptg.Analysis.critical_path_length graph ~time:(fun v ->
               min_time tables.(v)));
    t.dag_ctxs <- Array.append t.dag_ctxs [| Some ctx |];
    t.open_dags <- dag :: t.open_dags;
    t.dirty <- true;
    ignore (replan t);
    Ok (dag, report t ~committed ~drifts)
  end

(* Certified lower bound on any schedule of the admitted workload —
   and so on the clairvoyant offline optimum for the merged DAG: total
   minimal area cannot beat perfect packing, and every DAG's minimal
   critical path must run after its arrival.  Using the bound (not an
   EMTS offline run) as the clairvoyant denominator keeps
   "online >= clairvoyant" a theorem rather than an artefact of EA
   luck, provided realised durations never undercut the model (true
   for [Noise.none] and [Noise.uniform_slowdown]). *)
let clairvoyant_bound t =
  Float.max (t.min_area /. float_of_int t.procs) t.min_cp

module Registry = struct
  type session = t

  (* [users] counts requests that hold the cell, from lookup to the end
     of the request (the session mutex alone leaves a window between
     lookup and lock); [used] is the registry tick of the last lookup.
     Both change only under the registry lock. *)
  type cell = {
    mutex : Mutex.t;
    session : session;
    mutable users : int;
    mutable used : int;
  }

  type nonrec t = {
    lock : Mutex.t;
    sessions : (string, cell) Hashtbl.t;
    capacity : int;
    mutable tick : int;
  }

  let create ?(capacity = 64) () =
    if capacity < 1 then invalid_arg "Registry.create: capacity must be >= 1";
    { lock = Mutex.create (); sessions = Hashtbl.create 16; capacity; tick = 0 }

  let count r =
    Mutex.lock r.lock;
    let n = Hashtbl.length r.sessions in
    Mutex.unlock r.lock;
    n

  let locked r f =
    Mutex.lock r.lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

  let checkout r cell =
    r.tick <- r.tick + 1;
    cell.used <- r.tick;
    cell.users <- cell.users + 1;
    cell

  (* Make room for a new name: drop the least recently used session
     that has finished its workload and that no request holds.  With no
     user, nothing mutates the session, so [complete] is safe to read. *)
  let evict_one r =
    let victim =
      Hashtbl.fold
        (fun name cell best ->
          if cell.users > 0 || not (complete cell.session) then best
          else
            match best with
            | Some (_, used) when used <= cell.used -> best
            | _ -> Some (name, cell.used))
        r.sessions None
    in
    Option.iter (fun (name, _) -> Hashtbl.remove r.sessions name) victim;
    Option.is_some victim

  (* Run [f] on [cell]'s session under its own mutex (sessions are
     single-threaded; the registry serialises concurrent wire
     requests), then release the cell. *)
  let run r cell f =
    Mutex.lock cell.mutex;
    Fun.protect
      ~finally:(fun () ->
        Mutex.unlock cell.mutex;
        locked r (fun () -> cell.users <- cell.users - 1))
      (fun () -> Ok (f cell.session))

  let with_session r ~name ~create f =
    match
      locked r (fun () ->
          match Hashtbl.find_opt r.sessions name with
          | Some cell -> Ok (checkout r cell)
          | None ->
            if Hashtbl.length r.sessions >= r.capacity && not (evict_one r)
            then
              Error
                (Printf.sprintf "session table full (%d sessions)" r.capacity)
            else begin
              let cell =
                {
                  mutex = Mutex.create ();
                  session = create ();
                  users = 0;
                  used = 0;
                }
              in
              Hashtbl.replace r.sessions name cell;
              Ok (checkout r cell)
            end)
    with
    | Error _ as e -> e
    | Ok cell -> run r cell f

  let with_existing r ~name f =
    match
      locked r (fun () ->
          Option.map (checkout r) (Hashtbl.find_opt r.sessions name))
    with
    | None -> Error (Printf.sprintf "unknown session %S" name)
    | Some cell -> run r cell f
end
