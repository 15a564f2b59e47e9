module Sim = Emts_simulator.Online
module Graph = Emts_ptg.Graph
module Schedule = Emts_sched.Schedule

(* Online scheduling controller: one session owns a live cluster state
   ({!Emts_simulator.Online}) and re-plans the unstarted remainder of
   the workload whenever a DAG arrives or a commitment drifts off plan.

   Re-planning builds the induced sub-problem over unstarted tasks
   (per-task release times from arrivals and committed predecessors,
   per-processor availability from committed work) and solves it either
   with the Perotin–Sun baseline (compromise allotment + release-aware
   list scheduling) or with a (mu+lambda) EA over the sub-problem's
   allocation vectors, seeded with the baseline and the surviving
   previous plan — elitism therefore guarantees each EMTS re-plan is no
   worse than the baseline plan for the same state.  All randomness
   derives from the session seed via labelled streams, so the same seed
   and arrival trace commit bit-identically regardless of worker
   domains, fitness cache, delta evaluation or islands. *)

(* Per-worker-domain delta evaluator scratch; toplevel because a DLS
   slot is never reclaimed (same rule as [Emts.Algorithm]). *)
let evaluator_slot =
  Emts_pool.Local.key (fun () -> Emts_sched.Evaluator.create ())

(* One re-planning EA at a time in the process.  The daemon re-plans on
   connection reader threads, all systhreads of one domain and so of
   one [evaluator_slot]: a thread switch inside [Evaluator.makespan]
   would corrupt another session's scratch.  Those threads never ran in
   parallel anyway. *)
let ea_lock = Mutex.create ()

type replanner =
  | Baseline
  | Emts of { mu : int; lambda : int; generations : int }

let replanner_of_string s =
  match String.lowercase_ascii s with
  | "baseline" | "online" -> Some Baseline
  | "emts1" -> Some (Emts { mu = 2; lambda = 4; generations = 2 })
  | "emts5" -> Some (Emts { mu = 5; lambda = 25; generations = 5 })
  | "emts10" -> Some (Emts { mu = 10; lambda = 100; generations = 10 })
  | _ -> None

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
  fitness_cache : int option;
  delta_fitness : bool;
  noise : Emts_simulator.Noise.t;
}

let config ?(replanner = Baseline) ?(seed = 0x5EED_CA11) ?(domains = 1)
    ?(islands = 1) ?(migration_interval = 5) ?(migration_count = 1)
    ?fitness_cache ?(delta_fitness = true) ?(noise = Emts_simulator.Noise.none)
    ~platform ~model () =
  if domains < 1 then invalid_arg "Online.config: domains must be >= 1";
  if islands < 1 then invalid_arg "Online.config: islands must be >= 1";
  if migration_interval < 1 then
    invalid_arg "Online.config: migration_interval must be >= 1";
  if migration_count < 0 then
    invalid_arg "Online.config: migration_count must be >= 0";
  (match fitness_cache with
  | Some c when c < 1 -> invalid_arg "Online.config: fitness_cache must be >= 1"
  | _ -> ());
  {
    platform;
    model;
    replanner;
    seed;
    domains;
    islands;
    migration_interval;
    migration_count;
    fitness_cache;
    delta_fitness;
    noise;
  }

(* Per-DAG derived data, fixed at admission. *)
type dag_ctx = {
  tables : float array array;  (* local task id -> row over 1..procs *)
  min_area : float;  (* sum_v min_p (p * t(v,p)) *)
  min_cp : float;  (* critical path under min-time durations *)
}

type t = {
  cfg : config;
  procs : int;
  state : Sim.t;
  pool : Emts_pool.t option;  (* borrowed; never shut down here *)
  mutable dag_ctxs : dag_ctx array;
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

let drifted (c : Sim.committed) =
  let eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  not (eq c.Sim.start c.Sim.planned_start && eq c.Sim.finish c.Sim.planned_finish)

let pp_committed (c : Sim.committed) =
  Printf.sprintf "dag%d t%d %.9g %.9g [%s]%s" c.Sim.dag c.Sim.task c.Sim.start
    c.Sim.finish
    (String.concat ","
       (Array.to_list (Array.map string_of_int c.Sim.procs)))
    (if drifted c then " drift" else "")

(* The dag owning a global task id: offsets are ascending. *)
let dag_of t v =
  let d = ref (Sim.dag_count t.state - 1) in
  while Sim.dag_offset t.state !d > v do
    decr d
  done;
  !d

(* The induced sub-problem over the unstarted tasks. *)
type sub = {
  global : int array;  (* sub id -> global id *)
  graph : Graph.t;
  tables : float array array;  (* rows shared with the dag tables *)
  release : float array;
  avail : float array;
}

let subproblem t =
  let st = t.state in
  let global = Array.of_list (Sim.unstarted st) in
  let k = Array.length global in
  let sub_of = Hashtbl.create (2 * k) in
  Array.iteri (fun i v -> Hashtbl.replace sub_of v i) global;
  let b = Graph.Builder.create () in
  let tables =
    Array.map
      (fun v ->
        let d = dag_of t v in
        let local = v - Sim.dag_offset st d in
        let task = Graph.task (Sim.dag_graph st d) local in
        ignore (Graph.Builder.add_task b ~flop:task.Emts_ptg.Task.flop);
        t.dag_ctxs.(d).tables.(local))
      global
  in
  Array.iteri
    (fun i v ->
      let d = dag_of t v in
      let off = Sim.dag_offset st d in
      Array.iter
        (fun w ->
          match Hashtbl.find_opt sub_of (w + off) with
          | Some j -> Graph.Builder.add_edge b ~src:i ~dst:j
          | None -> ())
        (Graph.succs (Sim.dag_graph st d) (v - off)))
    global;
  {
    global;
    graph = Graph.Builder.build b;
    tables;
    release = Array.map (Sim.release_of st) global;
    avail = Sim.avail st;
  }

let times_of sub alloc =
  Array.mapi (fun i a -> sub.tables.(i).(a - 1)) alloc

(* Solve the sub-problem with the EA, seeded so elitism pins the result
   at or below the baseline's makespan for the same state. *)
let emts_alloc t ~sub ~baseline ~mu ~lambda ~generations =
  let rng =
    Emts_prng.create
      ~seed:
        (Emts_prng.seed_of_label
           (Printf.sprintf "online/%d/replan/%d" t.cfg.seed t.replans))
      ()
  in
  let k = Array.length sub.global in
  let prev =
    (* the surviving plan's allocation, padded with the baseline for
       tasks that have no entry yet (fresh arrivals) *)
    let planned = Hashtbl.create (2 * k) in
    List.iter
      (fun (e : Schedule.entry) ->
        Hashtbl.replace planned e.Schedule.task (Array.length e.Schedule.procs))
      (Sim.plan t.state);
    Array.mapi
      (fun i v ->
        match Hashtbl.find_opt planned v with
        | Some s -> s
        | None -> baseline.(i))
      sub.global
  in
  let cache =
    Option.map
      (fun capacity -> Emts_pool.Cache.create ~capacity)
      t.cfg.fitness_cache
  in
  (* Certified early rejection, as in [Emts.Algorithm.run_ctx]: the
     cutoff is the worst survivor of the previous generation, which an
     offspring scoring above it could never displace under Plus
     selection; with islands, the worst over their union bounds each
     island's own.  Written by [on_generation] on the main domain, read
     by fitness calls on worker domains. *)
  let cutoff = Atomic.make infinity in
  (* [infinity] on rejection, which {!Emts_sched.Evaluator.last_rejected}
     tells apart.  [Online_list] has no bounded variant, so the
     [delta_fitness = false] path never rejects. *)
  let raw_fitness alloc c =
    if t.cfg.delta_fitness then
      let ev = Emts_pool.Local.get evaluator_slot in
      Emts_sched.Evaluator.makespan ev ~release:sub.release ~avail0:sub.avail
        ~graph:sub.graph ~tables:sub.tables ~procs:t.procs ~alloc ~cutoff:c ()
    else
      Emts_sched.Online_list.makespan ~graph:sub.graph ~times:(times_of sub alloc)
        ~alloc ~procs:t.procs ~release:sub.release ~avail:sub.avail
  in
  let fitness alloc =
    let c = Atomic.get cutoff in
    match cache with
    | None -> raw_fitness alloc c
    | Some cache -> (
      match Emts_pool.Cache.find cache alloc ~cutoff:c with
      | Some v -> v
      | None ->
        let m = raw_fitness alloc c in
        let rejected =
          t.cfg.delta_fitness
          && Emts_sched.Evaluator.last_rejected
               (Emts_pool.Local.get evaluator_slot)
        in
        Emts_pool.Cache.store cache alloc
          (if rejected then Emts_pool.Cache.Rejected_above c
           else Emts_pool.Cache.Known m);
        m)
  in
  let mutate rng ~generation ~total_generations genome =
    Emts.Mutation.mutate rng Emts.Mutation.default ~procs:t.procs ~generation
      ~total_generations genome
  in
  let ea_config =
    Emts_ea.config ~domains:t.cfg.domains ~islands:t.cfg.islands
      ~migration_interval:t.cfg.migration_interval
      ~migration_count:(min t.cfg.migration_count mu)
      ~mu ~lambda ~generations ()
  in
  let result =
    Mutex.protect ea_lock (fun () ->
        Emts_ea.run ?pool:t.pool ~rng ~config:ea_config
          ~on_generation:(fun stats -> Atomic.set cutoff stats.Emts_ea.worst)
          ~seeds:[ baseline; prev; Array.make k 1 ]
          (Emts_ea.mutation_only ~fitness ~mutate))
  in
  result.Emts_ea.best

(* Recompute the plan for the current state.  No-op unless something
   changed since the current plan was computed — [submit] marks new
   arrivals, [advance] marks drift — so re-planning an unchanged state
   never perturbs the schedule (QCheck-tested). *)
let replan t =
  if not t.dirty then false
  else begin
    (let sub = subproblem t in
     if Array.length sub.global > 0 then begin
       let baseline =
         Emts_sched.Online_list.compromise_allotment ~tables:sub.tables
           ~procs:t.procs
       in
       let alloc =
         match t.cfg.replanner with
         | Baseline -> baseline
         | Emts { mu; lambda; generations } ->
           emts_alloc t ~sub ~baseline ~mu ~lambda ~generations
       in
       let sched =
         Emts_sched.Online_list.run ~graph:sub.graph ~times:(times_of sub alloc)
           ~alloc ~procs:t.procs ~release:sub.release ~avail:sub.avail
       in
       let entries =
         Array.to_list
           (Array.map
              (fun (e : Schedule.entry) ->
                { e with Schedule.task = sub.global.(e.Schedule.task) })
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
      Emts_alloc.Common.make_ctx ~model:t.cfg.model ~platform:t.cfg.platform
        ~graph
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
    let tables = ctx.Emts_alloc.Common.tables in
    let dctx =
      {
        tables;
        min_area = Array.fold_left (fun acc row -> acc +. min_area row) 0. tables;
        min_cp =
          Emts_ptg.Analysis.critical_path_length graph
            ~time:(fun v -> min_time tables.(v));
      }
    in
    t.dag_ctxs <- Array.append t.dag_ctxs [| dctx |];
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
  let area =
    Array.fold_left (fun acc d -> acc +. d.min_area) 0. t.dag_ctxs
  in
  let cp =
    Array.to_list t.dag_ctxs
    |> List.mapi (fun d dctx -> Sim.dag_arrival t.state d +. dctx.min_cp)
    |> List.fold_left Float.max 0.
  in
  Float.max (area /. float_of_int t.procs) cp

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
