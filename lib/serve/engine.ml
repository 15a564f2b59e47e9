(* Migrant allocations offered by fleet peers ([migrate] verb), buffered
   per scheduling instance until the next solve of that instance drains
   them as extra seeds.  Keys are the verbatim (ptg, platform, model)
   request fields.  Bounded both per instance
   ([max_migrants_per_instance], newest kept) and across instances
   (flush-on-full). *)
type migrants = { lock : Mutex.t; table : (string, int array list) Hashtbl.t }

let max_migrants_per_instance = 64

let migrants () = { lock = Mutex.create (); table = Hashtbl.create 16 }

let migrant_key ~ptg ~platform ~model =
  String.concat "\x01" [ ptg; platform; model ]

let offer_migrants c ~ptg ~platform ~model vectors =
  match vectors with
  | [] -> 0
  | _ ->
    let key = migrant_key ~ptg ~platform ~model in
    Mutex.lock c.lock;
    let existing = Option.value ~default:[] (Hashtbl.find_opt c.table key) in
    if existing = [] && Hashtbl.length c.table >= max_migrants_per_instance
    then Hashtbl.reset c.table;
    (* Newest first; trim the oldest past the per-instance bound. *)
    let merged = List.rev_append (List.rev vectors) existing in
    let trimmed = List.filteri (fun i _ -> i < max_migrants_per_instance) merged in
    Hashtbl.replace c.table key trimmed;
    let accepted =
      min (List.length vectors) (List.length trimmed)
    in
    Mutex.unlock c.lock;
    accepted

let take_migrants c (req : Protocol.Request.schedule) =
  let key =
    migrant_key ~ptg:req.ptg ~platform:req.platform ~model:req.model
  in
  Mutex.lock c.lock;
  let taken =
    match Hashtbl.find_opt c.table key with
    | None -> []
    | Some vs ->
      Hashtbl.remove c.table key;
      vs
  in
  Mutex.unlock c.lock;
  taken

(* ------------------------------------------------------------------ *)

type t = {
  pool : Emts_pool.t;
  migrants : migrants;
  mutable alive : bool;
}

let create ?(pool_domains = 1) ~migrants () =
  { pool = Emts_pool.create ~domains:pool_domains; migrants; alive = true }

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Emts_pool.shutdown t.pool
  end

type outcome = {
  algorithm : string;
  makespan : float;
  alloc : int array;
  tasks : int;
  procs : int;
  utilization : float;
  platform : string;
  deadline_hit : bool;
  generations_done : int;
  evaluations : int;
}

let ( let* ) = Result.bind

let resolve_platform spec =
  if String.contains spec '\n' then Emts_platform.of_string spec
  else
    match Emts_platform.find_preset spec with
    | Some p -> Ok p
    | None ->
      Error
        (Printf.sprintf
           "unknown platform %S (not a preset; inline platform text must \
            span several lines)"
           spec)

let resolve_model spec =
  if String.contains spec '\n' then
    Result.map
      (fun table -> Emts_model.Empirical.model ~name:"inline" table)
      (Emts_model.Empirical.of_string spec)
  else
    match Emts_model.find_preset spec with
    | Some m -> Ok m
    | None ->
      Error
        (Printf.sprintf
           "unknown model %S (not a preset; inline timing tables must span \
            several lines)"
           spec)

let handle t (req : Protocol.Request.schedule) ~deadline =
  (* Runs inside the worker domain's ambient span context (installed by
     the server's worker loop), so these spans nest under serve.solve
     and carry the request's trace_id. *)
  (* Injection site for a slow or hung solve: a Delay here holds the
     whole request past its deadline, which is what the server's
     watchdog must convert into a typed [deadline_exceeded] reply. *)
  Emts_fault.fire Emts_fault.Site.Solve;
  let* graph =
    Emts_obs.Trace.span "engine.parse" (fun () ->
        Result.map_error (fun m -> "ptg: " ^ m)
          (Emts_ptg.Serial.of_string req.ptg))
  in
  let* () =
    if Emts_ptg.Graph.task_count graph = 0 then Error "ptg: empty graph"
    else Ok ()
  in
  let* platform = resolve_platform req.platform in
  let* model = resolve_model req.model in
  let ctx = Emts_alloc.Common.make_ctx ~model ~platform ~graph in
  let finish ~alloc ~schedule ~label ~makespan ~deadline_hit
      ~generations_done ~evaluations =
    Ok
      {
        algorithm = label;
        makespan;
        alloc;
        tasks = Array.length alloc;
        procs = platform.Emts_platform.processors;
        utilization = 100. *. Emts_sched.Schedule.utilization schedule;
        platform = platform.Emts_platform.name;
        deadline_hit;
        generations_done;
        evaluations;
      }
  in
  let name = String.lowercase_ascii req.algorithm in
  match Emts.Algorithm.preset name with
  | Some config ->
    let config =
      {
        config with
        Emts.Algorithm.time_budget = req.budget_s;
        islands = req.islands;
        migration_interval = req.migration_interval;
        (* The wire field is validated only as >= 0; the EA requires
           count <= mu, so clamp rather than fault the request. *)
        migration_count = min req.migration_count config.Emts.Algorithm.mu;
      }
    in
    let extra_seeds = take_migrants t.migrants req in
    let rng = Emts_prng.create ~seed:req.seed () in
    let result =
      Emts_obs.Trace.span "engine.solve"
        ~args:[ ("algorithm", Emts_obs.Trace.Str name) ]
        (fun () ->
          Emts.Algorithm.run_ctx ?deadline ~pool:t.pool ~rng ~config
            ~extra_seeds ~ctx ())
    in
    let generations_done =
      List.length result.Emts.Algorithm.ea.Emts_ea.history - 1
    in
    let deadline_hit =
      generations_done < config.Emts.Algorithm.generations
      && match deadline with
         | Some d -> Emts_obs.Clock.now () > d
         | None -> false
    in
    finish ~alloc:result.Emts.Algorithm.alloc
      ~schedule:result.Emts.Algorithm.schedule
      ~label:(String.uppercase_ascii name)
      ~makespan:result.Emts.Algorithm.makespan ~deadline_hit ~generations_done
      ~evaluations:result.Emts.Algorithm.ea.Emts_ea.evaluations
  | None -> (
    match Emts_alloc.find name with
    | None -> Error (Printf.sprintf "unknown algorithm %S" req.algorithm)
    | Some h ->
      let alloc, schedule =
        Emts_obs.Trace.span "engine.solve"
          ~args:[ ("algorithm", Emts_obs.Trace.Str h.Emts_alloc.name) ]
          (fun () ->
            let alloc = h.Emts_alloc.allocate ctx in
            (alloc, Emts.Algorithm.schedule_allocation ~ctx alloc))
      in
      finish ~alloc ~schedule ~label:h.Emts_alloc.name
        ~makespan:(Emts_sched.Schedule.makespan schedule)
        ~deadline_hit:false ~generations_done:0 ~evaluations:0)
