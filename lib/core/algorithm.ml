module Common = Emts_alloc.Common

type config = {
  mu : int;
  lambda : int;
  generations : int;
  mutation : Mutation.params;
  heuristics : Emts_alloc.heuristic list;
  domains : int;
  time_budget : float option;
  recombination : (Recombination.kind * float) option;
  selection : Emts_ea.selection;
  adaptive_sigma : bool;
  islands : int;
  migration_interval : int;
  migration_count : int;
}

(* Per-worker-domain evaluator scratch.  Toplevel on purpose: an
   [Emts_pool.Local] key wraps a DLS slot that is never reclaimed, so
   minting one per run would leak.  One process-wide key means every
   worker domain owns exactly one evaluator, reused across generations,
   runs, serving requests and online re-plans (it rebinds itself when
   the instance changes).  An evaluator serves one thread at a time.
   The daemon's reader systhreads share the main domain's slot and
   serialise through [Emts_serve.Online]'s lock; offline solves run
   only on the worker lanes' domains. *)
let evaluator_slot = Emts_pool.Local.key (fun () -> Emts_sched.Evaluator.create ())

let emts5 =
  {
    mu = 5;
    lambda = 25;
    generations = 5;
    mutation = Mutation.default;
    heuristics = Seeding.default_heuristics;
    domains = 1;
    time_budget = None;
    recombination = None;
    selection = Emts_ea.Plus;
    adaptive_sigma = false;
    islands = 1;
    migration_interval = 5;
    migration_count = 1;
  }

let emts10 = { emts5 with mu = 10; lambda = 100; generations = 10 }

(* EMTS1: a deliberately tiny (2+4)-EA over 2 generations.  Not from
   the paper — it exists so serving benchmarks can mix cheap requests
   with expensive ones (skewed EMTS1/EMTS10 workloads exercise queue
   placement policies). *)
let emts1 = { emts5 with mu = 2; lambda = 4; generations = 2 }

let preset name =
  match String.lowercase_ascii name with
  | "emts1" -> Some emts1
  | "emts5" -> Some emts5
  | "emts10" -> Some emts10
  | _ -> None

let with_islands ?(migration_interval = 5) ?(migration_count = 1) islands
    config =
  if islands < 1 then invalid_arg "Emts.with_islands: islands must be >= 1";
  { config with islands; migration_interval; migration_count }

let with_domains domains config =
  if domains < 1 then invalid_arg "Emts.with_domains: domains must be >= 1";
  { config with domains }

type result = {
  alloc : Emts_sched.Allocation.t;
  makespan : float;
  schedule : Emts_sched.Schedule.t;
  seeds : Seeding.seed list;
  ea : Emts_sched.Allocation.t Emts_ea.result;
}

let schedule_allocation ~ctx alloc =
  let times =
    Emts_sched.Allocation.times_of_tables alloc ~tables:ctx.Common.tables
  in
  Emts_sched.List_scheduler.run ?release:ctx.Common.release
    ?avail:ctx.Common.avail ~graph:ctx.Common.graph ~times ~alloc
    ~procs:ctx.Common.procs ()

let allocation_codec : Emts_sched.Allocation.t Emts_ea.codec =
  Emts_ea.int_array_codec

let run_ctx ?rng ?stop ?deadline ?pool ?checkpoint ?(resume = false)
    ?(extra_seeds = []) ~config ~ctx () =
  if Emts_ptg.Graph.task_count ctx.Common.graph = 0 then
    invalid_arg "Emts.run: empty graph";
  if resume && Option.is_none checkpoint then
    invalid_arg "Emts.run: resume requires a checkpoint path";
  let rng = match rng with Some r -> r | None -> Emts_prng.create () in
  Emts_obs.Trace.span "emts.run_ctx"
    ~args:
      [
        ("tasks", Emts_obs.Trace.Int (Emts_ptg.Graph.task_count ctx.Common.graph));
        ("procs", Emts_obs.Trace.Int ctx.Common.procs);
      ]
  @@ fun () ->
  let allocated =
    Emts_obs.Trace.span "emts.seeding" (fun () ->
        Seeding.allocate ~heuristics:config.heuristics ctx)
  in
  let extra_seeds =
    (* Migrant allocations arriving from fleet peers join the seed
       pool.  Keep only well-formed vectors (right length, every entry
       a live processor count): a peer solving a different instance —
       or a hostile one — must degrade to "no extra seeds", never
       crash the run. *)
    let tasks = Emts_ptg.Graph.task_count ctx.Common.graph in
    List.filter
      (fun a ->
        Array.length a = tasks
        && Array.for_all (fun p -> p >= 1 && p <= ctx.Common.procs) a)
      extra_seeds
  in
  (* The per-domain evaluator computes the makespan on preallocated
     scratch, allocating nothing in steady state, and returns [infinity]
     once it proves the makespan exceeds the EA's selection bound (early
     rejection, paper conclusion).  It runs over the covering edges: a
     transitive edge never carries a maximum, and a task's last
     predecessor to pop is always a covering one, so the pop order and
     the makespan are those of the full graph.  A re-planning
     sub-problem's releases and availabilities join the binding. *)
  let fitness ~cutoff alloc =
    Emts_sched.Evaluator.makespan
      (Emts_pool.Local.get evaluator_slot)
      ?release:ctx.Common.release ?avail0:ctx.Common.avail
      ~graph:ctx.Common.cover ~tables:ctx.Common.tables
      ~procs:ctx.Common.procs ~alloc ~cutoff ()
  in
  (* 1/5-rule step-size adaptation (optional): scale both sigmas by a
     factor updated from the fraction of fresh survivors.  Written by
     [on_generation] on the main domain and read by [mutate], hence an
     [Atomic.t]. *)
  let sigma_scale = Atomic.make 1. in
  let mutate rng ~generation ~total_generations genome =
    let params =
      if config.adaptive_sigma then begin
        let scale = Atomic.get sigma_scale in
        {
          config.mutation with
          Mutation.sigma_shrink = config.mutation.Mutation.sigma_shrink *. scale;
          sigma_stretch = config.mutation.Mutation.sigma_stretch *. scale;
        }
      end
      else config.mutation
    in
    Mutation.mutate rng params ~procs:ctx.Common.procs ~generation
      ~total_generations genome
  in
  let recombine =
    match config.recombination with
    | None -> None
    | Some (kind, _) ->
      let levels = Emts_ptg.Graph.precedence_level ctx.Common.graph in
      Some (fun rng a b -> Recombination.apply kind ~levels rng a b)
  in
  let crossover_rate =
    match config.recombination with Some (_, rate) -> rate | None -> 0.
  in
  let ea_config =
    Emts_ea.config ?time_budget:config.time_budget ~domains:config.domains
      ~selection:config.selection ~islands:config.islands
      ~migration_interval:config.migration_interval
      ~migration_count:config.migration_count ~mu:config.mu
      ~lambda:config.lambda ~generations:config.generations ()
  in
  (* [on_generation] is the only channel through which the EA loop
     feeds [sigma_scale]; checkpoint resumption replays the restored
     history through it, so the scale is rebuilt exactly before the
     first resumed generation runs. *)
  let on_generation stats =
    if config.adaptive_sigma && stats.Emts_ea.generation >= 1 then begin
      let success =
        float_of_int stats.Emts_ea.fresh_survivors /. float_of_int config.mu
      in
      let scaled =
        if success > 0.2 then Atomic.get sigma_scale *. 1.22
        else Atomic.get sigma_scale /. 1.22
      in
      Atomic.set sigma_scale (Float.max 0.1 (Float.min 10. scaled))
    end
  in
  let problem = { Emts_ea.fitness; mutate; recombine; crossover_rate } in
  let ea_checkpoint =
    Option.map
      (fun (path, every) -> Emts_ea.checkpoint ~path ~every allocation_codec)
      checkpoint
  in
  (* The EA scores each seed once, exactly; a resumed EA scores none,
     so its seeds are scored here. *)
  let ea, makespans =
    match (checkpoint, ea_checkpoint) with
    | Some (path, _), Some from when resume && Sys.file_exists path -> (
      match
        Emts_ea.resume ?stop ?deadline ?pool ~on_generation ~from
          ~config:ea_config problem
      with
      | Ok r ->
        (r, List.map (fun (_, a) -> fitness ~cutoff:infinity a) allocated)
      | Error msg -> failwith msg)
    | _ ->
      let r =
        Emts_ea.run ?stop ?deadline ?pool ?checkpoint:ea_checkpoint ~rng
          ~config:ea_config ~on_generation
          ~seeds:(List.map snd allocated @ extra_seeds)
          problem
      in
      (r, r.Emts_ea.seed_fitness)
  in
  let schedule =
    Emts_obs.Trace.span "emts.schedule_best" (fun () ->
        schedule_allocation ~ctx ea.Emts_ea.best)
  in
  {
    alloc = ea.Emts_ea.best;
    makespan = ea.Emts_ea.best_fitness;
    schedule;
    seeds = Seeding.scored allocated makespans;
    ea;
  }

let run ?rng ?stop ?deadline ?pool ?checkpoint ?resume ~config ~model
    ~platform ~graph () =
  let ctx = Common.make_ctx ~model ~platform ~graph in
  run_ctx ?rng ?stop ?deadline ?pool ?checkpoint ?resume ~config ~ctx ()
