module Common = Emts_alloc.Common

(* Early-reject effectiveness (paper conclusion): hits are offspring cut
   off mid-schedule by [makespan_bounded], misses completed schedules.
   The hit rate quantifies how much mapping work the optimisation saves;
   bumped from worker domains, hence counters (atomic). *)
let m_early_reject_hits = Emts_obs.Metrics.counter "ea.early_reject.hits"
let m_early_reject_misses = Emts_obs.Metrics.counter "ea.early_reject.misses"

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
  early_reject : bool;
  fitness_cache : int option;
  delta_fitness : bool;
  islands : int;
  migration_interval : int;
  migration_count : int;
}

(* Per-worker-domain delta evaluator scratch.  Toplevel on purpose: an
   [Emts_pool.Local] key wraps a DLS slot that is never reclaimed, so
   minting one per run would leak.  One process-wide key means every
   worker domain owns exactly one evaluator, reused across generations,
   runs and serving requests (it rebinds itself when the instance
   changes). *)
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
    early_reject = true;
    fitness_cache = None;
    delta_fitness = true;
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

let with_islands ?(migration_interval = 5) ?(migration_count = 1) islands
    config =
  if islands < 1 then invalid_arg "Emts.with_islands: islands must be >= 1";
  { config with islands; migration_interval; migration_count }

let with_domains domains config =
  if domains < 1 then invalid_arg "Emts.with_domains: domains must be >= 1";
  { config with domains }

let with_fitness_cache capacity config =
  if capacity < 0 then
    invalid_arg "Emts.with_fitness_cache: capacity must be >= 0";
  { config with fitness_cache = (if capacity = 0 then None else Some capacity) }

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
  Emts_sched.List_scheduler.run ~graph:ctx.Common.graph ~times ~alloc
    ~procs:ctx.Common.procs

let allocation_codec : Emts_sched.Allocation.t Emts_ea.codec =
  Emts_ea.int_array_codec

let run_ctx ?rng ?stop ?deadline ?cache ?pool ?checkpoint ?(resume = false)
    ?(extra_seeds = []) ~config ~ctx () =
  if Emts_ptg.Graph.task_count ctx.Common.graph = 0 then
    invalid_arg "Emts.run: empty graph";
  if resume && Option.is_none checkpoint then
    invalid_arg "Emts.run: resume requires a checkpoint path";
  if config.selection = Emts_ea.Comma && config.early_reject then
    invalid_arg
      "Emts.run: early_reject requires Plus selection (rejected offspring \
       could survive under Comma)";
  let rng = match rng with Some r -> r | None -> Emts_prng.create () in
  Emts_obs.Trace.span "emts.run_ctx"
    ~args:
      [
        ("tasks", Emts_obs.Trace.Int (Emts_ptg.Graph.task_count ctx.Common.graph));
        ("procs", Emts_obs.Trace.Int ctx.Common.procs);
      ]
  @@ fun () ->
  let seeds =
    Emts_obs.Trace.span "emts.seeding" (fun () ->
        Seeding.collect ~heuristics:config.heuristics ctx)
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
  (* Early rejection (paper conclusion): the cutoff is the WORST
     fitness among the previous generation's survivors — an offspring
     scoring strictly above it can never enter the population (the mu
     parents themselves outrank it, and ties favour the older
     individual), so rejection cannot change any outcome.  The cutoff is
     refreshed between generations only, so parallel evaluation stays
     deterministic.  Written by [on_generation] on the main domain and
     read by fitness calls on worker domains, hence an [Atomic.t]. *)
  let cutoff = Atomic.make infinity in
  (* Evaluate one allocation under [cutoff_now], returning the fitness
     together with the cache entry that records it.  A rejection stores
     the rejecting cutoff, not a bare [infinity]: the rejection is only
     reusable while the cutoff stays at or below it. *)
  (* Delta path: the per-domain evaluator computes the identical float
     (property-tested + fuzz-checked) on preallocated scratch, allocating
     nothing in steady state.  Rejection comes back as [infinity] plus a
     flag instead of an option, so this path builds no intermediate
     values at all. *)
  let delta_makespan alloc cutoff_now =
    let ev = Emts_pool.Local.get evaluator_slot in
    Emts_sched.Evaluator.makespan ev ~graph:ctx.Common.graph
      ~tables:ctx.Common.tables ~procs:ctx.Common.procs ~alloc
      ~cutoff:(if config.early_reject then cutoff_now else infinity)
      ()
  in
  let delta_rejected () =
    Emts_sched.Evaluator.last_rejected (Emts_pool.Local.get evaluator_slot)
  in
  let evaluate alloc cutoff_now =
    if config.delta_fitness then begin
      let m = delta_makespan alloc cutoff_now in
      if delta_rejected () then begin
        Emts_obs.Metrics.incr m_early_reject_hits;
        (infinity, Emts_pool.Cache.Rejected_above cutoff_now)
      end
      else begin
        if config.early_reject then Emts_obs.Metrics.incr m_early_reject_misses;
        (m, Emts_pool.Cache.Known m)
      end
    end
    else
    let times =
      Emts_sched.Allocation.times_of_tables alloc ~tables:ctx.Common.tables
    in
    if config.early_reject then
      match
        Emts_sched.List_scheduler.makespan_bounded ~graph:ctx.Common.graph
          ~times ~alloc ~procs:ctx.Common.procs ~cutoff:cutoff_now
      with
      | Some m ->
        Emts_obs.Metrics.incr m_early_reject_misses;
        (m, Emts_pool.Cache.Known m)
      | None ->
        Emts_obs.Metrics.incr m_early_reject_hits;
        (infinity, Emts_pool.Cache.Rejected_above cutoff_now)
    else
      let m =
        Emts_sched.List_scheduler.makespan ~graph:ctx.Common.graph ~times
          ~alloc ~procs:ctx.Common.procs
      in
      (m, Emts_pool.Cache.Known m)
  in
  let cache =
    (* An externally supplied cache (the serving layer shares one per
       scheduling instance across requests) takes precedence over the
       per-run capacity setting. *)
    match cache with
    | Some _ -> cache
    | None ->
      Option.map
        (fun capacity -> Emts_pool.Cache.create ~capacity)
        config.fitness_cache
  in
  (* [Seeding.collect] just list-scheduled every heuristic allocation,
     and the EA immediately re-evaluates those same vectors for its
     initial population: seed the cache so the recomputation is a hit.
     Identical scheduler, identical inputs, so the cached float is the
     one [evaluate] would produce. *)
  (match cache with
  | None -> ()
  | Some cache ->
    List.iter
      (fun (s : Seeding.seed) ->
        Emts_pool.Cache.store cache s.alloc (Emts_pool.Cache.Known s.makespan))
      seeds);
  let fitness alloc =
    let c = Atomic.get cutoff in
    match cache with
    | None ->
      if config.delta_fitness then begin
        (* Hot path: no cache, no tuple, no option — zero steady-state
           allocation end to end. *)
        let m = delta_makespan alloc c in
        if config.early_reject then
          Emts_obs.Metrics.incr
            (if delta_rejected () then m_early_reject_hits
             else m_early_reject_misses);
        m
      end
      else fst (evaluate alloc c)
    | Some cache -> (
      match Emts_pool.Cache.find cache alloc ~cutoff:c with
      | Some v -> v
      | None ->
        let v, entry = evaluate alloc c in
        Emts_pool.Cache.store cache alloc entry;
        v)
  in
  (* 1/5-rule step-size adaptation (optional): scale both sigmas by a
     factor updated from the fraction of fresh survivors.  Same
     cross-domain pattern as [cutoff]: main domain writes, [mutate]
     reads. *)
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
     feeds the adaptive state above; checkpoint resumption replays the
     restored history through it, so [cutoff] and [sigma_scale] are
     rebuilt exactly before the first resumed generation runs. *)
  let on_generation stats =
    Atomic.set cutoff stats.Emts_ea.worst;
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
  let ea =
    let run_fresh () =
      Emts_ea.run ?stop ?deadline ?pool ?checkpoint:ea_checkpoint ~rng
        ~config:ea_config ~on_generation
        ~seeds:(List.map (fun (s : Seeding.seed) -> s.alloc) seeds
                @ extra_seeds)
        problem
    in
    match (checkpoint, ea_checkpoint) with
    | Some (path, _), Some from when resume && Sys.file_exists path -> (
      match
        Emts_ea.resume ?stop ?deadline ?pool ~on_generation ~from
          ~config:ea_config problem
      with
      | Ok r -> r
      | Error msg -> failwith msg)
    | _ -> run_fresh ()
  in
  let schedule =
    Emts_obs.Trace.span "emts.schedule_best" (fun () ->
        schedule_allocation ~ctx ea.Emts_ea.best)
  in
  {
    alloc = ea.Emts_ea.best;
    makespan = ea.Emts_ea.best_fitness;
    schedule;
    seeds;
    ea;
  }

let run ?rng ?stop ?deadline ?cache ?pool ?checkpoint ?resume ~config ~model
    ~platform ~graph () =
  let ctx = Common.make_ctx ~model ~platform ~graph in
  run_ctx ?rng ?stop ?deadline ?cache ?pool ?checkpoint ?resume ~config ~ctx ()
