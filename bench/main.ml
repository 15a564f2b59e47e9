(* Benchmark harness: one Bechamel micro-benchmark per table/figure of
   the paper (timing the code paths that regenerate it), followed by the
   regeneration of every table and figure at a reduced campaign scale.

   Environment:
     BENCH_SCALE  fraction of the paper's instance counts for the table
                  regeneration part (default 0.25, the scale recorded
                  in EXPERIMENTS.md; 1.0 = full campaign).
     BENCH_QUOTA  seconds of sampling per micro-benchmark (default 0.5).
     BENCH_METRICS_JSON  when set to a path, collect the Emts_obs
                  metrics over the whole run and write the JSON snapshot
                  there (counters such as fitness evaluations and
                  ready-queue operations, for regression tracking). *)

open Bechamel
open Toolkit

let getenv_float name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> default)

let scale = getenv_float "BENCH_SCALE" 0.25
let quota = getenv_float "BENCH_QUOTA" 0.5

(* --- fixtures ------------------------------------------------------- *)

let rng = Emts_prng.create ~seed:0xBEC4 ()
let grelon = Emts_platform.grelon
let model2 = Emts_model.synthetic

let irregular100 =
  Emts_daggen.Costs.assign rng
    (Emts_daggen.Random_dag.generate rng
       { n = 100; width = 0.5; regularity = 0.2; density = 0.2; jump = 2 })

let fft95 = Emts_daggen.Costs.assign rng (Emts_daggen.Fft.generate ~points:16)

let ctx_irregular =
  Emts_alloc.Common.make_ctx ~model:model2 ~platform:grelon
    ~graph:irregular100

let ctx_fft =
  Emts_alloc.Common.make_ctx ~model:model2 ~platform:grelon ~graph:fft95

let mcpa_alloc = Emts_alloc.Mcpa.allocate ctx_irregular

let mcpa_times =
  Emts_sched.Allocation.times_of_tables mcpa_alloc
    ~tables:ctx_irregular.Emts_alloc.Common.tables

(* --- micro-benchmarks: one per table/figure ------------------------- *)

(* Figure 1: evaluating the empirical PDGEMM model across the processor
   range (the model-evaluation path behind the curve). *)
let bench_fig1 =
  Test.make ~name:"fig1/pdgemm_curve_eval"
    (Staged.stage (fun () ->
         let acc = ref 0. in
         for p = 2 to 32 do
           acc :=
             !acc
             +. Emts_model.Empirical.lookup Emts_model.Empirical.pdgemm_1024
                  ~procs:p
         done;
         !acc))

(* Figure 3: one draw of the mutation adjustment C. *)
let bench_fig3 =
  let r = Emts_prng.create ~seed:3 () in
  Test.make ~name:"fig3/mutation_draw"
    (Staged.stage (fun () ->
         Emts.Mutation.draw_adjustment r Emts.Mutation.default))

(* Figures 4/5 inner loop: one fitness evaluation = one list schedule of
   a 100-task PTG on the 120-processor cluster (C_map of Section III-E). *)
let bench_fitness =
  Test.make ~name:"fig4_5/fitness_list_schedule"
    (Staged.stage (fun () ->
         Emts_sched.List_scheduler.makespan ~graph:irregular100
           ~times:mcpa_times ~alloc:mcpa_alloc ~procs:120 ()))

(* Figures 4/5 seeding: the heuristic allocators (C_alloc). *)
let bench_allocators =
  List.map
    (fun (h : Emts_alloc.heuristic) ->
      Test.make
        ~name:("fig4_5/alloc_" ^ String.lowercase_ascii h.name)
        (Staged.stage (fun () -> h.allocate ctx_irregular)))
    Emts_alloc.all

(* Runtime table: a complete EMTS5 run on the FFT-95 instance (small
   enough to sample repeatedly). *)
let bench_emts5 =
  let quick_rng = Emts_prng.create ~seed:5 () in
  Test.make ~name:"runtime/emts5_fft95"
    (Staged.stage (fun () ->
         Emts.Algorithm.run_ctx
           ~rng:(Emts_prng.split quick_rng)
           ~config:Emts.Algorithm.emts5 ~ctx:ctx_fft ()))

(* Figure 6: rendering the Gantt pair. *)
let bench_fig6 =
  let sched = Emts.Algorithm.schedule_allocation ~ctx:ctx_irregular mcpa_alloc in
  Test.make ~name:"fig6/gantt_render"
    (Staged.stage (fun () ->
         Emts_sched.Gantt.render_pair ~width:55 ~left:("a", sched)
           ~right:("b", sched) ()))

(* Extensions: the per-table code paths of the ablation/robustness
   drivers. *)
let bench_bounds =
  Test.make ~name:"gaps/lower_bound"
    (Staged.stage (fun () -> Emts_alloc.Bounds.lower_bound ctx_irregular))

let bench_simulator =
  let sched = Emts.Algorithm.schedule_allocation ~ctx:ctx_irregular mcpa_alloc in
  let noise = Emts_simulator.Noise.multiplicative_lognormal ~sigma:0.3 in
  let r = Emts_prng.create ~seed:11 () in
  Test.make ~name:"robustness/simulate_noisy_schedule"
    (Staged.stage (fun () ->
         Emts_simulator.execute ~noise ~rng:r ~graph:irregular100
           ~schedule:sched ()))

let bench_batch =
  let r = Emts_prng.create ~seed:12 () in
  let jobs =
    List.init 50 (fun id ->
        Emts_batch.job ~id
          ~submit:(Emts_prng.float r 1000.)
          ~procs:(Emts_prng.int_in r 8 64)
          ~walltime:(Emts_prng.float_in r 50. 500.)
          ~runtime:(Emts_prng.float_in r 40. 400.))
  in
  Test.make ~name:"cluster/easy_backfilling_50_jobs"
    (Staged.stage (fun () -> Emts_batch.easy_backfilling ~procs:120 jobs))

let bench_recombination =
  let r = Emts_prng.create ~seed:13 () in
  let levels = Emts_ptg.Graph.precedence_level irregular100 in
  let a = Array.make 100 4 and b = Array.make 100 9 in
  Test.make ~name:"ablation/level_aware_crossover"
    (Staged.stage (fun () ->
         Emts.Recombination.apply Emts.Recombination.Level_aware ~levels r a b))

(* Section III-E complexity: list-scheduler cost scaling with V. *)
let scaling_sizes = [| 20; 50; 100; 200 |]

let bench_scaling =
  let fixtures =
    Array.map
      (fun n ->
        let g =
          Emts_daggen.Costs.assign rng
            (Emts_daggen.Random_dag.generate rng
               { n; width = 0.5; regularity = 0.5; density = 0.2; jump = 1 })
        in
        let ctx =
          Emts_alloc.Common.make_ctx ~model:model2 ~platform:grelon ~graph:g
        in
        let alloc = Emts_alloc.Mcpa.allocate ctx in
        let times =
          Emts_sched.Allocation.times_of_tables alloc
            ~tables:ctx.Emts_alloc.Common.tables
        in
        (g, times, alloc))
      scaling_sizes
  in
  Test.make_indexed ~name:"sec3E/list_schedule_V"
    ~args:(Array.to_list (Array.map (fun n -> n) scaling_sizes))
    (fun n ->
      let i =
        match Array.find_index (fun s -> s = n) scaling_sizes with
        | Some i -> i
        | None -> assert false
      in
      Staged.stage (fun () ->
          let g, times, alloc = fixtures.(i) in
          Emts_sched.List_scheduler.makespan ~graph:g ~times ~alloc
            ~procs:120 ()))

let all_benches =
  Test.make_grouped ~name:"emts"
    ([ bench_fig1; bench_fig3; bench_fitness ]
    @ bench_allocators
    @ [
        bench_emts5; bench_fig6; bench_bounds; bench_simulator; bench_batch;
        bench_recombination; bench_scaling;
      ])

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances all_benches in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort compare rows in
  Printf.printf "%-40s %16s %8s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> r | None -> nan
      in
      let pretty =
        if estimate > 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
        else if estimate > 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate > 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      Printf.printf "%-40s %16s %8.4f\n" name pretty r2)
    rows

(* --- table/figure regeneration -------------------------------------- *)

let rule title =
  let line = String.make 72 '-' in
  Printf.printf "\n%s\n%s\n%s\n\n" line title line

let run_tables () =
  let counts = Emts_experiments.Campaign.scaled scale in
  let progress line = Printf.eprintf "[bench] %s\n%!" line in
  rule
    (Printf.sprintf
       "Paper tables & figures at campaign scale %.2f (BENCH_SCALE to change)"
       scale);
  print_string (Emts_experiments.Fig1.render ());
  print_newline ();
  print_string
    (Emts_experiments.Fig3.render ~samples:500_000
       (Emts_prng.create ~seed:3 ()));
  let rng4 = Emts_prng.create ~seed:0x51ED () in
  let groups4, text4 =
    Emts_experiments.Figures.fig4 ~progress ~rng:rng4 ~counts ()
  in
  rule "Figure 4";
  print_string text4;
  let (top, bottom), text5 =
    Emts_experiments.Figures.fig5 ~progress ~rng:rng4 ~counts ()
  in
  rule "Figure 5";
  print_string text5;
  rule "Run-time statistics (Section V)";
  print_string
    (Emts_experiments.Relative.render_runtime
       ~title:"EMTS5 optimisation time per PTG (Model 1)" groups4);
  print_string
    (Emts_experiments.Relative.render_runtime
       ~title:"EMTS5 optimisation time per PTG (Model 2)" top);
  print_string
    (Emts_experiments.Relative.render_runtime
       ~title:"EMTS10 optimisation time per PTG (Model 2)" bottom);
  rule "Figure 6";
  let c =
    Emts_experiments.Fig6.compare_schedules (Emts_prng.create ~seed:6 ())
  in
  print_string (Emts_experiments.Fig6.render ~width:55 c)

(* Extension experiments, at sizes proportional to the table scale. *)
let run_extensions () =
  let rng = Emts_prng.create ~seed:0xAB1A () in
  let instances = max 4 (int_of_float (40. *. scale)) in
  rule "Extensions: ablations (DESIGN.md section 5)";
  print_string
    (Emts_experiments.Ablation.render
       ~title:"Ablation: seeding (EMTS5, Model 2, Grelon, irregular n=100)"
       (Emts_experiments.Ablation.seeding ~instances ~rng ()));
  print_newline ();
  print_string
    (Emts_experiments.Ablation.render
       ~title:"Ablation: recombination operators (same budget)"
       (Emts_experiments.Ablation.crossover ~instances ~rng ()));
  print_newline ();
  print_string
    (Emts_experiments.Ablation.render
       ~title:"Ablation: selection & step-size strategies (plus baseline)"
       (Emts_experiments.Ablation.selection ~instances ~rng ()));
  print_newline ();
  print_string
    (Emts_experiments.Ablation.render
       ~title:"Ablation: early rejection (EMTS10; ratio must be 1.0)"
       (Emts_experiments.Ablation.early_rejection
          ~instances:(max 2 (instances / 2))
          ~rng ()));
  print_newline ();
  print_string
    (Emts_experiments.Ablation.render
       ~title:"Ablation: mapping-step ready-queue priority (MCPA, Chti)"
       (Emts_experiments.Ablation.mapping_priority ~instances ~rng ()));
  print_newline ();
  print_string
    (Emts_experiments.Ablation.render
       ~title:"Ablation: monotonized model (Gunther et al.) vs evolving"
       (Emts_experiments.Ablation.monotonization ~instances ~rng ()));
  rule "Extensions: robustness under duration noise";
  print_string
    (Emts_experiments.Robustness.render
       (Emts_experiments.Robustness.run
          ~instances:(max 3 (instances / 2))
          ~draws:5 ~rng ()));
  rule "Extensions: convergence (anytime curve, EMTS10)";
  print_string
    (Emts_experiments.Convergence.render
       (Emts_experiments.Convergence.run ~instances ~rng ()));
  rule "Extensions: optimality gaps vs lower bounds";
  let gap_counts = Emts_experiments.Campaign.scaled (Float.max 0.01 (scale /. 2.)) in
  print_string
    (Emts_experiments.Gaps.render
       (Emts_experiments.Gaps.run
          ~progress:(fun line -> Printf.eprintf "[bench] %s\n%!" line)
          ~rng ~counts:gap_counts ()));
  rule "Extensions: EMTS gain vs PTG size";
  print_string
    (Emts_experiments.Sweep.render
       (Emts_experiments.Sweep.run
          ~progress:(fun line -> Printf.eprintf "[bench] %s\n%!" line)
          ~rng:(Emts_prng.create ())
          ()));
  rule "Extensions: walltime accuracy at the batch level";
  print_string
    (Emts_experiments.Walltime.render
       (Emts_experiments.Walltime.run ~jobs:25 ~rng:(Emts_prng.create ()) ()))

(* Fitness-cache & worker-pool speedup on an EMTS10-sized run: same
   seed, same instance, cache off vs on (and the pool on top).  The
   makespans must agree exactly — the cache and the pool are
   outcome-preserving — while the cached run skips every duplicate
   allocation vector.  Metrics are force-enabled here so the
   ea.cache.* and pool.* counters land in BENCH_METRICS_JSON. *)
let run_cache_speedup () =
  rule "Fitness cache & pool (EMTS10, irregular n=100, Grelon, Model 2)";
  Emts_obs.Metrics.set_enabled true;
  let counter name =
    Option.value ~default:0 (Emts_obs.Metrics.find_counter name)
  in
  let timed config =
    let rng = Emts_prng.create ~seed:0xCAC4E () in
    let t0 = Emts_obs.Clock.now () in
    let r = Emts.Algorithm.run_ctx ~rng ~config ~ctx:ctx_irregular () in
    (Emts_obs.Clock.elapsed ~since:t0, r.Emts.Algorithm.makespan)
  in
  let t_off, m_off = timed Emts.Algorithm.emts10 in
  let h0 = counter "ea.cache.hits" and mi0 = counter "ea.cache.misses" in
  let t_on, m_on =
    timed (Emts.Algorithm.with_fitness_cache 65536 Emts.Algorithm.emts10)
  in
  let hits = counter "ea.cache.hits" - h0
  and misses = counter "ea.cache.misses" - mi0 in
  let rate = 100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  let pool_domains = Emts_ea.default_domains () in
  let t_pool, m_pool =
    timed
      Emts.Algorithm.(
        emts10 |> with_domains pool_domains |> with_fitness_cache 65536)
  in
  Printf.printf "cache off            %8.3f s   makespan %.6g\n" t_off m_off;
  Printf.printf
    "cache on             %8.3f s   makespan %.6g   hit rate %.1f%% (%d/%d)\n"
    t_on m_on rate hits (hits + misses);
  Printf.printf
    "cache on, %d domains %8.3f s   makespan %.6g   pool chunks %d steals %d\n"
    pool_domains t_pool m_pool (counter "pool.chunks") (counter "pool.steals");
  Printf.printf "identical makespans  %b\n" (m_off = m_on && m_off = m_pool)

(* Checkpointing cost on an EMTS10-sized run: a snapshot serialises
   the population and fsyncs one checksummed line, so the overhead
   should be well under 2% at --checkpoint-every 10 (one write per ten
   generations) and still small at every generation.  The result must
   be byte-identical with and without snapshots — checkpointing is an
   observer.  The ea.checkpoint_writes counter lands in
   BENCH_METRICS_JSON. *)
let run_checkpoint_overhead () =
  rule "EA checkpoint overhead (EMTS10, irregular n=100, Grelon, Model 2)";
  Emts_obs.Metrics.set_enabled true;
  let counter name =
    Option.value ~default:0 (Emts_obs.Metrics.find_counter name)
  in
  let path = Filename.temp_file "emts_bench" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let timed checkpoint =
    let rng = Emts_prng.create ~seed:0xC4EC1 () in
    let t0 = Emts_obs.Clock.now () in
    let r =
      Emts.Algorithm.run_ctx ~rng ?checkpoint ~config:Emts.Algorithm.emts10
        ~ctx:ctx_irregular ()
    in
    (Emts_obs.Clock.elapsed ~since:t0, r.Emts.Algorithm.makespan)
  in
  let t_off, m_off = timed None in
  let w0 = counter "ea.checkpoint_writes" in
  let t_10, m_10 = timed (Some (path, 10)) in
  let writes_10 = counter "ea.checkpoint_writes" - w0 in
  let t_1, m_1 = timed (Some (path, 1)) in
  let writes_1 = counter "ea.checkpoint_writes" - w0 - writes_10 in
  let overhead t = 100. *. (t -. t_off) /. t_off in
  Printf.printf "no checkpoint        %8.3f s   makespan %.6g\n" t_off m_off;
  Printf.printf
    "every 10 generations %8.3f s   makespan %.6g   overhead %+.2f%% (%d \
     writes)\n"
    t_10 m_10 (overhead t_10) writes_10;
  Printf.printf
    "every generation     %8.3f s   makespan %.6g   overhead %+.2f%% (%d \
     writes)\n"
    t_1 m_1 (overhead t_1) writes_1;
  Printf.printf "identical makespans  %b\n" (m_off = m_10 && m_off = m_1)

(* Allocation & GC profile of the fitness-evaluation hot path: the
   before-number for the allocation-reduction roadmap item.  One EMTS5
   run on the reference instance with the GC profiler on; the per-eval
   allocated-bytes histogram (gc.eval.alloc_bytes) and the minor/major
   collection counters land in the registry and hence in
   BENCH_METRICS_JSON. *)
let run_gc_profile () =
  rule "GC/alloc profile per fitness evaluation (EMTS5, irregular n=100)";
  Emts_obs.Metrics.set_enabled true;
  Emts_obs.Gcprof.set_enabled true;
  let counter name =
    Option.value ~default:0 (Emts_obs.Metrics.find_counter name)
  in
  let minor0 = counter "gc.eval.minor_collections"
  and major0 = counter "gc.eval.major_collections" in
  let rng = Emts_prng.create ~seed:0x6CA11 () in
  let r =
    Emts.Algorithm.run_ctx ~rng ~config:Emts.Algorithm.emts5
      ~ctx:ctx_irregular ()
  in
  Emts_obs.Gcprof.set_enabled false;
  let minors = counter "gc.eval.minor_collections" - minor0
  and majors = counter "gc.eval.major_collections" - major0 in
  match
    Emts_obs.Metrics.histogram_value
      (Emts_obs.Metrics.histogram "gc.eval.alloc_bytes")
  with
  | None -> print_string "no evaluations were measured\n"
  | Some d ->
    Printf.printf "evaluations measured %8d   (EA reports %d)\n"
      d.Emts_obs.Metrics.count r.Emts.Algorithm.ea.Emts_ea.evaluations;
    Printf.printf
      "alloc per evaluation %8.0f B mean   %8.0f B min   %10.0f B max   \
       (total %.1f MB)\n"
      d.Emts_obs.Metrics.mean d.Emts_obs.Metrics.min d.Emts_obs.Metrics.max
      (d.Emts_obs.Metrics.total /. 1e6);
    Printf.printf
      "collections          %8d minor   %6d major   (%.1f evals per minor)\n"
      minors majors
      (float_of_int d.Emts_obs.Metrics.count /. float_of_int (max 1 minors))

(* Allocation-regression gate (BENCH_ONLY=alloc-gate): a short EMTS run
   with the GC profiler on; the median per-evaluation allocation must
   stay within BENCH_ALLOC_BUDGET bytes.  The profiler counts words, so
   the median is exact: 16 B, the boxed float an evaluation returns.
   CI sets 64 B, the budget of the evaluator's allocation test; any
   per-step boxing regression exceeds it.  The default stays 512 B.
   Exits non-zero on exceed, so CI can gate on it without running the
   full bench. *)
let run_alloc_gate () =
  let budget = getenv_float "BENCH_ALLOC_BUDGET" 512. in
  rule
    (Printf.sprintf
       "Allocation gate: median bytes per fitness evaluation <= %.0f" budget);
  Emts_obs.Metrics.set_enabled true;
  Emts_obs.Gcprof.set_enabled true;
  let rng = Emts_prng.create ~seed:0x6A7E () in
  let r =
    Emts.Algorithm.run_ctx ~rng ~config:Emts.Algorithm.emts5 ~ctx:ctx_irregular
      ()
  in
  Emts_obs.Gcprof.set_enabled false;
  let h = Emts_obs.Metrics.histogram "gc.eval.alloc_bytes" in
  match (Emts_obs.Metrics.histogram_value h, Emts_obs.Metrics.quantile h 0.5) with
  | None, _ | _, None ->
    print_string "no evaluations were measured\n";
    exit 1
  | Some d, Some median ->
    Printf.printf "evaluations measured %8d   (EA reports %d)\n"
      d.Emts_obs.Metrics.count r.Emts.Algorithm.ea.Emts_ea.evaluations;
    Printf.printf
      "alloc per evaluation %8.0f B median   %8.0f B mean   %10.0f B max\n"
      median d.Emts_obs.Metrics.mean d.Emts_obs.Metrics.max;
    if median > budget then begin
      Printf.printf "FAIL: median %.0f B exceeds budget %.0f B\n" median budget;
      exit 1
    end
    else Printf.printf "OK: within budget (%.0f B <= %.0f B)\n" median budget

(* Fleet: the router front-end over one vs two single-worker backends
   on time-budgeted anytime solves — each request returns its
   best-so-far at the budget, so a second backend answers a second
   request inside the same wall-clock window even on one core — plus
   work stealing vs the FIFO baseline on a skewed emts1/emts10 mix,
   and the island-model EA against the plain one on the same
   instance.  Returns the JSON section [run_serving] embeds in
   BENCH_SERVE.json. *)
let run_fleet () =
  let module Protocol = Emts_serve.Protocol in
  let module Server = Emts_serve.Server in
  let module Endpoint = Emts_serve.Endpoint in
  let module Engine = Emts_serve.Engine in
  let module Router = Emts_router.Router in
  let module RB = Emts_router.Backend in
  let module Json = Emts_resilience.Json in
  rule "Fleet: 1 vs 2 backends, stealing vs FIFO, islands vs plain";
  (* Big enough that the wall-clock budget dwarfs the CPU-bound parts
     of a request (parse, seeding, final schedule): those serialize on
     a single core, the budget windows overlap. *)
  let budget_s = getenv_float "BENCH_FLEET_BUDGET" 1.3 in
  let pid = Unix.getpid () in
  let await path =
    let deadline = Emts_obs.Clock.now () +. 10. in
    while (not (Sys.file_exists path)) && Emts_obs.Clock.now () < deadline do
      Thread.delay 0.01
    done
  in
  let start_server ~sock ~workers ~steal =
    if Sys.file_exists sock then Sys.remove sock;
    let stop = Atomic.make false in
    let t =
      Thread.create
        (fun () ->
          ignore
            (Server.run
               ~stop:(fun () -> Atomic.get stop)
               {
                 Server.default with
                 Server.socket = Some sock;
                 workers;
                 queue_capacity = 128;
                 steal;
               }))
        ()
    in
    await sock;
    fun () ->
      Atomic.set stop true;
      Thread.join t;
      if Sys.file_exists sock then Sys.remove sock
  in
  let start_router ~sock ~backends =
    if Sys.file_exists sock then Sys.remove sock;
    let stop = Atomic.make false in
    let t =
      Thread.create
        (fun () ->
          ignore
            (Router.run
               ~stop:(fun () -> Atomic.get stop)
               {
                 Router.default with
                 Router.socket = Some sock;
                 backends = List.map (fun p -> Endpoint.Unix_socket p) backends;
                 probe_interval = 0.5;
                 probe_timeout = 2.0;
               }))
        ()
    in
    await sock;
    fun () ->
      Atomic.set stop true;
      Thread.join t;
      if Sys.file_exists sock then Sys.remove sock
  in
  let connect path =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let graph_of seed n =
    let rng = Emts_prng.create ~seed () in
    Emts_daggen.Costs.assign rng
      (Emts_daggen.Random_dag.generate rng
         { n; width = 0.5; regularity = 0.2; density = 0.2; jump = 2 })
  in
  (* --- leg 1: throughput, 1 vs 2 backends ------------------------- *)
  (* Eight distinct instances whose rendezvous homes split 4/4 across
     the two-backend fleet (checked against the actual socket names, so
     the sharded run genuinely uses both backends). *)
  let b2socks =
    List.init 2 (fun i -> Printf.sprintf "/tmp/emts-bench-f2-b%d-%d.sock" i pid)
  in
  let handles = List.map (fun p -> RB.create (Endpoint.Unix_socket p)) b2socks in
  let home_of ptg =
    RB.name
      (List.hd
         (Router.Private.rank_backends handles
            (Router.Private.instance_key ~ptg ~platform:"grelon"
               ~model:"model2")))
  in
  let first_home = RB.name (List.hd handles) in
  let ptgs =
    let want = 4 in
    let rec go seed on0 on1 =
      if List.length on0 >= want && List.length on1 >= want then
        (* interleave so round-robin clients alternate backends *)
        List.concat_map
          (fun (a, b) -> [ a; b ])
          (List.combine
             (List.filteri (fun i _ -> i < want) on0)
             (List.filteri (fun i _ -> i < want) on1))
      else
        (* n is picked so emts10's natural solve time comfortably
           exceeds the budget: the budget, not the instance, bounds
           each request, which is what makes a second backend pay off
           even on one core. *)
        let ptg = Emts_ptg.Serial.to_string (graph_of seed 160) in
        if home_of ptg = first_home then go (seed + 1) (ptg :: on0) on1
        else go (seed + 1) on0 (ptg :: on1)
    in
    go 0x100 [] []
  in
  let schedule_payload ?islands ?budget k ptg ~algorithm =
    Protocol.Request.to_string
      (Protocol.Request.Schedule
         {
           id = Json.Str (string_of_int k);
           req =
             Protocol.Request.schedule ~platform:"grelon" ~model:"model2"
               ~algorithm ~seed:0x5E4E ?budget_s:budget ?islands ~ptg ();
         })
  in
  let requests = 8 and client_threads = 4 in
  (* islands=32 multiplies the EA's per-generation evaluation work, so
     the anytime budget — not the preset's generation count — is what
     ends each solve. *)
  let payloads =
    Array.init requests (fun k ->
        schedule_payload k ~islands:32
          (List.nth ptgs (k mod List.length ptgs))
          ~algorithm:"emts10" ~budget:budget_s)
  in
  let run_load sock =
    let next = Atomic.make 0 in
    let t0 = Emts_obs.Clock.now () in
    let worker () =
      let fd = connect sock in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < requests then begin
              Protocol.write_frame fd payloads.(i);
              (match
                 Protocol.read_frame fd ~max_size:Protocol.default_max_frame
               with
              | Ok reply -> (
                match Protocol.Response.of_string reply with
                | Ok (Protocol.Response.Schedule_result _) -> ()
                | Ok _ | Error _ -> failwith "bench fleet: unexpected reply")
              | Error e ->
                failwith
                  ("bench fleet: " ^ Protocol.frame_error_to_string e));
              loop ()
            end
          in
          loop ())
    in
    let ts = List.init client_threads (fun _ -> Thread.create worker ()) in
    List.iter Thread.join ts;
    Emts_obs.Clock.elapsed ~since:t0
  in
  let fleet_wall n_backends =
    let bsocks =
      if n_backends = 2 then b2socks
      else
        List.init n_backends (fun i ->
            Printf.sprintf "/tmp/emts-bench-f%d-b%d-%d.sock" n_backends i pid)
    in
    let rsock = Printf.sprintf "/tmp/emts-bench-r%d-%d.sock" n_backends pid in
    let stops =
      List.map (fun sock -> start_server ~sock ~workers:1 ~steal:true) bsocks
    in
    let rstop = start_router ~sock:rsock ~backends:bsocks in
    Fun.protect
      ~finally:(fun () ->
        rstop ();
        List.iter (fun f -> f ()) stops)
      (fun () -> run_load rsock)
  in
  let wall1 = fleet_wall 1 in
  let wall2 = fleet_wall 2 in
  let rps w = float_of_int requests /. w in
  let ratio = rps wall2 /. Float.max (rps wall1) 1e-9 in
  Printf.printf "1 backend            %8.3f s wall   %6.2f req/s\n" wall1
    (rps wall1);
  Printf.printf "2 backends           %8.3f s wall   %6.2f req/s\n" wall2
    (rps wall2);
  Printf.printf "throughput ratio     %8.2fx\n" ratio;
  (* --- leg 2: stealing vs FIFO on a skewed mix -------------------- *)
  (* One backend, two worker lanes, a pipelined burst mixing long
     emts10 solves with quick emts1 ones.  Both placements are
     work-conserving, so on this machine the claim under test is "no
     worse, same answers, steals actually fire": round-robin admission
     parks every heavy job in one lane, and the sibling lane takes
     them over once its own runs dry.  Three bursts per mode, median
     of the per-burst worst-case (p99 of 12 = max); steal count read
     through the stats verb before and after. *)
  let heavy_ptg = Emts_ptg.Serial.to_string (graph_of 0x200 100) in
  let cheap_ptg = Emts_ptg.Serial.to_string (graph_of 0x201 60) in
  let burst =
    Array.init 12 (fun k ->
        if k mod 4 = 0 then schedule_payload k heavy_ptg ~algorithm:"emts10"
        else schedule_payload k cheap_ptg ~algorithm:"emts1")
  in
  let steals_of fd =
    Protocol.write_frame fd
      (Protocol.Request.to_string (Protocol.Request.Stats { id = Json.Null }));
    match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
    | Error e -> failwith ("bench steal: " ^ Protocol.frame_error_to_string e)
    | Ok reply -> (
      match Protocol.Response.of_string reply with
      | Ok (Protocol.Response.Stats { stats; _ }) -> (
        match
          Option.bind (Json.member "counters" stats)
            (Json.member "serve.steals_total")
        with
        | Some (Json.Num n) -> int_of_float n
        | _ -> 0)
      | Ok _ | Error _ -> failwith "bench steal: unexpected stats reply")
  in
  let one_burst fd =
    let t0 = Emts_obs.Clock.now () in
    Array.iter (fun p -> Protocol.write_frame fd p) burst;
    let completions = Array.make (Array.length burst) 0. in
    let makespans = Hashtbl.create 16 in
    for _ = 1 to Array.length burst do
      match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
      | Error e -> failwith ("bench steal: " ^ Protocol.frame_error_to_string e)
      | Ok reply -> (
        match Protocol.Response.of_string reply with
        | Ok (Protocol.Response.Schedule_result r) ->
          let k =
            match r.Protocol.Response.id with
            | Json.Str s -> int_of_string s
            | _ -> failwith "bench steal: unexpected id"
          in
          completions.(k) <- Emts_obs.Clock.elapsed ~since:t0;
          Hashtbl.replace makespans k r.Protocol.Response.makespan
        | Ok _ | Error _ -> failwith "bench steal: unexpected reply")
    done;
    let sorted = Array.copy completions in
    Array.sort compare sorted;
    (sorted.(Array.length sorted - 1), makespans)
  in
  let burst_reps = 9 in
  let steal_leg steal =
    (* Reset heap state so major-GC pauses inherited from the previous
       leg don't land on one mode's bursts. *)
    Gc.compact ();
    let sock = Printf.sprintf "/tmp/emts-bench-s%b-%d.sock" steal pid in
    let stop = start_server ~sock ~workers:2 ~steal in
    Fun.protect
      ~finally:(fun () -> stop ())
      (fun () ->
        let fd = connect sock in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let before = steals_of fd in
            let runs = List.init burst_reps (fun _ -> one_burst fd) in
            let steals = steals_of fd - before in
            let p99s = List.sort compare (List.map fst runs) in
            let median = List.nth p99s (burst_reps / 2) in
            (median, snd (List.hd runs), steals)))
  in
  (* Discarded warm-up: the first leg in the process otherwise pays
     heap growth and code warm-up that would bias the comparison. *)
  ignore (steal_leg true);
  let steal_p99, steal_makespans, steals = steal_leg true in
  let fifo_p99, fifo_makespans, _ = steal_leg false in
  let makespans_identical =
    Hashtbl.fold
      (fun k m acc -> acc && Hashtbl.find_opt fifo_makespans k = Some m)
      steal_makespans true
  in
  Printf.printf "skewed burst p99     %8.3f s stealing   %8.3f s fifo\n"
    steal_p99 fifo_p99;
  Printf.printf "steals               %d\n" steals;
  Printf.printf "identical answers    %b\n" makespans_identical;
  (* --- leg 3: islands vs plain on the same instance --------------- *)
  let island_req islands =
    Protocol.Request.schedule ~platform:"grelon" ~model:"model2"
      ~algorithm:"emts5" ~seed:0x15A ~islands ~migration_interval:2
      ~migration_count:1
      ~ptg:(Emts_ptg.Serial.to_string (graph_of 0x300 60))
      ()
  in
  let caches = Engine.caches ~capacity:0 ~max_instances:2 in
  let engine = Engine.create ~pool_domains:1 ~caches () in
  let solve islands =
    let t0 = Emts_obs.Clock.now () in
    match Engine.handle engine (island_req islands) ~deadline:None with
    | Ok o ->
      ( Emts_obs.Clock.elapsed ~since:t0,
        o.Engine.makespan,
        o.Engine.evaluations )
    | Error m -> failwith ("bench islands: " ^ m)
  in
  let plain_s, plain_mk, plain_evals =
    Fun.protect
      ~finally:(fun () -> ())
      (fun () -> solve 1)
  in
  let island_s, island_mk, island_evals =
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () -> solve 4)
  in
  Printf.printf "plain emts5          %8.3f s   makespan %.4f   %d evals\n"
    plain_s plain_mk plain_evals;
  Printf.printf "4 islands            %8.3f s   makespan %.4f   %d evals\n"
    island_s island_mk island_evals;
  Json.Obj
    [
      ("budget_s", Json.float budget_s);
      ("requests", Json.Num (float_of_int requests));
      ("client_threads", Json.Num (float_of_int client_threads));
      ("instances", Json.Num (float_of_int (List.length ptgs)));
      ( "backends_1",
        Json.Obj
          [ ("wall_s", Json.float wall1); ("throughput_rps", Json.float (rps wall1)) ] );
      ( "backends_2",
        Json.Obj
          [ ("wall_s", Json.float wall2); ("throughput_rps", Json.float (rps wall2)) ] );
      ("throughput_ratio", Json.float ratio);
      ( "steal",
        Json.Obj
          [
            ("burst", Json.Num (float_of_int (Array.length burst)));
            ("bursts", Json.Num (float_of_int burst_reps));
            ("steals", Json.Num (float_of_int steals));
            ("steal_p99_s", Json.float steal_p99);
            ("fifo_p99_s", Json.float fifo_p99);
            ( "p99_ratio",
              Json.float (steal_p99 /. Float.max fifo_p99 1e-9) );
            ("makespans_identical", Json.Bool makespans_identical);
          ] );
      ( "islands",
        Json.Obj
          [
            ("algorithm", Json.Str "emts5");
            ("islands", Json.Num 4.);
            ("plain_s", Json.float plain_s);
            ("island_s", Json.float island_s);
            ("plain_makespan", Json.float plain_mk);
            ("island_makespan", Json.float island_mk);
            ("plain_evaluations", Json.Num (float_of_int plain_evals));
            ("island_evaluations", Json.Num (float_of_int island_evals));
            ( "island_not_worse",
              Json.Bool (island_mk <= plain_mk +. 1e-9) );
          ] );
    ]

(* Online: a 3-DAG arrival trace through the online controller, once
   with the Perotin–Sun baseline and once with EMTS re-planning, per
   speedup model.  Both sessions see the same arrival times (the gap
   derives from the first DAG's single-processor critical path, never
   from a solver's plan), so their realised makespans share the same
   clairvoyant lower-bound denominator.  Returns the JSON section
   [run_serving] embeds in BENCH_SERVE.json plus a pass flag: ratios
   must be finite and >= 1 (the bound is certified), and EMTS
   re-planning must not lose to the baseline on this corpus. *)
let run_online () =
  let module Online = Emts_serve.Online in
  let module Json = Emts_resilience.Json in
  rule "Online: Perotin-Sun baseline vs EMTS re-planning (3-DAG arrivals)";
  let corpus_rng = Emts_prng.create ~seed:0x0417E () in
  let corpus =
    [
      Emts_daggen.Costs.assign corpus_rng
        (Emts_daggen.Random_dag.generate corpus_rng
           { n = 40; width = 0.5; regularity = 0.3; density = 0.3; jump = 2 });
      Emts_daggen.Costs.assign corpus_rng
        (Emts_daggen.Fft.generate ~points:8);
      Emts_daggen.Costs.assign corpus_rng
        (Emts_daggen.Random_dag.generate corpus_rng
           { n = 30; width = 0.7; regularity = 0.5; density = 0.2; jump = 1 });
    ]
  in
  let dags = List.length corpus in
  let run_model (mname, model) =
    let first = List.hd corpus in
    let ctx0 =
      Emts_alloc.Common.make_ctx ~model ~platform:grelon ~graph:first
    in
    let gap =
      0.5
      *. Emts_ptg.Analysis.critical_path_length first ~time:(fun v ->
             ctx0.Emts_alloc.Common.tables.(v).(0))
    in
    let run replanner =
      let cfg =
        Online.config ~replanner ~seed:0x0417E ~platform:grelon ~model ()
      in
      let t = Online.create cfg in
      List.iteri
        (fun k graph ->
          match Online.submit t ~graph ~at:(float_of_int k *. gap) with
          | Ok _ -> ()
          | Error m -> failwith ("bench online submit: " ^ m))
        corpus;
      (match Online.advance t with
      | Ok r when r.Online.complete -> ()
      | Ok _ -> failwith "bench online: trace left incomplete"
      | Error m -> failwith ("bench online advance: " ^ m));
      let m =
        match Online.makespan t with
        | Some m -> m
        | None -> failwith "bench online: complete session has no makespan"
      in
      (m, Online.clairvoyant_bound t, Online.replans t)
    in
    let base_m, base_bound, base_replans = run Online.Baseline in
    let emts_m, emts_bound, emts_replans =
      run (Online.Emts { mu = 5; lambda = 25; generations = 5 })
    in
    let ratio m bound = if bound > 0. then m /. bound else 1. in
    let rb = ratio base_m base_bound and re = ratio emts_m emts_bound in
    Printf.printf
      "%-8s baseline ratio %8.4f   emts ratio %8.4f   (bound %10.4f, \
       replans %d/%d)\n"
      mname rb re base_bound base_replans emts_replans;
    let ok =
      Float.is_finite rb && Float.is_finite re
      && rb >= 1. -. 1e-9
      && re >= 1. -. 1e-9
      && re <= rb +. 1e-9
      (* the bound is a property of the workload, not of the solver *)
      && base_bound = emts_bound
    in
    let doc =
      Json.Obj
        [
          ("model", Json.Str mname);
          ("baseline_ratio", Json.float rb);
          ("emts_ratio", Json.float re);
          ("bound", Json.float base_bound);
          ("baseline_replans", Json.Num (float_of_int base_replans));
          ("emts_replans", Json.Num (float_of_int emts_replans));
          ("emts_not_worse", Json.Bool (re <= rb +. 1e-9));
        ]
    in
    (doc, ok)
  in
  let rows =
    List.map run_model [ ("amdahl", Emts_model.amdahl); ("model2", model2) ]
  in
  let all_ok = List.for_all snd rows in
  Printf.printf "ratios finite and >= 1, emts <= baseline: %b\n" all_ok;
  let doc =
    Json.Obj
      [
        ("dags", Json.Num (float_of_int dags));
        ("replanner", Json.Str "emts5");
        ("models", Json.List (List.map fst rows));
      ]
  in
  (doc, all_ok)

(* Serving: the daemon's warm path (persistent engine — worker pool
   and cross-request fitness cache survive between requests) against
   the cold one-shot path (fresh engine per request, no shared cache —
   what a CLI invocation pays, minus process startup).  Same instance,
   same seed: the makespans must agree exactly, only the latency may
   differ.  The report lands in BENCH_SERVE.json (override with
   BENCH_SERVE_JSON; empty string disables). *)
let run_serving () =
  rule "Serving: warm engine vs cold one-shot (EMTS5, irregular n=100)";
  let module Engine = Emts_serve.Engine in
  let module Json = Emts_resilience.Json in
  let req =
    Emts_serve.Protocol.Request.schedule ~platform:"grelon" ~model:"model2"
      ~algorithm:"emts5" ~seed:0x5E4E
      ~ptg:(Emts_ptg.Serial.to_string irregular100)
      ()
  in
  let pool_domains = Emts_ea.default_domains () in
  let handle engine =
    let t0 = Emts_obs.Clock.now () in
    match Engine.handle engine req ~deadline:None with
    | Ok o -> (Emts_obs.Clock.elapsed ~since:t0, o.Engine.makespan)
    | Error m -> failwith ("bench serving: " ^ m)
  in
  let warm_n = 12 and cold_n = 4 in
  let caches = Engine.caches ~capacity:65536 ~max_instances:4 in
  let warm_engine = Engine.create ~pool_domains ~caches () in
  (* One untimed request warms the pool and fills the fitness cache. *)
  let _, warm_makespan = handle warm_engine in
  let warm =
    List.init warm_n (fun _ -> handle warm_engine) |> List.map fst
  in
  Engine.shutdown warm_engine;
  let cold_makespan = ref warm_makespan in
  let cold =
    List.init cold_n (fun _ ->
        let caches = Engine.caches ~capacity:0 ~max_instances:1 in
        let engine = Engine.create ~pool_domains ~caches () in
        let dt, m =
          Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () ->
              handle engine)
        in
        cold_makespan := m;
        dt)
  in
  let stats label xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let mean = Array.fold_left ( +. ) 0. a /. float_of_int n in
    let median = a.(n / 2) in
    Printf.printf "%-22s %8.4f s median   %8.4f s mean   (%d requests)\n"
      label median mean n;
    (median, mean)
  in
  let warm_median, warm_mean = stats "warm engine" warm in
  let cold_median, cold_mean = stats "cold one-shot" cold in
  Printf.printf "warm/cold median     %8.2fx\n"
    (cold_median /. Float.max warm_median 1e-9);
  Printf.printf "identical makespans  %b\n" (warm_makespan = !cold_makespan);
  (* The same warm path under a seeded chaos plan: engine-level faults
     (slow solves, crashed evaluations) are absorbed the way the daemon
     absorbs them — teardown and recreate — and the instance must come
     out computing the same makespan.  Networked sites in the generated
     plan (socket stalls, durable writes) have no call sites at this
     level and stay dormant. *)
  let fault_n = 8 in
  let plan = Emts_fault.Plan.generate ~seed:0xC4A05 () in
  let chaos_engine = ref (Engine.create ~pool_domains ~caches ()) in
  let crashes = ref 0 in
  Emts_fault.arm plan;
  let storm_t0 = Emts_obs.Clock.now () in
  for _ = 1 to fault_n do
    match Engine.handle !chaos_engine req ~deadline:None with
    | Ok _ | Error _ -> ()
    | exception _ ->
      incr crashes;
      (try Engine.shutdown !chaos_engine with _ -> ());
      chaos_engine := Engine.create ~pool_domains ~caches ()
  done;
  let storm_s = Emts_obs.Clock.elapsed ~since:storm_t0 in
  let eval_fires = Emts_fault.hits Emts_fault.Site.Worker_eval in
  Emts_fault.disarm ();
  let _, post_makespan =
    Fun.protect
      ~finally:(fun () -> Engine.shutdown !chaos_engine)
      (fun () -> handle !chaos_engine)
  in
  Printf.printf "chaos storm          %d requests, %d crashes absorbed, %.4f s\n"
    fault_n !crashes storm_s;
  Printf.printf "post-storm identical %b\n" (post_makespan = warm_makespan);
  let fleet_doc = run_fleet () in
  let online_doc, online_ok = run_online () in
  if not online_ok then begin
    Printf.eprintf "[bench] online ratios violated the clairvoyant gate\n%!";
    exit 1
  end;
  match Sys.getenv_opt "BENCH_SERVE_JSON" with
  | Some "" -> ()
  | serve_json ->
    let path = Option.value ~default:"BENCH_SERVE.json" serve_json in
    let doc =
      Json.Obj
        [
          ("instance", Json.Str "irregular/n=100/grelon/model2");
          ("algorithm", Json.Str "emts5");
          ("pool_domains", Json.Num (float_of_int pool_domains));
          ( "warm",
            Json.Obj
              [
                ("requests", Json.Num (float_of_int warm_n));
                ("median_s", Json.float warm_median);
                ("mean_s", Json.float warm_mean);
              ] );
          ( "cold",
            Json.Obj
              [
                ("requests", Json.Num (float_of_int cold_n));
                ("median_s", Json.float cold_median);
                ("mean_s", Json.float cold_mean);
              ] );
          ( "speedup_median",
            Json.float (cold_median /. Float.max warm_median 1e-9) );
          ("makespans_identical", Json.Bool (warm_makespan = !cold_makespan));
          ( "faults",
            Json.Obj
              [
                ( "plan_seed",
                  Json.Num (float_of_int plan.Emts_fault.Plan.seed) );
                ( "plan_events",
                  Json.Num
                    (float_of_int (List.length plan.Emts_fault.Plan.events))
                );
                ("requests", Json.Num (float_of_int fault_n));
                ("crashes_absorbed", Json.Num (float_of_int !crashes));
                ("eval_fires", Json.Num (float_of_int eval_fires));
                ("storm_s", Json.float storm_s);
                ( "post_storm_identical",
                  Json.Bool (post_makespan = warm_makespan) );
              ] );
          ("fleet", fleet_doc);
          ("online", online_doc);
        ]
    in
    Emts_resilience.write_string ~path (Json.to_string doc);
    Printf.eprintf "[bench] wrote %s\n%!" path

let write_metrics_json metrics_json =
  match metrics_json with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Emts_obs.Metrics.to_json ()));
    Printf.eprintf "[bench] wrote %s\n%!" path

let () =
  let metrics_json = Sys.getenv_opt "BENCH_METRICS_JSON" in
  if metrics_json <> None then Emts_obs.Metrics.set_enabled true;
  match Sys.getenv_opt "BENCH_ONLY" with
  | Some "alloc-gate" ->
    (* [run_alloc_gate] exits on failure, so write the snapshot first
       via at_exit to keep it available for triage either way *)
    at_exit (fun () -> write_metrics_json metrics_json);
    run_alloc_gate ()
  | Some "serve" ->
    run_serving ();
    write_metrics_json metrics_json
  | Some "fleet" ->
    ignore (run_fleet () : Emts_resilience.Json.t);
    write_metrics_json metrics_json
  | Some "online" ->
    let _doc, ok = run_online () in
    write_metrics_json metrics_json;
    if not ok then begin
      Printf.eprintf "[bench] online ratios violated the clairvoyant gate\n%!";
      exit 1
    end
  | Some other when other <> "" ->
    Printf.eprintf
      "unknown BENCH_ONLY=%s (known: alloc-gate, serve, fleet, online)\n"
      other;
    exit 2
  | _ ->
    rule "Micro-benchmarks (Bechamel): one per table/figure code path";
    run_benchmarks ();
    run_tables ();
    run_extensions ();
    run_cache_speedup ();
    run_checkpoint_overhead ();
    run_gc_profile ();
    run_serving ();
    write_metrics_json metrics_json
