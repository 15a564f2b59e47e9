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

(* Online: a 3-DAG arrival trace through the online controller, once
   with the Perotin–Sun baseline and once with EMTS re-planning, per
   speedup model.  Both sessions see the same arrival times (the gap
   derives from the first DAG's single-processor critical path, never
   from a solver's plan), so their realised makespans share the same
   clairvoyant lower-bound denominator.  Returns the pass flag: ratios
   must be finite and >= 1 (the bound is certified), EMTS re-planning
   must not lose to the baseline on this corpus, and each completed
   session must hold no DAG's re-planning context.  A session prints
   the words it keeps beyond its cluster state. *)
let run_online () =
  let module Online = Emts_serve.Online in
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
      let words =
        Obj.reachable_words (Obj.repr t)
        - Obj.reachable_words (Obj.repr (Online.state t))
      in
      Printf.printf
        "%-8s %-16s complete: %d words beyond the cluster state, %d DAG \
         contexts held\n"
        mname (Online.replanner_name replanner) words (Online.open_dags t);
      (m, Online.clairvoyant_bound t, Online.replans t, Online.open_dags t = 0)
    in
    let base_m, base_bound, base_replans, base_closed = run Online.Baseline in
    let emts_m, emts_bound, emts_replans, emts_closed =
      run (Online.Emts { mu = 5; lambda = 25; generations = 5 })
    in
    let ratio m bound = if bound > 0. then m /. bound else 1. in
    let rb = ratio base_m base_bound and re = ratio emts_m emts_bound in
    Printf.printf
      "%-8s baseline ratio %8.4f   emts ratio %8.4f   (bound %10.4f, \
       replans %d/%d)\n"
      mname rb re base_bound base_replans emts_replans;
    Float.is_finite rb && Float.is_finite re
    && rb >= 1. -. 1e-9
    && re >= 1. -. 1e-9
    && re <= rb +. 1e-9
    (* the bound is a property of the workload, not of the solver *)
    && base_bound = emts_bound,
    base_closed && emts_closed
  in
  let results =
    List.map run_model [ ("amdahl", Emts_model.amdahl); ("model2", model2) ]
  in
  let ratios_ok = List.for_all fst results
  and closed = List.for_all snd results in
  Printf.printf "ratios finite and >= 1, emts <= baseline: %b\n" ratios_ok;
  Printf.printf "completed sessions hold no DAG context: %b\n" closed;
  ratios_ok && closed

let write_metrics_json metrics_json =
  match metrics_json with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Emts_obs.Metrics.to_json ()));
    Printf.eprintf "[bench] wrote %s\n%!" path

(* The online leg's gate, shared by [BENCH_ONLY=online] and the full
   run: the metrics snapshot is written either way. *)
let gate_online ~metrics_json =
  let ok = run_online () in
  write_metrics_json metrics_json;
  if not ok then begin
    Printf.eprintf
      "[bench] online sessions violated the clairvoyant or context gate\n%!";
    exit 1
  end

let () =
  let metrics_json = Sys.getenv_opt "BENCH_METRICS_JSON" in
  if metrics_json <> None then Emts_obs.Metrics.set_enabled true;
  match Sys.getenv_opt "BENCH_ONLY" with
  | Some "alloc-gate" ->
    (* [run_alloc_gate] exits on failure, so write the snapshot first
       via at_exit to keep it available for triage either way *)
    at_exit (fun () -> write_metrics_json metrics_json);
    run_alloc_gate ()
  | Some "online" -> gate_online ~metrics_json
  | Some other when other <> "" ->
    Printf.eprintf "unknown BENCH_ONLY=%s (known: alloc-gate, online)\n" other;
    exit 2
  | _ ->
    rule "Micro-benchmarks (Bechamel): one per table/figure code path";
    run_benchmarks ();
    run_tables ();
    run_extensions ();
    run_checkpoint_overhead ();
    run_gc_profile ();
    gate_online ~metrics_json
