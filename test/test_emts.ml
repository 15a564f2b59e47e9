(* Integration tests for the EMTS algorithm itself: seeding, elitism,
   determinism, schedule validity, presets. *)

module Alg = Emts.Algorithm
module Seeding = Emts.Seeding

let chti = Emts_platform.chti

let small_graph () =
  let rng = Emts_prng.create ~seed:17 () in
  Testutil.costed_daggen rng ~n:25

let quick_config = { Alg.emts5 with Alg.generations = 3; lambda = 10; mu = 3 }

let run ?(seed = 1) ?(config = quick_config) ?(model = Emts_model.synthetic)
    ?(graph = small_graph ()) () =
  Alg.run
    ~rng:(Emts_prng.create ~seed ())
    ~config ~model ~platform:chti ~graph ()

let test_presets () =
  Alcotest.(check int) "emts5 mu" 5 Alg.emts5.Alg.mu;
  Alcotest.(check int) "emts5 lambda" 25 Alg.emts5.Alg.lambda;
  Alcotest.(check int) "emts5 generations" 5 Alg.emts5.Alg.generations;
  Alcotest.(check int) "emts10 mu" 10 Alg.emts10.Alg.mu;
  Alcotest.(check int) "emts10 lambda" 100 Alg.emts10.Alg.lambda;
  Alcotest.(check int) "emts10 generations" 10 Alg.emts10.Alg.generations;
  Alcotest.(check int) "four seed heuristics" 4
    (List.length Alg.emts5.Alg.heuristics)

let test_with_domains () =
  let c = Alg.with_domains 4 Alg.emts5 in
  Alcotest.(check int) "domains set" 4 c.Alg.domains;
  Alcotest.(check bool) "invalid rejected" true
    (try
       ignore (Alg.with_domains 0 Alg.emts5);
       false
     with Invalid_argument _ -> true)

let test_seeding_defaults () =
  let names =
    List.map (fun (h : Emts_alloc.heuristic) -> h.name)
      Seeding.default_heuristics
  in
  Alcotest.(check (list string)) "paper seeds + baseline"
    [ "MCPA"; "HCPA"; "DeltaCP"; "SEQ" ] names

let test_seeding_collect () =
  let graph = small_graph () in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
      ~graph
  in
  let seeds = Seeding.collect ~heuristics:Seeding.default_heuristics ctx in
  Alcotest.(check int) "one seed per heuristic" 4 (List.length seeds);
  List.iter
    (fun (s : Seeding.seed) ->
      Alcotest.(check bool) "positive makespan" true (s.makespan > 0.);
      Alcotest.(check bool) "valid allocation" true
        (Emts_sched.Allocation.validate s.alloc ~graph ~procs:20 = Ok ()))
    seeds;
  let best = Seeding.best seeds in
  List.iter
    (fun (s : Seeding.seed) ->
      Alcotest.(check bool) "best is minimal" true
        (best.makespan <= s.makespan))
    seeds

let test_result_not_worse_than_seeds () =
  let r = run () in
  List.iter
    (fun (s : Seeding.seed) ->
      Alcotest.(check bool)
        ("not worse than " ^ s.heuristic)
        true
        (r.Alg.makespan <= s.makespan +. 1e-9))
    r.Alg.seeds

let test_schedule_matches_result () =
  let graph = small_graph () in
  let r = run ~graph () in
  Alcotest.(check (float 1e-9)) "schedule realises the makespan"
    r.Alg.makespan
    (Emts_sched.Schedule.makespan r.Alg.schedule);
  Alcotest.(check bool) "schedule validates" true
    (Emts_sched.Schedule.validate ~alloc:r.Alg.alloc r.Alg.schedule ~graph
    = Ok ());
  Alcotest.(check bool) "allocation is valid" true
    (Emts_sched.Allocation.validate r.Alg.alloc ~graph ~procs:20 = Ok ())

let test_determinism () =
  let graph = small_graph () in
  let r1 = run ~seed:9 ~graph () and r2 = run ~seed:9 ~graph () in
  Alcotest.(check (float 0.)) "same makespan" r1.Alg.makespan r2.Alg.makespan;
  Alcotest.(check (array int)) "same allocation" r1.Alg.alloc r2.Alg.alloc

let test_run_vs_run_ctx () =
  let graph = small_graph () in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
      ~graph
  in
  let r1 = run ~seed:4 ~graph () in
  let r2 =
    Alg.run_ctx ~rng:(Emts_prng.create ~seed:4 ()) ~config:quick_config ~ctx ()
  in
  Alcotest.(check (array int)) "identical" r1.Alg.alloc r2.Alg.alloc

let test_empty_graph_rejected () =
  let graph = Emts_ptg.Graph.Builder.build (Emts_ptg.Graph.Builder.create ()) in
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (run ~graph ());
       false
     with Invalid_argument _ -> true)

let test_ea_trace_budget () =
  let r = run () in
  (* 4 seeds + 3 generations x 10 offspring *)
  Alcotest.(check int) "evaluations" (4 + 30) r.Alg.ea.Emts_ea.evaluations;
  Alcotest.(check int) "history length" 4
    (List.length r.Alg.ea.Emts_ea.history)

let test_improves_under_model2_often () =
  (* On a larger cluster with the non-monotone model, EMTS should strictly
     improve over the best heuristic on a clear majority of instances
     (Figure 5's qualitative claim). *)
  let rng = Emts_prng.create ~seed:23 () in
  let improved = ref 0 and n = 10 in
  for _ = 1 to n do
    let graph =
      Testutil.costed_daggen rng ~n:40 ~width:0.6 ~jump:2
    in
    let r =
      Alg.run ~rng:(Emts_prng.split rng) ~config:quick_config
        ~model:Emts_model.synthetic ~platform:Emts_platform.grelon ~graph ()
    in
    let best_seed = (Seeding.best r.Alg.seeds).Seeding.makespan in
    if r.Alg.makespan < best_seed -. 1e-9 then incr improved
  done;
  Alcotest.(check bool)
    (Printf.sprintf "improved on %d/%d" !improved n)
    true
    (!improved >= n / 2)

let test_time_budget_respected () =
  let config = { Alg.emts10 with Alg.time_budget = Some 1e-6 } in
  let r = run ~config () in
  (* the budget cuts the run after at most one generation *)
  Alcotest.(check bool) "stopped early" true
    (List.length r.Alg.ea.Emts_ea.history <= 2)

let test_early_reject_identical_results () =
  (* Rejection is a pure optimisation: the EMTS10 preset, whose Plus
     selection rejects, returns what the run without any cutoff
     returns. *)
  let graph = small_graph () in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
      ~graph
  in
  let config = Alg.emts10 in
  let r = Alg.run_ctx ~rng:(Emts_prng.create ~seed:77 ()) ~config ~ctx () in
  let reference =
    Emts_check.Reference.emts ~rng:(Emts_prng.create ~seed:77 ()) ~config ~ctx
  in
  Alcotest.(check int64) "same makespan bits"
    (Int64.bits_of_float reference.Emts_ea.best_fitness)
    (Int64.bits_of_float r.Alg.makespan);
  Alcotest.(check (array int)) "same allocation" reference.Emts_ea.best
    r.Alg.alloc;
  Alcotest.(check int) "same evaluations" reference.Emts_ea.evaluations
    r.Alg.ea.Emts_ea.evaluations

let test_recombination_configs_run () =
  let graph = small_graph () in
  List.iter
    (fun kind ->
      let config =
        { quick_config with Alg.recombination = Some (kind, 0.5) }
      in
      let r = run ~seed:3 ~config ~graph () in
      List.iter
        (fun (s : Seeding.seed) ->
          Alcotest.(check bool)
            (Emts.Recombination.kind_to_string kind ^ " still elitist")
            true
            (r.Alg.makespan <= s.makespan +. 1e-9))
        r.Alg.seeds;
      Alcotest.(check bool) "valid schedule" true
        (Emts_sched.Schedule.validate ~alloc:r.Alg.alloc r.Alg.schedule ~graph
        = Ok ()))
    [
      Emts.Recombination.Uniform;
      Emts.Recombination.One_point;
      Emts.Recombination.Level_aware;
    ]

let test_adaptive_sigma_runs () =
  let graph = small_graph () in
  let config = { quick_config with Alg.adaptive_sigma = true } in
  let r = run ~seed:21 ~config ~graph () in
  List.iter
    (fun (s : Seeding.seed) ->
      Alcotest.(check bool) "still elitist" true
        (r.Alg.makespan <= s.makespan +. 1e-9))
    r.Alg.seeds;
  Alcotest.(check bool) "valid schedule" true
    (Emts_sched.Schedule.validate ~alloc:r.Alg.alloc r.Alg.schedule ~graph
    = Ok ());
  (* adaptation changes the search trajectory *)
  let r_fixed = run ~seed:21 ~graph () in
  Alcotest.(check bool) "distinct trajectory (usually)" true
    (r.Alg.makespan <> r_fixed.Alg.makespan
    || r.Alg.alloc = r_fixed.Alg.alloc)

let test_island_matrix () =
  (* Fleet tentpole: an island run is a pure function of
     (seed, islands, interval, count) under any number of worker
     domains, and [with_islands 1] is exactly the plain algorithm. *)
  let graph = small_graph () in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
      ~graph
  in
  let base =
    Alg.with_islands ~migration_interval:2 ~migration_count:1 2 quick_config
  in
  let reference =
    Alg.run_ctx ~rng:(Emts_prng.create ~seed:66 ()) ~config:base ~ctx ()
  in
  List.iter
    (fun (label, tune) ->
      let r =
        Alg.run_ctx
          ~rng:(Emts_prng.create ~seed:66 ())
          ~config:(tune base) ~ctx ()
      in
      Alcotest.(check (float 0.)) (label ^ ": makespan") reference.Alg.makespan
        r.Alg.makespan;
      Alcotest.(check (array int)) (label ^ ": allocation") reference.Alg.alloc
        r.Alg.alloc;
      Alcotest.(check bool) (label ^ ": bit-identical history") true
        (r.Alg.ea.Emts_ea.history = reference.Alg.ea.Emts_ea.history))
    [
      ("plain", Fun.id);
      ("domains", Alg.with_domains Testutil.test_domains);
      ("4 domains", Alg.with_domains 4);
    ];
  (* islands = 1 never splits the caller's stream, so it reproduces the
     non-island algorithm exactly. *)
  let plain =
    Alg.run_ctx ~rng:(Emts_prng.create ~seed:66 ()) ~config:quick_config ~ctx ()
  in
  let one =
    Alg.run_ctx
      ~rng:(Emts_prng.create ~seed:66 ())
      ~config:(Alg.with_islands 1 quick_config)
      ~ctx ()
  in
  Alcotest.(check (array int)) "islands=1 = non-island" plain.Alg.alloc
    one.Alg.alloc;
  Alcotest.(check bool) "islands=1 bit-identical history" true
    (one.Alg.ea.Emts_ea.history = plain.Alg.ea.Emts_ea.history)

let test_with_islands_validation () =
  Alcotest.(check bool) "islands 0 rejected" true
    (try
       ignore (Alg.with_islands 0 quick_config);
       false
     with Invalid_argument _ -> true);
  let c = Alg.with_islands ~migration_interval:4 ~migration_count:2 3 Alg.emts5 in
  Alcotest.(check int) "islands set" 3 c.Alg.islands;
  Alcotest.(check int) "interval set" 4 c.Alg.migration_interval;
  Alcotest.(check int) "count set" 2 c.Alg.migration_count

let test_extra_seeds () =
  (* Migrant injection (the fleet's gossip path): a well-formed extra
     seed joins the seed ranking — elitism then guarantees the result is
     never worse than it — while malformed vectors are dropped without
     touching the trajectory. *)
  let graph = small_graph () in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
      ~graph
  in
  let without =
    Alg.run_ctx ~rng:(Emts_prng.create ~seed:8 ()) ~config:quick_config ~ctx ()
  in
  let seeded =
    Alg.run_ctx
      ~rng:(Emts_prng.create ~seed:9 ())
      ~config:quick_config ~ctx ~extra_seeds:[ without.Alg.alloc ] ()
  in
  Alcotest.(check bool) "never worse than the migrant" true
    (seeded.Alg.makespan <= without.Alg.makespan +. 1e-9);
  (* wrong length, and entries outside [1, procs]: both dropped *)
  let dropped =
    Alg.run_ctx
      ~rng:(Emts_prng.create ~seed:8 ())
      ~config:quick_config ~ctx
      ~extra_seeds:
        [ [| 1 |]; Array.make (Emts_ptg.Graph.task_count graph) 0 ]
      ()
  in
  Alcotest.(check (array int)) "malformed migrants are no-ops"
    without.Alg.alloc dropped.Alg.alloc;
  Alcotest.(check int) "no extra evaluations"
    without.Alg.ea.Emts_ea.evaluations dropped.Alg.ea.Emts_ea.evaluations

(* Online tentpole: the re-planning controller is a pure function of
   (seed, arrival trace) under any number of worker domains, which must
   never move a single commitment bit; islands > 1 is a different EA
   search trajectory by design, so it gets its own single-domain
   reference against which the same domains are checked. *)
module Online = Emts_serve.Online
module Sim_online = Emts_simulator.Online

let online_committed_eq (a : Sim_online.committed) (b : Sim_online.committed) =
  a.Sim_online.task = b.Sim_online.task
  && a.Sim_online.dag = b.Sim_online.dag
  && Int64.bits_of_float a.Sim_online.start
     = Int64.bits_of_float b.Sim_online.start
  && Int64.bits_of_float a.Sim_online.finish
     = Int64.bits_of_float b.Sim_online.finish
  && a.Sim_online.procs = b.Sim_online.procs

let online_plan_entry_eq (a : Emts_sched.Schedule.entry)
    (b : Emts_sched.Schedule.entry) =
  a.Emts_sched.Schedule.task = b.Emts_sched.Schedule.task
  && Int64.bits_of_float a.Emts_sched.Schedule.start
     = Int64.bits_of_float b.Emts_sched.Schedule.start
  && Int64.bits_of_float a.Emts_sched.Schedule.finish
     = Int64.bits_of_float b.Emts_sched.Schedule.finish
  && a.Emts_sched.Schedule.procs = b.Emts_sched.Schedule.procs

let test_online_matrix () =
  let g1 = small_graph () in
  let g2 =
    let rng = Emts_prng.create ~seed:18 () in
    Testutil.costed_daggen rng ~n:12
  in
  let planned_horizon t =
    List.fold_left
      (fun acc (e : Emts_sched.Schedule.entry) ->
        Float.max acc e.Emts_sched.Schedule.finish)
      0. (Online.plan t)
  in
  let run_trace ?domains ?islands () =
    let cfg =
      Online.config
        ~replanner:(Online.Emts { mu = 2; lambda = 6; generations = 2 })
        ~seed:77 ?domains ?islands
        ~platform:chti ~model:Emts_model.synthetic ()
    in
    let t = Online.create cfg in
    let submit graph at =
      match Online.submit t ~graph ~at with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("online submit: " ^ m)
    in
    submit g1 0.;
    (* the second DAG lands mid-flight of the first plan, forcing a
       re-plan against committed work *)
    submit g2 (0.4 *. planned_horizon t);
    (match Online.advance t with
    | Ok r when r.Online.complete -> ()
    | Ok _ -> Alcotest.fail "online trace did not complete"
    | Error m -> Alcotest.fail ("online advance: " ^ m));
    Online.commitments t
  in
  let check_same label reference log =
    Alcotest.(check int) (label ^ ": commitment count")
      (List.length reference) (List.length log);
    Alcotest.(check bool) (label ^ ": bit-identical commitments") true
      (List.for_all2 online_committed_eq reference log)
  in
  let reference = run_trace () in
  Alcotest.(check bool) "trace commits both DAGs" true
    (List.length reference
    = Emts_ptg.Graph.task_count g1 + Emts_ptg.Graph.task_count g2);
  List.iter
    (fun (label, log) -> check_same label reference (log ()))
    [
      ("domains", fun () -> run_trace ~domains:Testutil.test_domains ());
      ("4 domains", fun () -> run_trace ~domains:4 ());
    ];
  let reference2 = run_trace ~islands:2 () in
  List.iter
    (fun (label, log) -> check_same label reference2 (log ()))
    [
      ( "islands=2 domains",
        fun () -> run_trace ~islands:2 ~domains:Testutil.test_domains () );
      ("islands=2 4 domains", fun () -> run_trace ~islands:2 ~domains:4 ());
    ]

let test_checkpoint_resume_matrix () =
  (* Crash-safety tentpole: interrupting an EMTS run at any generation
     and resuming from its checkpoint reproduces the uninterrupted run
     bit for bit — same allocation, makespan, history and evaluation
     count — with worker domains and under Comma selection.  The stop
     closure counts polls: the EA polls once per generation boundary,
     so [calls > k] halts after exactly [k] generations. *)
  let graph = small_graph () in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
      ~graph
  in
  let generations = 4 in
  let tunes =
    [
      ("plain", Fun.id);
      ("domains", Alg.with_domains Testutil.test_domains);
      ( "4 domains+comma",
        fun c -> { (Alg.with_domains 4 c) with Alg.selection = Emts_ea.Comma }
      );
    ]
  in
  List.iter
    (fun (label, tune) ->
      let config = tune { quick_config with Alg.generations = generations } in
      let reference =
        Alg.run_ctx ~rng:(Emts_prng.create ~seed:55 ()) ~config ~ctx ()
      in
      List.iter
        (fun k ->
          let path = Filename.temp_file "emts_alg" ".ckpt" in
          Fun.protect
            ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
            (fun () ->
              let calls = ref 0 in
              let partial =
                Alg.run_ctx
                  ~rng:(Emts_prng.create ~seed:55 ())
                  ~stop:(fun () ->
                    incr calls;
                    !calls > k)
                  ~checkpoint:(path, 1) ~config ~ctx ()
              in
              Alcotest.(check int)
                (Printf.sprintf "%s k=%d: interrupted after k generations"
                   label k)
                (k + 1)
                (List.length partial.Alg.ea.Emts_ea.history);
              let r =
                Alg.run_ctx
                  ~rng:(Emts_prng.create ~seed:55 ())
                  ~checkpoint:(path, 1) ~resume:true ~config ~ctx ()
              in
              let tag msg = Printf.sprintf "%s k=%d: %s" label k msg in
              Alcotest.(check (float 0.))
                (tag "makespan") reference.Alg.makespan r.Alg.makespan;
              Alcotest.(check (array int))
                (tag "allocation") reference.Alg.alloc r.Alg.alloc;
              Alcotest.(check int)
                (tag "evaluations") reference.Alg.ea.Emts_ea.evaluations
                r.Alg.ea.Emts_ea.evaluations;
              Alcotest.(check bool)
                (tag "bit-identical history") true
                (r.Alg.ea.Emts_ea.history
                = reference.Alg.ea.Emts_ea.history)))
        [ 0; 2; generations ])
    tunes

let test_resume_without_checkpoint_is_fresh () =
  (* --resume with a checkpoint path that does not exist (yet) falls
     back to a fresh run rather than failing: that is what makes
     "always pass --resume" an idempotent crash-recovery loop. *)
  let graph = small_graph () in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
      ~graph
  in
  let path = Filename.temp_file "emts_alg" ".ckpt" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let reference =
        Alg.run_ctx
          ~rng:(Emts_prng.create ~seed:8 ())
          ~config:quick_config ~ctx ()
      in
      let r =
        Alg.run_ctx
          ~rng:(Emts_prng.create ~seed:8 ())
          ~checkpoint:(path, 2) ~resume:true ~config:quick_config ~ctx ()
      in
      Alcotest.(check (array int)) "fresh run" reference.Alg.alloc r.Alg.alloc;
      Alcotest.(check bool) "checkpoint written for next time" true
        (Sys.file_exists path))

(* Early rejection is exact: [Alg.run] returns what the reference run
   without any cutoff returns — same best allocation and fitness, same
   history and same evaluation count, bit for bit — under Plus and
   Comma selection, with one population and with two islands, each of
   which has a selection bound of its own. *)
let prop_early_reject_equivalent =
  QCheck.Test.make
    ~name:"early rejection never changes the outcome" ~count:20
    (Testutil.arbitrary_dag ~max_n:15 ())
    (fun graph ->
      let ctx =
        Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic ~platform:chti
          ~graph
      in
      List.for_all
        (fun (selection, islands) ->
          let config =
            Alg.with_domains Testutil.test_domains
              (Alg.with_islands ~migration_interval:2 islands
                 { quick_config with Alg.generations = 4; selection })
          in
          let r =
            Alg.run_ctx ~rng:(Emts_prng.create ~seed:11 ()) ~config ~ctx ()
          in
          let reference =
            Emts_check.Reference.emts
              ~rng:(Emts_prng.create ~seed:11 ())
              ~config ~ctx
          in
          Int64.bits_of_float r.Alg.makespan
          = Int64.bits_of_float reference.Emts_ea.best_fitness
          && r.Alg.alloc = reference.Emts_ea.best
          && r.Alg.ea.Emts_ea.history = reference.Emts_ea.history
          && r.Alg.ea.Emts_ea.evaluations = reference.Emts_ea.evaluations)
        [
          (Emts_ea.Plus, 1); (Emts_ea.Comma, 1); (Emts_ea.Plus, 2);
          (Emts_ea.Comma, 2);
        ])

(* Parallelism is a pure optimisation: worker domains must reproduce
   the sequential run bit for bit — same best fitness, same history,
   same evaluation count.  The telemetry layer is observer-only, so the
   runs are replayed a second time with every sink on (trace, metrics,
   GC profiling, flight ring) plus a checkpointing leg, against the
   telemetry-off baseline. *)
let prop_pool_determinism =
  QCheck.Test.make
    ~name:"domains x checkpoint x telemetry never change the outcome"
    ~count:10
    (Testutil.arbitrary_dag ~max_n:15 ())
    (fun graph ->
      let run_with ?checkpoint tune =
        let config =
          tune { quick_config with Alg.generations = 3; lambda = 8 }
        in
        Alg.run ?checkpoint
          ~rng:(Emts_prng.create ~seed:13 ())
          ~config ~model:Emts_model.synthetic ~platform:chti ~graph ()
      in
      let with_telemetry f =
        let path = Filename.temp_file "emts_det" ".jsonl" in
        Emts_obs.Trace.start ~path ();
        Emts_obs.Metrics.set_enabled true;
        Emts_obs.Gcprof.set_enabled true;
        Emts_obs.Flight.configure ~capacity:64 ();
        Fun.protect
          ~finally:(fun () ->
            Emts_obs.Gcprof.set_enabled false;
            Emts_obs.Metrics.set_enabled false;
            Emts_obs.Flight.disable ();
            Emts_obs.Trace.stop ();
            Sys.remove path)
          f
      in
      let in_ckpt f =
        let path = Filename.temp_file "emts_det" ".ckpt" in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
          (fun () -> f path)
      in
      let baseline = run_with Fun.id in
      let same (r : Alg.result) =
        r.Alg.makespan = baseline.Alg.makespan
        && r.Alg.alloc = baseline.Alg.alloc
        && r.Alg.ea.Emts_ea.best_fitness
           = baseline.Alg.ea.Emts_ea.best_fitness
        && r.Alg.ea.Emts_ea.history = baseline.Alg.ea.Emts_ea.history
        && r.Alg.ea.Emts_ea.evaluations
           = baseline.Alg.ea.Emts_ea.evaluations
      in
      let variants = [ Alg.with_domains 4 ] in
      List.for_all (fun tune -> same (run_with tune)) variants
      && List.for_all
           (fun tune -> same (with_telemetry (fun () -> run_with tune)))
           (Fun.id :: variants)
      && in_ckpt (fun path ->
             same (run_with ~checkpoint:(path, 1) Fun.id)
             && same
                  (with_telemetry (fun () ->
                       run_with ~checkpoint:(path, 1) Fun.id))))

(* A DAG's re-planning context (time tables and covering edges) lives as
   long as its unstarted work.  [online_session] submits [graphs] to a
   fresh Grelon session, DAG k at k × gap, the gap being [spread] times
   the first DAG's planned makespan.  After each submit it checks that
   the session holds a context for exactly the DAGs with an unstarted
   task. *)
let online_session
    ?(replanner = Online.Emts { mu = 2; lambda = 6; generations = 2 })
    ~spread graphs =
  let t =
    Online.create
      (Online.config ~replanner ~seed:23 ~platform:Emts_platform.grelon
         ~model:Emts_model.synthetic ())
  in
  let gap = ref 0. in
  List.iteri
    (fun k graph ->
      (match Online.submit t ~graph ~at:(float_of_int k *. !gap) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("online submit: " ^ m));
      if k = 0 then
        gap :=
          spread
          *. List.fold_left
               (fun acc (e : Emts_sched.Schedule.entry) ->
                 Float.max acc e.Emts_sched.Schedule.finish)
               0. (Online.plan t);
      let st = Online.state t in
      let unfinished =
        List.length
          (List.filter
             (fun d -> Sim_online.dag_unstarted st d > 0)
             (List.init (Sim_online.dag_count st) Fun.id))
      in
      Alcotest.(check int) "contexts held = DAGs with unstarted work"
        unfinished (Online.open_dags t))
    graphs;
  t

let online_complete t =
  match Online.advance t with
  | Ok r when r.Online.complete -> ()
  | Ok _ -> Alcotest.fail "online trace did not complete"
  | Error m -> Alcotest.fail ("online advance: " ^ m)

(* Words reachable from the session but not from its cluster state. *)
let words_beyond_state t =
  Obj.reachable_words (Obj.repr t)
  - Obj.reachable_words (Obj.repr (Online.state t))

(* Once complete, a session keeps its cluster state and commitment log
   but no DAG's context: a few words per DAG beyond the state, where
   the time tables alone take a row of [procs] floats per task. *)
let test_online_complete_keeps_no_context () =
  let rng = Emts_prng.create ~seed:29 () in
  let graphs =
    List.init 4 (fun k -> Testutil.costed_daggen rng ~n:(30 + (10 * k)))
  in
  (* the second DAG lands on the first one's work, the later two after
     the earlier ones closed *)
  let t = online_session ~spread:0.9 graphs in
  Alcotest.(check bool) "work still open after the last arrival" true
    (Online.open_dags t > 0);
  online_complete t;
  Alcotest.(check int) "no context held" 0 (Online.open_dags t);
  let words = words_beyond_state t and dags = Online.dag_count t in
  if words > 64 + (4 * dags) then
    Alcotest.failf "%d words beyond the cluster state for %d DAGs" words dags

(* A DAG submitted after the session completes re-plans from its own
   context alone: with the deterministic baseline it commits what a
   fresh session given the same DAG at the same time commits, shifted
   past the earlier tasks, and no earlier commitment moves. *)
let test_online_dag_after_completion () =
  let rng = Emts_prng.create ~seed:31 () in
  let first = Testutil.costed_daggen rng ~n:40
  and late = Testutil.costed_daggen rng ~n:35 in
  let t = online_session ~replanner:Online.Baseline ~spread:0. [ first ] in
  online_complete t;
  let before = Online.commitments t in
  let at = Option.get (Online.makespan t) +. 1. in
  (match Online.submit t ~graph:late ~at with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("late submit: " ^ m));
  Alcotest.(check int) "only the late DAG's context" 1 (Online.open_dags t);
  online_complete t;
  Alcotest.(check int) "closed again" 0 (Online.open_dags t);
  let after = Online.commitments t in
  let earlier = List.filteri (fun i _ -> i < List.length before) after in
  Alcotest.(check bool) "earlier commitments unchanged" true
    (List.for_all2 online_committed_eq before earlier);
  let fresh =
    Online.create
      (Online.config ~replanner:Online.Baseline ~seed:23
         ~platform:Emts_platform.grelon ~model:Emts_model.synthetic ())
  in
  (match Online.submit fresh ~graph:late ~at with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("fresh submit: " ^ m));
  online_complete fresh;
  let offset = Emts_ptg.Graph.task_count first in
  let shifted =
    List.map
      (fun (c : Sim_online.committed) ->
        { c with Sim_online.task = c.Sim_online.task + offset; dag = 1 })
      (Online.commitments fresh)
  in
  let late_part = List.filteri (fun i _ -> i >= List.length before) after in
  Alcotest.(check int) "late commitment count" (List.length shifted)
    (List.length late_part);
  Alcotest.(check bool) "late DAG committed as in a fresh session" true
    (List.for_all2 online_committed_eq shifted late_part)

(* Online satellite: a forced re-plan with zero arrivals and zero
   drift must refuse to touch the installed plan — [replan] returns
   [false] and every plan entry stays bitwise identical, both straight
   after a submit and after a driftless partial advance. *)
let prop_online_replan_noop =
  QCheck.Test.make
    ~name:"online re-plan with no arrival and no drift is a bitwise no-op"
    ~count:15
    (Testutil.arbitrary_dag ~max_n:12 ())
    (fun graph ->
      let cfg =
        Online.config
          ~replanner:(Online.Emts { mu = 2; lambda = 6; generations = 2 })
          ~seed:31 ~platform:chti ~model:Emts_model.synthetic ()
      in
      let t = Online.create cfg in
      (match Online.submit t ~graph ~at:0. with
      | Ok _ -> ()
      | Error m -> QCheck.Test.fail_report ("online submit: " ^ m));
      let plan_unchanged () =
        let before = Online.plan t in
        let changed = Online.replan t in
        let after = Online.plan t in
        (not changed)
        && List.length before = List.length after
        && List.for_all2 online_plan_entry_eq before after
      in
      let fresh_ok = plan_unchanged () in
      (* a driftless partial advance (no noise) must not re-arm the
         re-planner either *)
      let horizon =
        List.fold_left
          (fun acc (e : Emts_sched.Schedule.entry) ->
            Float.max acc e.Emts_sched.Schedule.finish)
          0. (Online.plan t)
      in
      let advanced_ok =
        match Online.advance ~to_:(0.5 *. horizon) t with
        | Ok _ -> plan_unchanged ()
        | Error m -> QCheck.Test.fail_report ("online advance: " ^ m)
      in
      fresh_ok && advanced_ok)

let prop_emts_beats_every_seed =
  QCheck.Test.make
    ~name:"EMTS makespan <= every seed's makespan (elitist seeding)"
    ~count:25
    (Testutil.arbitrary_dag ~max_n:15 ())
    (fun graph ->
      let r =
        Alg.run
          ~rng:(Emts_prng.create ~seed:5 ())
          ~config:{ quick_config with Alg.generations = 2; lambda = 5 }
          ~model:Emts_model.synthetic ~platform:chti ~graph ()
      in
      List.for_all
        (fun (s : Seeding.seed) -> r.Alg.makespan <= s.makespan +. 1e-9)
        r.Alg.seeds)

let prop_emts_schedule_valid =
  QCheck.Test.make ~name:"EMTS schedules always validate" ~count:25
    (Testutil.arbitrary_dag ~max_n:15 ())
    (fun graph ->
      let r =
        Alg.run
          ~rng:(Emts_prng.create ~seed:6 ())
          ~config:{ quick_config with Alg.generations = 2; lambda = 5 }
          ~model:Emts_model.amdahl ~platform:chti ~graph ()
      in
      Emts_sched.Schedule.validate ~alloc:r.Alg.alloc r.Alg.schedule ~graph
      = Ok ())

let () =
  Alcotest.run "emts"
    [
      ( "configuration",
        [
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "with_domains" `Quick test_with_domains;
          Alcotest.test_case "default seeds" `Quick test_seeding_defaults;
        ] );
      ( "seeding",
        [ Alcotest.test_case "collect" `Quick test_seeding_collect ] );
      ( "algorithm",
        [
          Alcotest.test_case "never worse than seeds" `Quick
            test_result_not_worse_than_seeds;
          Alcotest.test_case "schedule matches" `Quick
            test_schedule_matches_result;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "run = run_ctx" `Quick test_run_vs_run_ctx;
          Alcotest.test_case "empty graph" `Quick test_empty_graph_rejected;
          Alcotest.test_case "EA accounting" `Quick test_ea_trace_budget;
          Alcotest.test_case "improves under Model 2" `Slow
            test_improves_under_model2_often;
          Alcotest.test_case "time budget" `Quick test_time_budget_respected;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "early rejection identity" `Quick
            test_early_reject_identical_results;
          Alcotest.test_case "recombination configs" `Quick
            test_recombination_configs_run;
          Alcotest.test_case "adaptive sigma" `Quick test_adaptive_sigma_runs;
        ] );
      ( "islands",
        [
          Alcotest.test_case "with_islands validation" `Quick
            test_with_islands_validation;
          Alcotest.test_case "determinism matrix" `Quick test_island_matrix;
          Alcotest.test_case "extra seeds" `Quick test_extra_seeds;
        ] );
      ( "online",
        [
          Alcotest.test_case "determinism matrix" `Quick test_online_matrix;
          Alcotest.test_case "complete session keeps no DAG context" `Quick
            test_online_complete_keeps_no_context;
          Alcotest.test_case "DAG after completion" `Quick
            test_online_dag_after_completion;
        ] );
      ( "crash safety",
        [
          Alcotest.test_case "resume matrix" `Quick
            test_checkpoint_resume_matrix;
          Alcotest.test_case "resume without checkpoint" `Quick
            test_resume_without_checkpoint_is_fresh;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_early_reject_equivalent;
            prop_online_replan_noop;
            prop_pool_determinism;
            prop_emts_beats_every_seed;
            prop_emts_schedule_valid;
          ] );
    ]
