(* Tests for the experiment harness: campaign generation and the figure
   drivers (run at miniature scale). *)

module E = Emts_experiments
module Campaign = E.Campaign
module Relative = E.Relative

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let found = ref false in
  for i = 0 to h - n do
    if String.sub hay i n = needle then found := true
  done;
  !found

(* --- Campaign --- *)

let test_paper_counts () =
  let c = Campaign.paper_counts in
  Alcotest.(check int) "fft 100 per size" 100 c.Campaign.fft_per_size;
  Alcotest.(check int) "strassen 100" 100 c.Campaign.strassen;
  Alcotest.(check int) "3 per combo" 3 c.Campaign.per_combo;
  (* figure slices: 400 FFT, 100 Strassen, 36 layered / 108 irregular
     at n = 100 (the paper's 108/324 totals include n = 20 and 50) *)
  Alcotest.(check int) "fft total" 400 (Campaign.instance_count c Campaign.Fft);
  Alcotest.(check int) "strassen total" 100
    (Campaign.instance_count c Campaign.Strassen);
  Alcotest.(check int) "layered n=100 slice" 36
    (Campaign.instance_count c Campaign.Layered);
  Alcotest.(check int) "irregular n=100 slice" 108
    (Campaign.instance_count c Campaign.Irregular)

let test_scaled () =
  let c = Campaign.scaled 0.1 in
  Alcotest.(check int) "fft scaled" 10 c.Campaign.fft_per_size;
  Alcotest.(check int) "per_combo floor 1" 1 c.Campaign.per_combo;
  Alcotest.(check bool) "scale 0 rejected" true
    (try
       ignore (Campaign.scaled 0.);
       false
     with Invalid_argument _ -> true)

let test_class_names () =
  List.iter
    (fun cls ->
      Alcotest.(check bool) "name round-trip" true
        (Campaign.class_of_name (Campaign.class_name cls) = Some cls))
    Campaign.all_classes;
  Alcotest.(check bool) "unknown name" true
    (Campaign.class_of_name "mesh" = None)

let tiny = { Campaign.fft_per_size = 1; strassen = 2; per_combo = 1 }

let test_instances_match_count () =
  let rng = Emts_prng.create ~seed:1 () in
  List.iter
    (fun cls ->
      let expected = Campaign.instance_count tiny cls in
      let actual = List.length (Campaign.instances ~rng ~counts:tiny cls) in
      Alcotest.(check int) (Campaign.class_name cls) expected actual)
    Campaign.all_classes

let test_instances_weighted () =
  let rng = Emts_prng.create ~seed:2 () in
  List.iter
    (fun cls ->
      List.iter
        (fun g ->
          Alcotest.(check bool) "costs assigned" true
            (Emts_ptg.Graph.total_flop g > 0.))
        (Campaign.instances ~rng ~counts:tiny cls))
    Campaign.all_classes

let test_layered_instances_are_layered () =
  let rng = Emts_prng.create ~seed:3 () in
  List.iter
    (fun g ->
      Alcotest.(check int) "n = 100" 100 (Emts_ptg.Graph.task_count g);
      let level = Emts_ptg.Graph.precedence_level g in
      List.iter
        (fun (src, dst) ->
          Alcotest.(check int) "adjacent levels" 1 (level.(dst) - level.(src)))
        (Emts_ptg.Graph.edges g))
    (Campaign.instances ~rng ~counts:tiny Campaign.Layered)

(* --- Figure 1 --- *)

let test_fig1 () =
  let text = E.Fig1.render () in
  Alcotest.(check bool) "mentions figure" true (contains text "Figure 1");
  Alcotest.(check bool) "both series" true
    (contains text "1024x1024" && contains text "2048x2048");
  let violations series =
    List.length (List.filter (fun p -> p.E.Fig1.monotone_violation) series)
  in
  Alcotest.(check bool) "1024 non-monotone" true (violations E.Fig1.series_1024 > 0);
  Alcotest.(check bool) "2048 non-monotone" true (violations E.Fig1.series_2048 > 0)

(* --- Figure 3 --- *)

let test_fig3_histogram () =
  let rng = Emts_prng.create ~seed:4 () in
  let h = E.Fig3.histogram ~samples:50_000 rng in
  Alcotest.(check bool) "zero bin empty" true
    (let bins = Emts_stats.Histogram.bins h in
     let zero_bin = ref (-1) in
     for i = 0 to bins - 1 do
       if Float.abs (Emts_stats.Histogram.bin_center h i) < 0.25 then
         zero_bin := i
     done;
     !zero_bin >= 0 && Emts_stats.Histogram.bin_count h !zero_bin = 0);
  let text = E.Fig3.render ~samples:50_000 (Emts_prng.create ~seed:4 ()) in
  Alcotest.(check bool) "reports shrink probability" true
    (contains text "shrink probability")

(* --- Relative makespans (Figures 4/5) --- *)

let micro_config =
  { Emts.Algorithm.emts5 with Emts.Algorithm.generations = 2; lambda = 5; mu = 2 }

let micro_counts = { Campaign.fft_per_size = 1; strassen = 2; per_combo = 1 }

let micro_groups =
  lazy
    (Relative.run
       ~rng:(Emts_prng.create ~seed:5 ())
       ~model:Emts_model.synthetic ~config:micro_config ~counts:micro_counts
       ~classes:[ Campaign.Strassen ] ()
       )

let test_relative_run_shape () =
  let groups = Lazy.force micro_groups in
  Alcotest.(check int) "one class x two platforms" 2 (List.length groups);
  List.iter
    (fun (g : Relative.group) ->
      Alcotest.(check int) "two cells" 2 (List.length g.Relative.cells);
      Alcotest.(check int) "instances" 2 g.Relative.instances;
      List.iter
        (fun (c : Relative.cell) ->
          Alcotest.(check bool)
            (c.Relative.versus ^ " ratio >= 1")
            true
            (c.Relative.summary.Emts_stats.mean >= 1. -. 1e-9))
        g.Relative.cells;
      Alcotest.(check bool) "runtime recorded" true
        (g.Relative.emts_runtime.Emts_stats.n = 2))
    groups

let test_relative_render () =
  let groups = Lazy.force micro_groups in
  let text = Relative.render ~title:"T" groups in
  Alcotest.(check bool) "has platforms" true
    (contains text "chti" && contains text "grelon");
  Alcotest.(check bool) "has heuristics" true
    (contains text "vs MCPA" && contains text "vs HCPA");
  let rt = Relative.render_runtime ~title:"RT" groups in
  Alcotest.(check bool) "runtime table" true (contains rt "Strassen")

let test_relative_unknown_versus_rejected () =
  Alcotest.(check bool) "bad versus name" true
    (try
       ignore
         (Relative.run ~versus:[ "NOPE" ]
            ~rng:(Emts_prng.create ~seed:6 ())
            ~model:Emts_model.amdahl ~config:micro_config ~counts:micro_counts
            ~classes:[ Campaign.Strassen ]
            ~platforms:[ Emts_platform.chti ] ());
       false
     with Invalid_argument _ -> true)

(* --- Extensions: ablation, robustness, convergence --- *)

(* The rejection strategy of the paper's conclusion changes no result
   at ablation scale: EMTS10 on irregular 100-node PTGs, Model 2 on
   Grelon, returns exactly what the run without any cutoff returns. *)
let test_ablation_early_rejection_identity () =
  let rng = Emts_prng.create ~seed:9 () in
  for _ = 1 to 2 do
    let graph =
      Emts_daggen.Costs.assign rng
        (Emts_daggen.Random_dag.generate rng
           { n = 100; width = 0.5; regularity = 0.2; density = 0.2; jump = 2 })
    in
    let ctx =
      Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic
        ~platform:Emts_platform.grelon ~graph
    in
    let seed = Int64.to_int (Emts_prng.bits64 rng) land max_int in
    let config = Emts.Algorithm.emts10 in
    let r =
      Emts.Algorithm.run_ctx ~rng:(Emts_prng.create ~seed ()) ~config ~ctx ()
    in
    let reference =
      Emts_check.Reference.emts ~rng:(Emts_prng.create ~seed ()) ~config ~ctx
    in
    Alcotest.(check (float 0.)) "exact ratio 1" 1.
      (r.Emts.Algorithm.makespan /. reference.Emts_ea.best_fitness);
    Alcotest.(check (array int)) "same allocation" reference.Emts_ea.best
      r.Emts.Algorithm.alloc
  done

let test_ablation_seeding_hurts_without_heuristics () =
  let rows =
    E.Ablation.seeding ~instances:3 ~rng:(Emts_prng.create ~seed:10 ()) ()
  in
  let seq_only = List.nth rows 1 in
  Alcotest.(check bool) "SEQ-only seeding is worse" true
    (seq_only.E.Ablation.ratio_vs_baseline.Emts_stats.mean > 1.)

let test_robustness_shape () =
  let points =
    E.Robustness.run ~instances:2 ~draws:2 ~sigmas:[ 0.2 ]
      ~rng:(Emts_prng.create ~seed:11 ())
      ()
  in
  Alcotest.(check int) "one sigma" 1 (List.length points);
  let p = List.hd points in
  Alcotest.(check bool) "planned ratio >= 1" true
    (p.E.Robustness.planned_ratio.Emts_stats.mean >= 1. -. 1e-9);
  Alcotest.(check bool) "slowdowns positive" true
    (p.E.Robustness.emts_slowdown.Emts_stats.mean > 0.
    && p.E.Robustness.mcpa_slowdown.Emts_stats.mean > 0.);
  Alcotest.(check bool) "render" true
    (contains (E.Robustness.render points) "sigma")

let test_gaps_shape () =
  let groups =
    E.Gaps.run
      ~rng:(Emts_prng.create ~seed:13 ())
      ~counts:micro_counts
      ~classes:[ Campaign.Strassen ]
      ~platforms:[ Emts_platform.chti ] ()
  in
  Alcotest.(check int) "one group" 1 (List.length groups);
  let g = List.hd groups in
  (* every algorithm's gap >= 1; EMTS10 at least as good as SEQ *)
  List.iter
    (fun (r : E.Gaps.row) ->
      Alcotest.(check bool)
        (r.E.Gaps.algorithm ^ " gap >= 1")
        true
        (r.E.Gaps.gap.Emts_stats.mean >= 1. -. 1e-9))
    g.E.Gaps.rows;
  let gap_of name =
    (List.find (fun (r : E.Gaps.row) -> r.E.Gaps.algorithm = name) g.E.Gaps.rows)
      .E.Gaps.gap.Emts_stats.mean
  in
  Alcotest.(check bool) "EMTS10 <= SEQ" true (gap_of "EMTS10" <= gap_of "SEQ");
  Alcotest.(check bool) "render" true (contains (E.Gaps.render groups) "SEQ")

let test_sweep_shape () =
  let points =
    E.Sweep.run
      ~config:{ micro_config with Emts.Algorithm.mu = 5 }
      ~rng:(Emts_prng.create ~seed:14 ())
      ()
  in
  Alcotest.(check int) "three sizes" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "ratios >= 1" true
        (p.E.Sweep.layered_vs_mcpa.Emts_stats.mean >= 1. -. 1e-9
        && p.E.Sweep.irregular_vs_mcpa.Emts_stats.mean >= 1. -. 1e-9))
    points;
  Alcotest.(check bool) "render" true
    (contains (E.Sweep.render points) "layered")

let test_walltime_shape () =
  let points =
    E.Walltime.run ~jobs:8 ~f_values:[ 1.0; 4.0 ]
      ~rng:(Emts_prng.create ~seed:15 ())
      ()
  in
  Alcotest.(check int) "two f values" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "positive metrics" true
        (p.E.Walltime.mean_wait >= 0. && p.E.Walltime.queue_makespan > 0.))
    points;
  Alcotest.(check bool) "bad f rejected" true
    (try
       ignore
         (E.Walltime.run ~jobs:2 ~f_values:[ 0.5 ]
            ~rng:(Emts_prng.create ~seed:16 ())
            ());
       false
     with Invalid_argument _ -> true)

let test_convergence_curve () =
  let curve =
    E.Convergence.run ~instances:2
      ~config:{ Emts.Algorithm.emts5 with Emts.Algorithm.generations = 3 }
      ~rng:(Emts_prng.create ~seed:12 ())
      ()
  in
  Alcotest.(check int) "generations + 1 points" 4
    (Array.length curve.E.Convergence.relative_best);
  (* best is monotone and ends at the final value 1.0 *)
  let rb = curve.E.Convergence.relative_best in
  for g = 1 to Array.length rb - 1 do
    Alcotest.(check bool) "monotone decreasing" true (rb.(g) <= rb.(g - 1) +. 1e-9)
  done;
  Alcotest.(check (float 1e-9)) "ends at 1" 1. rb.(Array.length rb - 1);
  Alcotest.(check bool) "render" true
    (contains (E.Convergence.render curve) "gen  0")

(* --- Figure 6 --- *)

let test_fig6 () =
  let rng = Emts_prng.create ~seed:7 () in
  let c =
    E.Fig6.compare_schedules
      ~config:micro_config ~platform:Emts_platform.chti rng
  in
  Alcotest.(check bool) "EMTS at least as good" true
    (c.E.Fig6.emts_makespan <= c.E.Fig6.mcpa_makespan +. 1e-9);
  Alcotest.(check bool) "both schedules valid" true
    (Emts_sched.Schedule.validate c.E.Fig6.mcpa_schedule ~graph:c.E.Fig6.graph
     = Ok ()
    && Emts_sched.Schedule.validate c.E.Fig6.emts_schedule
         ~graph:c.E.Fig6.graph
       = Ok ());
  let text = E.Fig6.render ~width:30 c in
  Alcotest.(check bool) "captions" true
    (contains text "MCPA" && contains text "EMTS10")

let () =
  Alcotest.run "experiments"
    [
      ( "campaign",
        [
          Alcotest.test_case "paper counts" `Quick test_paper_counts;
          Alcotest.test_case "scaled" `Quick test_scaled;
          Alcotest.test_case "class names" `Quick test_class_names;
          Alcotest.test_case "instances match count" `Quick
            test_instances_match_count;
          Alcotest.test_case "instances weighted" `Quick
            test_instances_weighted;
          Alcotest.test_case "layered are layered" `Quick
            test_layered_instances_are_layered;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1" `Quick test_fig1;
          Alcotest.test_case "fig3" `Quick test_fig3_histogram;
          Alcotest.test_case "fig6" `Slow test_fig6;
        ] );
      ( "relative",
        [
          Alcotest.test_case "run shape" `Slow test_relative_run_shape;
          Alcotest.test_case "render" `Slow test_relative_render;
          Alcotest.test_case "unknown versus" `Quick
            test_relative_unknown_versus_rejected;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "early-rejection identity" `Slow
            test_ablation_early_rejection_identity;
          Alcotest.test_case "seeding ablation" `Slow
            test_ablation_seeding_hurts_without_heuristics;
          Alcotest.test_case "robustness shape" `Slow test_robustness_shape;
          Alcotest.test_case "convergence curve" `Slow test_convergence_curve;
          Alcotest.test_case "gaps shape" `Slow test_gaps_shape;
          Alcotest.test_case "sweep shape" `Slow test_sweep_shape;
          Alcotest.test_case "walltime shape" `Slow test_walltime_shape;
        ] );
    ]
