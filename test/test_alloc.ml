(* Tests for the allocation heuristics: CPA, HCPA, MCPA, Delta-critical,
   the registry, and the shared growth loop. *)

module A = Emts_alloc
module Common = Emts_alloc.Common
module Graph = Emts_ptg.Graph

let chti = Emts_platform.chti

let ctx_of ?(model = Emts_model.amdahl) ?(platform = chti) g =
  Common.make_ctx ~model ~platform ~graph:g

(* --- reference spec: the from-scratch growth loop ---

   The loop as it stood before the incremental rewrite, kept verbatim:
   every step recomputes T_CP, T_A and the critical path from scratch.
   [Common.growth_loop] must return the same allocation, to the int. *)
let ref_growth_loop ?max_iters ~gain ~eligible ctx =
  let open Common in
  let n = Graph.task_count ctx.graph in
  let alloc = Array.make n 1 in
  if n = 0 then alloc
  else begin
    let cap =
      match max_iters with
      | Some m -> m
      | None -> n * ctx.procs
    in
    let rec step iter =
      if iter >= cap then ()
      else begin
        let t_cp = critical_path_length ctx alloc in
        let t_a = average_area ctx alloc in
        if t_cp <= t_a then ()
        else begin
          let cp = critical_path ctx alloc in
          let best =
            List.fold_left
              (fun acc v ->
                if not (eligible alloc v) then acc
                else begin
                  let g = gain_value ctx alloc gain v in
                  match acc with
                  | Some (_, gbest) when gbest >= g -> acc
                  | _ when g = neg_infinity -> acc
                  | _ -> Some (v, g)
                end)
              None cp
          in
          match best with
          | Some (v, g) when g > 0. ->
            alloc.(v) <- alloc.(v) + 1;
            step (iter + 1)
          | Some _ | None -> ()
        end
      end
    in
    step 0;
    alloc
  end

let ref_cpa ctx =
  ref_growth_loop ~gain:Common.Efficiency ~eligible:(fun _alloc _v -> true) ctx

let ref_hcpa ctx =
  ref_growth_loop ~gain:Common.Absolute ~eligible:(fun _alloc _v -> true) ctx

let ref_mcpa ctx =
  let graph = ctx.Common.graph in
  let level = Emts_ptg.Graph.precedence_level graph in
  let n = Emts_ptg.Graph.task_count graph in
  let level_total alloc lv =
    let total = ref 0 in
    for v = 0 to n - 1 do
      if level.(v) = lv then total := !total + alloc.(v)
    done;
    !total
  in
  ref_growth_loop ~gain:Common.Efficiency
    ~eligible:(fun alloc v -> level_total alloc level.(v) < ctx.Common.procs)
    ctx

let growth_pairs =
  [
    ("CPA", A.Cpa.allocate, ref_cpa);
    ("HCPA", A.Hcpa.allocate, ref_hcpa);
    ("MCPA", A.Mcpa.allocate, ref_mcpa);
  ]

(* Every CPA-family heuristic returns the reference allocation ([=] on
   the int arrays); the first mismatch is reported by name. *)
let same_as_reference ctx =
  List.for_all
    (fun (name, allocate, reference) ->
      let got = allocate ctx and want = reference ctx in
      got = want
      || QCheck.Test.fail_reportf "%s: %s <> reference %s" name
           (Format.asprintf "%a" Emts_sched.Allocation.pp got)
           (Format.asprintf "%a" Emts_sched.Allocation.pp want))
    growth_pairs

(* Chain of perfectly parallel tasks: every task is always on the
   critical path and spans shrink by 1/p, so CPA must push every
   allocation to the full cluster (T_CP = T_A exactly there). *)
let test_cpa_chain_alpha0 () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.chain 3)
  in
  let alloc = A.Cpa.allocate (ctx_of g) in
  Alcotest.(check (array int)) "all tasks get P" [| 20; 20; 20 |] alloc

let test_cpa_stops_at_ta () =
  (* Wide level of identical tasks: T_A ~ V*T1/(P) stays put while the
     (single-task) critical path shrinks; CPA stops growing once
     T_CP <= T_A, so allocations stay small. *)
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.independent 20)
  in
  let alloc = A.Cpa.allocate (ctx_of g) in
  (* 20 unit tasks on 20 procs: T_A = 1 = T_CP at all-ones already. *)
  Alcotest.(check (array int)) "no growth needed" (Array.make 20 1) alloc

(* Fork-join 0 -> {1..5} -> 6 of perfectly parallel tasks with a heavy
   source: under a level budget of 5 the source and the sink grow to 5
   processors and stop there although their gains are still positive
   and T_CP > T_A, while the middle level already holds its whole
   budget, so none of its five tasks grows. *)
let test_growth_loop_level_budget () =
  let g =
    Graph.map_tasks
      (fun t ->
        let flop = if t.Emts_ptg.Task.id = 0 then 100. *. 4.3e9 else 4.3e9 in
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop ())
      (Emts_daggen.Shapes.fork_join 5)
  in
  let ctx = ctx_of g in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 1; 1; 1; 2 |]
    (Graph.precedence_level g);
  let alloc = Common.growth_loop ~level_budget:5 ~gain:Common.Efficiency ctx in
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "task %d capped" v) 5 alloc.(v);
      Alcotest.(check bool) (Printf.sprintf "task %d gain positive" v) true
        (Common.gain_value ctx alloc Common.Efficiency v > 0.))
    [ 0; 6 ];
  Alcotest.(check bool) "T_CP > T_A at the stop" true
    (Common.critical_path_length ctx alloc > Common.average_area ctx alloc);
  for v = 1 to 5 do
    Alcotest.(check int) (Printf.sprintf "task %d outside the budget" v) 1
      alloc.(v)
  done;
  Alcotest.(check bool) "unbudgeted source grows further" true
    ((Common.growth_loop ~gain:Common.Efficiency ctx).(0) > 5)

let test_gain_value () =
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ~alpha:0.5 ())
      (Emts_daggen.Shapes.independent 1)
  in
  let ctx = ctx_of g in
  let alloc = [| 1 |] in
  (* T(1) = 1, T(2) = 0.75: absolute gain 0.25, efficiency 1 - 0.375 *)
  Alcotest.(check (float 1e-9)) "absolute" 0.25
    (Common.gain_value ctx alloc Common.Absolute 0);
  Alcotest.(check (float 1e-9)) "efficiency" 0.625
    (Common.gain_value ctx alloc Common.Efficiency 0);
  (* at the cluster size no further gain exists *)
  Alcotest.(check bool) "full allocation" true
    (Common.gain_value ctx [| 20 |] Common.Absolute 0 = neg_infinity)

let test_hcpa_differs_from_cpa () =
  (* Two-task chain: A has tiny absolute but large efficiency gain; B the
     opposite, so the first growth step diverges and so do the results. *)
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_task ~name:"A" ~flop:(100. *. 4.3e9) ~alpha:0.9 b in
  let c = Graph.Builder.add_task ~name:"B" ~flop:(60. *. 4.3e9) ~alpha:0. b in
  Graph.Builder.add_edge b ~src:a ~dst:c;
  let g = Graph.Builder.build b in
  let ctx = ctx_of g in
  let one = [| 1; 1 |] in
  Alcotest.(check bool) "efficiency prefers A" true
    (Common.gain_value ctx one Common.Efficiency 0
    > Common.gain_value ctx one Common.Efficiency 1);
  Alcotest.(check bool) "absolute prefers B" true
    (Common.gain_value ctx one Common.Absolute 1
    > Common.gain_value ctx one Common.Absolute 0)

(* CPR grows by actual makespan reduction, so its result can never be
   worse than the all-ones schedule, and each accepted step strictly
   improved the schedule. *)
let cpr_makespan ctx alloc =
  let times = Common.times ctx alloc in
  Emts_sched.List_scheduler.makespan ~graph:ctx.Common.graph ~times ~alloc
    ~procs:ctx.Common.procs ()

let test_cpr_improves_chain () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.chain 4)
  in
  let ctx = ctx_of g in
  let alloc = A.Cpr.allocate ctx in
  (* perfectly parallel chain: CPR drives everything to the full cluster *)
  Alcotest.(check (array int)) "chain fully widened" (Array.make 4 20) alloc

let test_cpr_never_worse_than_seq () =
  let rng = Emts_prng.create ~seed:31 () in
  for _ = 1 to 10 do
    let g =
      Testutil.costed_daggen rng ~n:20 ~width:0.6
    in
    let ctx = ctx_of ~model:Emts_model.synthetic g in
    let seq = cpr_makespan ctx (Array.make 20 1) in
    let cpr = cpr_makespan ctx (A.Cpr.allocate ctx) in
    Alcotest.(check bool) "cpr <= seq" true (cpr <= seq +. 1e-9)
  done

let test_cpr_beats_cpa_usually () =
  (* CPR optimises the real makespan, CPA an analytic proxy: under a
     MONOTONE model CPR should win or tie on a clear majority.  (Under
     Model 2 CPR is greedier than CPA and gets trapped: a single +1
     processor step usually *increases* a task's time, so it stops at
     once — exactly the pathology that motivates EMTS's multi-processor
     mutation steps.) *)
  let rng = Emts_prng.create ~seed:32 () in
  let wins = ref 0 and n = 10 in
  for _ = 1 to n do
    let g =
      Testutil.costed_daggen rng ~n:25 ~width:0.6
    in
    let ctx = ctx_of ~model:Emts_model.amdahl g in
    let cpa = cpr_makespan ctx (A.Cpa.allocate ctx) in
    let cpr = cpr_makespan ctx (A.Cpr.allocate ctx) in
    if cpr <= cpa +. 1e-9 then incr wins
  done;
  Alcotest.(check bool)
    (Printf.sprintf "CPR at least ties CPA on %d/%d (Model 1)" !wins n)
    true
    (!wins >= 7)

let test_mcpa_level_budget () =
  (* A single wide level cannot be allocated more than P in total. *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:(10. *. 4.3e9) ())
      (Emts_daggen.Shapes.independent 8)
  in
  let alloc = A.Mcpa.allocate (ctx_of g) in
  let total = Array.fold_left ( + ) 0 alloc in
  Alcotest.(check bool) "level total within P" true (total <= 20)

let test_mcpa_bounds_all_levels_random () =
  let rng = Emts_prng.create ~seed:11 () in
  for _ = 1 to 20 do
    let g =
      Testutil.costed_daggen rng ~n:40 ~width:0.7 ~density:0.4
    in
    let ctx = ctx_of ~model:Emts_model.synthetic g in
    let alloc = A.Mcpa.allocate ctx in
    let level = Graph.precedence_level g in
    let totals = Array.make (Graph.level_count g) 0 in
    Array.iteri (fun v s -> totals.(level.(v)) <- totals.(level.(v)) + s) alloc;
    Array.iteri
      (fun lv total ->
        (* the budget may be reached, never exceeded... except where the
           level has more than P tasks, which cannot happen here *)
        Alcotest.(check bool)
          (Printf.sprintf "level %d within budget" lv)
          true (total <= 20))
      totals
  done

let test_delta_critical_diamond () =
  (* Diamond bl (sequential) = [80;60;70;40]:
     level 0: {0} critical -> P; level 1: max 70, cutoff 63 -> {2}
     critical (60 < 63), so alloc 2 = P and alloc 1 = 1; level 2: {3}. *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id
          ~flop:((Testutil.unit_speed_times (Testutil.diamond_graph ()))
                   t.Emts_ptg.Task.id
                *. 4.3e9)
          ())
      (Testutil.diamond_graph ())
  in
  let alloc = A.Delta_critical.allocate ~delta:0.9 (ctx_of g) in
  Alcotest.(check (array int)) "allocation" [| 20; 1; 20; 20 |] alloc

let test_delta_zero_shares_everything () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.independent 4)
  in
  (* all 4 tasks critical at delta=0 -> 20/4 = 5 procs each *)
  Alcotest.(check (array int)) "even share" [| 5; 5; 5; 5 |]
    (A.Delta_critical.allocate ~delta:0. (ctx_of g));
  Alcotest.(check bool) "bad delta rejected" true
    (try
       ignore (A.Delta_critical.allocate ~delta:1.5 (ctx_of g));
       false
     with Invalid_argument _ -> true)

let test_sequential_baseline () =
  let g = Emts_daggen.Shapes.diamond 2 in
  Alcotest.(check (array int)) "all ones" (Array.make 6 1)
    (A.Sequential.allocate (ctx_of g))

let test_registry () =
  Alcotest.(check int) "six heuristics" 6 (List.length A.all);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " found") true (A.find name <> None))
    [ "seq"; "CPA"; "hcpa"; "McPa"; "cpr"; "DELTACP" ];
  Alcotest.(check bool) "unknown" true (A.find "magic" = None)

let test_allocate_convenience () =
  let g = Emts_daggen.Shapes.chain 2 in
  match A.find "mcpa" with
  | None -> Alcotest.fail "mcpa missing"
  | Some h ->
    let alloc =
      A.allocate h ~model:Emts_model.amdahl ~platform:chti ~graph:g
    in
    Alcotest.(check int) "length" 2 (Array.length alloc)

(* --- lower bounds --- *)

let test_bounds_single_task () =
  (* one task, alpha=0, T1 = 10 s on chti: best time 0.5 s at p=20,
     best area = sequential area 10 (monotone model). *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:(10. *. 4.3e9) ())
      (Emts_daggen.Shapes.independent 1)
  in
  let ctx = ctx_of g in
  Alcotest.(check (float 1e-9)) "best_time" 0.5 (A.Bounds.best_time ctx 0);
  Alcotest.(check (float 1e-9)) "best_area" 10. (A.Bounds.best_area ctx 0);
  Alcotest.(check (float 1e-9)) "cp bound" 0.5
    (A.Bounds.critical_path_bound ctx);
  Alcotest.(check (float 1e-9)) "area bound" 0.5 (A.Bounds.area_bound ctx);
  Alcotest.(check (float 1e-9)) "lower bound" 0.5 (A.Bounds.lower_bound ctx)

let test_bounds_area_dominates_when_wide () =
  (* 40 sequential-ish tasks on 20 procs: area bound = 40*T1/20 = 2*T1
     exceeds the single-task cp bound. *)
  let g =
    Graph.map_tasks
      (fun t ->
        Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ~alpha:1. ())
      (Emts_daggen.Shapes.independent 40)
  in
  let ctx = ctx_of g in
  Alcotest.(check (float 1e-9)) "area bound" 2. (A.Bounds.area_bound ctx);
  Alcotest.(check (float 1e-9)) "cp bound" 1.
    (A.Bounds.critical_path_bound ctx);
  Alcotest.(check (float 1e-9)) "lb = area" 2. (A.Bounds.lower_bound ctx)

let prop_bounds_below_any_schedule =
  QCheck.Test.make
    ~name:"lower bound <= makespan of every heuristic's schedule" ~count:60
    (Testutil.arbitrary_dag ~max_n:20 ())
    (fun g ->
      let ctx = ctx_of ~model:Emts_model.synthetic g in
      let lb = A.Bounds.lower_bound ctx in
      List.for_all
        (fun (h : A.heuristic) ->
          let alloc = h.allocate ctx in
          let m = cpr_makespan ctx alloc in
          lb <= m +. 1e-9 && A.Bounds.gap ctx ~makespan:m >= 1. -. 1e-9)
        A.all)

(* Every heuristic always returns a valid allocation. *)
let prop_heuristics_valid =
  QCheck.Test.make ~name:"heuristic allocations validate" ~count:60
    (Testutil.arbitrary_dag ~max_n:20 ())
    (fun g ->
      let ctx = ctx_of ~model:Emts_model.synthetic g in
      List.for_all
        (fun (h : A.heuristic) ->
          Emts_sched.Allocation.validate (h.allocate ctx) ~graph:g ~procs:20
          = Ok ())
        A.all)

let prop_heuristics_deterministic =
  QCheck.Test.make ~name:"heuristics are deterministic" ~count:40
    (Testutil.arbitrary_dag ~max_n:15 ())
    (fun g ->
      let ctx = ctx_of ~model:Emts_model.synthetic g in
      List.for_all
        (fun (h : A.heuristic) -> h.allocate ctx = h.allocate ctx)
        A.all)

(* --- incremental loop = reference spec --- *)

(* The fuzzer's scenario mix: adversarial shapes, zero-cost tasks,
   one-processor platforms, non-monotone models. *)
let prop_growth_matches_reference_scenarios =
  QCheck.Test.make ~name:"CPA/HCPA/MCPA = reference loop on fuzz scenarios"
    ~count:300 QCheck.int (fun seed ->
      let s = Emts_check.Gen.scenario (Emts_prng.create ~seed ()) in
      same_as_reference
        (Common.make_ctx ~model:(Emts_check.Scenario.model s)
           ~platform:(Emts_check.Scenario.platform s)
           ~graph:s.Emts_check.Scenario.graph))

(* Daggen DAGs on both clusters under Model 1 and Model 2; every other
   case is dense (density 0.5-0.9, jump 1-3), where transitive edges
   abound. *)
let prop_growth_matches_reference_daggen =
  let combos =
    [|
      (chti, Emts_model.amdahl);
      (chti, Emts_model.synthetic);
      (Emts_platform.grelon, Emts_model.amdahl);
      (Emts_platform.grelon, Emts_model.synthetic);
    |]
  in
  QCheck.Test.make ~name:"CPA/HCPA/MCPA = reference loop on daggen DAGs"
    ~count:120
    QCheck.(triple int (int_bound 3) bool)
    (fun (seed, c, dense) ->
      let rng = Emts_prng.create ~seed () in
      let n = Emts_prng.int_in rng 10 120 in
      let graph =
        if dense then
          Testutil.costed_daggen rng ~n
            ~width:(Emts_prng.float_in rng 0.1 1.0)
            ~density:(Emts_prng.float_in rng 0.5 0.9)
            ~jump:(Emts_prng.int_in rng 1 3)
        else Emts_check.Gen.random_daggen rng ~n
      in
      let platform, model = combos.(c) in
      same_as_reference (Common.make_ctx ~model ~platform ~graph))

(* Instances of the scale the loop was rewritten for: a sparse one and
   a dense one, where about half the edges are transitive; and a long
   run, where the running [T_A] sum carries thousands of updates.  A
   grow adds one processor, so [min_grows] bounds the sum of
   [alloc - 1] each heuristic must reach. *)
let growth_matches_reference_at ?(model = Emts_model.synthetic) ?(width = 0.3)
    ?(min_grows = 0) ~seed ~n ~density () =
  let rng = Emts_prng.create ~seed () in
  let graph =
    Emts_daggen.Costs.assign rng
      (Emts_daggen.Random_dag.generate rng
         {
           Emts_daggen.Random_dag.n;
           width;
           regularity = 0.5;
           density;
           jump = 2;
         })
  in
  let ctx = Common.make_ctx ~model ~platform:Emts_platform.grelon ~graph in
  List.iter
    (fun (name, allocate, reference) ->
      let got = allocate ctx in
      Alcotest.(check (array int)) name (reference ctx) got;
      let grows = Array.fold_left (fun acc s -> acc + s - 1) 0 got in
      if grows < min_grows then
        Alcotest.failf "%s: %d grows, fewer than %d" name grows min_grows)
    growth_pairs

let test_growth_matches_reference_500 =
  growth_matches_reference_at ~seed:500 ~n:500 ~density:0.3

let test_growth_matches_reference_800 =
  growth_matches_reference_at ~seed:800 ~n:800 ~density:0.8

(* Narrow 70-task DAGs on Grelon under Amdahl take thousands of grows:
   a seed-1 serve-open request of that shape took 2,938 MCPA grows. *)
let test_growth_matches_reference_long_run =
  growth_matches_reference_at ~model:Emts_model.amdahl ~width:0.2
    ~min_grows:2000 ~seed:70 ~n:70 ~density:0.8

(* The critical path is walked on the full graph, not on [ctx.cover].
   Edges s -> w, s -> x, x -> w with ids s < w < x make s -> w
   transitive.  s and w take T(p) = p, so no grow of theirs gains; x
   takes T(1) = 1e-20 and nothing on more processors, which rounding
   absorbs: bl(x) = bl(w) = 1.  The first successor of s of largest
   bottom level is then w on the full graph, so the path is s, w and
   nothing grows; on the cover it would be s, x, and x would grow. *)
let test_growth_walks_full_graph () =
  let s, w, x = (0, 1, 2) in
  let graph =
    Graph.of_tasks_and_edges
      (Array.init 3 (fun id -> Emts_ptg.Task.make ~id ~flop:1. ()))
      [ (s, w); (s, x); (x, w) ]
  in
  let ctx = ctx_of graph in
  Alcotest.(check (list (pair int int))) "cover" [ (s, x); (x, w) ]
    (Graph.edges ctx.Common.cover);
  let tables =
    Array.init 3 (fun v ->
        Array.init ctx.Common.procs (fun i ->
            if v <> x then float_of_int (i + 1)
            else if i = 0 then 1e-20
            else 0.))
  in
  let ctx = { ctx with Common.tables } in
  List.iter
    (fun (name, allocate, reference) ->
      Alcotest.(check (array int)) (name ^ " reference") [| 1; 1; 1 |]
        (reference ctx);
      Alcotest.(check (array int)) name [| 1; 1; 1 |] (allocate ctx))
    growth_pairs

(* The running [T_A] sum cannot decide every stop test alone.  Task 0,
   alone on its level so that MCPA's budget admits it, takes T(1) = 1
   and T(2) = 0; its successors 1 and 2 take T(1) = d = 2^-53 and
   T(2) = d/2.  The first fold rounds 1 + d + d to 1, so after task 0
   grows the running sum reads (1 - 1) + 0 = 0 while the fold reads
   0 + d + d = 2d.  The deciding step then has bl(start) * P = 2d on
   P = 2 processors: the fold stops, where the running sum alone would
   go on to grow tasks 1 and 2. *)
let test_growth_exact_fold () =
  let graph =
    Graph.of_tasks_and_edges
      (Array.init 3 (fun id -> Emts_ptg.Task.make ~id ~flop:1. ()))
      [ (0, 1); (0, 2) ]
  in
  let ctx =
    ctx_of
      ~platform:(Emts_platform.make ~name:"p2" ~processors:2 ~speed_gflops:1.)
      graph
  in
  let d = epsilon_float /. 2. in
  let tables =
    [| [| 1.; 0. |]; [| d; d /. 2. |]; [| d; d /. 2. |] |]
  in
  let ctx = { ctx with Common.tables } in
  let folds () =
    Option.value ~default:0
      (Emts_obs.Metrics.find_counter "alloc.growth.exact_folds")
  in
  Emts_obs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Emts_obs.Metrics.set_enabled false)
    (fun () ->
      List.iter
        (fun (name, allocate, reference) ->
          Alcotest.(check (array int)) (name ^ " reference") [| 2; 1; 1 |]
            (reference ctx);
          let before = folds () in
          Alcotest.(check (array int)) name [| 2; 1; 1 |] (allocate ctx);
          Alcotest.(check int) (name ^ " exact folds") 1 (folds () - before))
        growth_pairs)

(* The rewrite must keep the input check the reference got from
   [Analysis.bottom_levels]: a NaN or negative time raises, whether it
   is read at allocation 1 or first read after a grow. *)
let test_growth_rejects_invalid_times () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.chain 3)
  in
  let ctx = ctx_of g in
  let corrupt v p x =
    let tables = Array.map Array.copy ctx.Common.tables in
    tables.(v).(p - 1) <- x;
    { ctx with Common.tables }
  in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (label, bad) ->
      List.iter
        (fun (name, allocate, reference) ->
          Alcotest.(check bool) (name ^ ": " ^ label) true
            (raises (fun () -> allocate bad));
          Alcotest.(check bool) (name ^ " reference: " ^ label) true
            (raises (fun () -> reference bad)))
        growth_pairs)
    [
      ("NaN at allocation 1", corrupt 1 1 Float.nan);
      ("negative at allocation 1", corrupt 2 1 (-1.));
      (* tasks 0-2 grow to 3 first; the gain into 4 is positive, so the
         negative time is read right after that grow *)
      ("negative after a grow", corrupt 1 4 (-1.));
    ]

(* A step allocates nothing: the same graph on 2 and on 20 processors
   costs the same setup, though the wider cluster takes 18 more grows
   per task. *)
let test_growth_step_allocation_free () =
  let g =
    Graph.map_tasks
      (fun t -> Emts_ptg.Task.make ~id:t.Emts_ptg.Task.id ~flop:4.3e9 ())
      (Emts_daggen.Shapes.chain 40)
  in
  let words procs =
    let ctx =
      ctx_of
        ~platform:
          (Emts_platform.make ~name:"p" ~processors:procs ~speed_gflops:4.3)
        g
    in
    List.map
      (fun (name, allocate, _) ->
        ignore (allocate ctx);
        let before = Gc.minor_words () in
        let alloc = allocate ctx in
        let w = Gc.minor_words () -. before in
        Alcotest.(check (array int)) (name ^ " fills the cluster")
          (Array.make 40 procs) alloc;
        w)
      growth_pairs
  in
  List.iter2
    (fun narrow wide ->
      Alcotest.(check bool)
        (Printf.sprintf "%.0f words on 2 procs, %.0f on 20" narrow wide)
        true
        (wide -. narrow < 40. *. 18.))
    (words 2) (words 20)

let () =
  Alcotest.run "alloc"
    [
      ( "cpa",
        [
          Alcotest.test_case "chain alpha=0 fills cluster" `Quick
            test_cpa_chain_alpha0;
          Alcotest.test_case "stops at T_A" `Quick test_cpa_stops_at_ta;
          Alcotest.test_case "eligibility respected" `Quick
            test_growth_loop_level_budget;
          Alcotest.test_case "gain values" `Quick test_gain_value;
        ] );
      ( "hcpa",
        [ Alcotest.test_case "criterion differs from CPA" `Quick test_hcpa_differs_from_cpa ] );
      ( "cpr",
        [
          Alcotest.test_case "chain fully widened" `Quick
            test_cpr_improves_chain;
          Alcotest.test_case "never worse than SEQ" `Quick
            test_cpr_never_worse_than_seq;
          Alcotest.test_case "usually beats CPA" `Slow
            test_cpr_beats_cpa_usually;
        ] );
      ( "mcpa",
        [
          Alcotest.test_case "level budget" `Quick test_mcpa_level_budget;
          Alcotest.test_case "budget on random PTGs" `Quick
            test_mcpa_bounds_all_levels_random;
        ] );
      ( "growth-loop",
        [
          Alcotest.test_case "500-task instance = reference" `Quick
            test_growth_matches_reference_500;
          Alcotest.test_case "800-task dense instance = reference" `Quick
            test_growth_matches_reference_800;
          Alcotest.test_case "70-task long run = reference" `Quick
            test_growth_matches_reference_long_run;
          Alcotest.test_case "path walked on the full graph" `Quick
            test_growth_walks_full_graph;
          Alcotest.test_case "exact fold decides a close stop" `Quick
            test_growth_exact_fold;
          Alcotest.test_case "invalid times rejected" `Quick
            test_growth_rejects_invalid_times;
          Alcotest.test_case "steps allocate nothing" `Quick
            test_growth_step_allocation_free;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_growth_matches_reference_scenarios;
              prop_growth_matches_reference_daggen;
            ] );
      ( "delta-critical",
        [
          Alcotest.test_case "diamond" `Quick test_delta_critical_diamond;
          Alcotest.test_case "delta=0" `Quick test_delta_zero_shares_everything;
        ] );
      ( "registry",
        [
          Alcotest.test_case "sequential" `Quick test_sequential_baseline;
          Alcotest.test_case "lookup" `Quick test_registry;
          Alcotest.test_case "allocate convenience" `Quick
            test_allocate_convenience;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "single task" `Quick test_bounds_single_task;
          Alcotest.test_case "area dominates" `Quick
            test_bounds_area_dominates_when_wide;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_heuristics_valid;
            prop_heuristics_deterministic;
            prop_bounds_below_any_schedule;
          ] );
    ]
