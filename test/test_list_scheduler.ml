(* Tests for the bottom-level list scheduler: hand-computed schedules,
   the online baseline's allotment rule, and the validity/equivalence
   properties the EA's fitness relies on, against the reference spec
   in [Testutil]. *)

module LS = Emts_sched.List_scheduler
module Schedule = Emts_sched.Schedule
module Graph = Emts_ptg.Graph

let check_float = Alcotest.(check (float 1e-9))

let test_single_task () =
  let g = Emts_daggen.Shapes.independent 1 in
  let s = LS.run ~graph:g ~times:[| 3. |] ~alloc:[| 2 |] ~procs:4 () in
  check_float "makespan" 3. (Schedule.makespan s);
  Alcotest.(check (array int)) "first-fit procs" [| 0; 1 |]
    (Schedule.entry s 0).Schedule.procs

let test_chain_serialises () =
  let g = Emts_daggen.Shapes.chain 3 in
  let s =
    LS.run ~graph:g ~times:[| 1.; 2.; 3. |] ~alloc:[| 1; 2; 3 |] ~procs:3 ()
  in
  check_float "makespan = sum" 6. (Schedule.makespan s);
  check_float "t1 starts at 1" 1. (Schedule.entry s 1).Schedule.start;
  check_float "t2 starts at 3" 3. (Schedule.entry s 2).Schedule.start

let test_independent_pack () =
  (* 4 unit tasks of 1 proc each on 2 procs: two waves. *)
  let g = Emts_daggen.Shapes.independent 4 in
  let s =
    LS.run ~graph:g ~times:(Array.make 4 1.) ~alloc:(Array.make 4 1) ~procs:2
      ()
  in
  check_float "two waves" 2. (Schedule.makespan s)

let test_priority_by_bottom_level () =
  (* Two independent tasks, one long one short, one processor: the long
     one (higher bottom level) must be scheduled first. *)
  let g = Emts_daggen.Shapes.independent 2 in
  let s = LS.run ~graph:g ~times:[| 1.; 5. |] ~alloc:[| 1; 1 |] ~procs:1 () in
  check_float "long task first" 0. (Schedule.entry s 1).Schedule.start;
  check_float "short task second" 5. (Schedule.entry s 0).Schedule.start

let test_diamond_parallel_branches () =
  let g = Testutil.diamond_graph () in
  (* times 1 each, allocs 1, two procs: 0; then 1 and 2 in parallel; then 3 *)
  let s =
    LS.run ~graph:g ~times:(Array.make 4 1.) ~alloc:(Array.make 4 1) ~procs:2
      ()
  in
  check_float "makespan" 3. (Schedule.makespan s);
  check_float "branch 1 at t=1" 1. (Schedule.entry s 1).Schedule.start;
  check_float "branch 2 at t=1" 1. (Schedule.entry s 2).Schedule.start

let test_wide_task_waits_for_procs () =
  (* task 1 needs both procs but an unrelated task holds one: it waits. *)
  let g = Emts_daggen.Shapes.independent 2 in
  let s = LS.run ~graph:g ~times:[| 4.; 1. |] ~alloc:[| 1; 2 |] ~procs:2 () in
  (* bottom levels: t0=4 > t1=1, so t0 first on proc 0; t1 needs 2 procs,
     must wait until t0 finishes. *)
  check_float "wide task delayed" 4. (Schedule.entry s 1).Schedule.start;
  check_float "makespan" 5. (Schedule.makespan s)

let test_no_backfilling () =
  (* CPA-style semantics: a task is "ready" once its predecessors are
     *scheduled* (not finished), and ready tasks are consumed strictly
     by decreasing bottom level.  Hence the wide successor c (bl = 2)
     is placed before the independent low-priority task d (bl = 1), and
     d does NOT backfill the idle hole on processor 1. *)
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_task ~name:"left" ~flop:1. b in
  let c = Graph.Builder.add_task ~name:"wide" ~flop:1. b in
  let d = Graph.Builder.add_task ~name:"small" ~flop:1. b in
  Graph.Builder.add_edge b ~src:a ~dst:c;
  let g = Graph.Builder.build b in
  (* times: a=2, c(wide, 2 procs)=2, d=1.  bl: a=4, c=2, d=1. *)
  let s =
    LS.run ~graph:g ~times:[| 2.; 2.; 1. |] ~alloc:[| 1; 2; 1 |] ~procs:2 ()
  in
  ignore (a, d);
  check_float "wide task right after its parent" 2.
    (Schedule.entry s 1).Schedule.start;
  check_float "low-priority task goes last" 4.
    (Schedule.entry s 2).Schedule.start;
  check_float "makespan" 5. (Schedule.makespan s)

let test_input_validation () =
  let g = Emts_daggen.Shapes.independent 2 in
  let reject label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "times length" (fun () ->
      LS.run ~graph:g ~times:[| 1. |] ~alloc:[| 1; 1 |] ~procs:2 ());
  reject "alloc length" (fun () ->
      LS.run ~graph:g ~times:[| 1.; 1. |] ~alloc:[| 1 |] ~procs:2 ());
  reject "alloc too large" (fun () ->
      LS.run ~graph:g ~times:[| 1.; 1. |] ~alloc:[| 3; 1 |] ~procs:2 ());
  reject "alloc zero" (fun () ->
      LS.run ~graph:g ~times:[| 1.; 1. |] ~alloc:[| 0; 1 |] ~procs:2 ());
  reject "negative time" (fun () ->
      LS.run ~graph:g ~times:[| -1.; 1. |] ~alloc:[| 1; 1 |] ~procs:2 ());
  reject "NaN time" (fun () ->
      LS.run ~graph:g ~times:[| nan; 1. |] ~alloc:[| 1; 1 |] ~procs:2 ());
  let times = [| 1.; 1. |] and alloc = [| 1; 1 |] in
  reject "release length" (fun () ->
      LS.run ~release:[| 0. |] ~graph:g ~times ~alloc ~procs:2 ());
  reject "empty release" (fun () ->
      LS.run ~release:[||] ~graph:g ~times ~alloc ~procs:2 ());
  reject "NaN release" (fun () ->
      LS.run ~release:[| 0.; nan |] ~graph:g ~times ~alloc ~procs:2 ());
  reject "avail length" (fun () ->
      LS.makespan ~avail:[| 0. |] ~graph:g ~times ~alloc ~procs:2 ());
  reject "negative avail" (fun () ->
      LS.makespan ~avail:[| 0.; -1. |] ~graph:g ~times ~alloc ~procs:2 ())

(* The bounded evaluation of the paper's conclusion: a cutoff at the
   makespan accepts, any lower one rejects. *)
let test_makespan_bounded () =
  let g = Emts_daggen.Shapes.chain 3 in
  let tables = [| [| 1. |]; [| 2. |]; [| 3. |] |] and alloc = [| 1; 1; 1 |] in
  let ev = Emts_sched.Evaluator.create () in
  let eval cutoff =
    Emts_sched.Evaluator.makespan ev ~graph:g ~tables ~procs:2 ~alloc ~cutoff ()
  in
  let rejected () = Emts_sched.Evaluator.last_rejected ev in
  (* full makespan is 6 *)
  check_float "no cutoff" 6. (eval infinity);
  Alcotest.(check bool) "not rejected" false (rejected ());
  check_float "cutoff = makespan accepted" 6. (eval 6.);
  Alcotest.(check bool) "not rejected at exact cutoff" false (rejected ());
  Alcotest.(check (float 0.)) "tight cutoff rejects" infinity (eval 5.9);
  Alcotest.(check bool) "rejected" true (rejected ());
  Alcotest.(check bool) "NaN cutoff rejected" true
    (try
       ignore (eval nan);
       false
     with Invalid_argument _ -> true)

let test_priority_policies () =
  (* Two independent tasks, one processor: Bottom_level runs the long
     one first; a static priority can force the opposite order. *)
  let g = Emts_daggen.Shapes.independent 2 in
  let times = [| 1.; 5. |] and alloc = [| 1; 1 |] in
  let s =
    LS.run ~priority:LS.Bottom_level ~graph:g ~times ~alloc ~procs:1 ()
  in
  check_float "bl: long first" 0. (Schedule.entry s 1).Schedule.start;
  let s =
    LS.run
      ~priority:(LS.Static [| 10.; 1. |])
      ~graph:g ~times ~alloc ~procs:1 ()
  in
  check_float "static: short first" 0. (Schedule.entry s 0).Schedule.start;
  (* Top_level_first: sources tie at top level 0, then ids break ties *)
  let s =
    LS.run ~priority:LS.Top_level_first ~graph:g ~times ~alloc ~procs:1 ()
  in
  check_float "tlf: id order" 0. (Schedule.entry s 0).Schedule.start;
  (* validation *)
  Alcotest.(check bool) "static length checked" true
    (try
       ignore
         (LS.run ~priority:(LS.Static [| 1. |]) ~graph:g ~times ~alloc
            ~procs:1 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "NaN priority rejected" true
    (try
       ignore
         (LS.run
            ~priority:(LS.Static [| nan; 1. |])
            ~graph:g ~times ~alloc ~procs:1 ());
       false
     with Invalid_argument _ -> true)

let test_heap_equal_priorities () =
  (* Adversarial heap content: many tasks with bitwise-equal priorities
     in the ready heap at once.  The tie-break is the task id, so pops —
     and hence start times on a single processor — must come out in id
     order no matter how the sift pattern shuffles equal keys. *)
  let n = 33 in
  let g = Emts_daggen.Shapes.independent n in
  let times = Array.make n 1. and alloc = Array.make n 1 in
  let check_id_order label s =
    for v = 0 to n - 1 do
      check_float
        (Printf.sprintf "%s: task %d" label v)
        (float_of_int v)
        (Schedule.entry s v).Schedule.start
    done
  in
  check_id_order "equal bottom levels"
    (LS.run ~graph:g ~times ~alloc ~procs:1 ());
  check_id_order "equal static priorities"
    (LS.run
       ~priority:(LS.Static (Array.make n 3.14))
       ~graph:g ~times ~alloc ~procs:1 ());
  check_id_order "equal top levels"
    (LS.run ~priority:LS.Top_level_first ~graph:g ~times ~alloc ~procs:1 ());
  (* -0. and +0. compare equal, so they are a tie, not an ordering:
     task 0 keeps its id-order advantage either way *)
  let g2 = Emts_daggen.Shapes.independent 2 in
  let s =
    LS.run
      ~priority:(LS.Static [| -0.; 0. |])
      ~graph:g2 ~times:[| 1.; 1. |] ~alloc:[| 1; 1 |] ~procs:1 ()
  in
  check_float "-0/+0 tie: id order" 0. (Schedule.entry s 0).Schedule.start

(* Perotin and Sun's compromise allotment, the online baseline's rule:
   the argmin over p of max(t(v,p), p t(v,p) / P). *)
let test_compromise_allotment () =
  let allot tables procs =
    Emts_sched.Online_list.compromise_allotment ~tables ~procs
  in
  let check label expected tables procs =
    Alcotest.(check (array int)) label expected (allot tables procs)
  in
  (* 8/4/3/2 falls to p = 4; a flat row stays at 1; 5/4/4/6 ties at
     p = 2 and 3, and the tie keeps 2 *)
  check "argmin, ties keep the smaller p" [| 4; 1; 2 |]
    [| [| 8.; 4.; 3.; 2. |]; [| 4.; 4.; 4.; 4. |]; [| 5.; 4.; 4.; 6. |] |]
    4;
  (* P bounds the candidates of a longer row, a shorter row bounds its
     own *)
  check "P limits the candidates" [| 2 |] [| [| 6.; 3.; 1. |] |] 2;
  check "a short row limits the candidates" [| 2 |] [| [| 6.; 3. |] |] 8;
  (* p = P: 3 *. 0.1 /. 3. rounds up to succ 0.1, so the area term ties
     p = 3 with p = 2, and the smaller p wins; by time alone p = 3 would *)
  check "the area term counts" [| 2 |] [| [| 1.; Float.succ 0.1; 0.1 |] |] 3;
  let reject label tables procs =
    Alcotest.(check bool) label true
      (try
         ignore (allot tables procs);
         false
       with Invalid_argument _ -> true)
  in
  reject "empty row" [| [| 1. |]; [||] |] 2;
  reject "NaN time" [| [| 1.; nan |] |] 2;
  reject "negative time" [| [| 1.; -1. |] |] 2;
  reject "procs < 1" [| [| 1. |] |] 0

(* --- properties --- *)

let procs = 16

let times_of (g, alloc) =
  let tables =
    Emts_model.Memo.tabulate_graph Emts_model.synthetic
      (Emts_platform.make ~name:"p16" ~processors:procs ~speed_gflops:1.)
      g
  in
  Emts_sched.Allocation.times_of_tables alloc ~tables

let prop_schedule_always_valid =
  QCheck.Test.make ~name:"produced schedules validate" ~count:200
    (Testutil.arbitrary_dag_alloc ~procs ())
    (fun (g, alloc) ->
      let times = times_of (g, alloc) in
      let s = LS.run ~graph:g ~times ~alloc ~procs () in
      Schedule.validate ~alloc s ~graph:g = Ok ())

let prop_makespan_fast_path_agrees =
  QCheck.Test.make ~name:"makespan = Schedule.makespan (run ...)" ~count:200
    (Testutil.arbitrary_dag_alloc ~procs ())
    (fun (g, alloc) ->
      let times = times_of (g, alloc) in
      let fast = LS.makespan ~graph:g ~times ~alloc ~procs () in
      let full = Schedule.makespan (LS.run ~graph:g ~times ~alloc ~procs ()) in
      Float.abs (fast -. full) < 1e-9)

let prop_makespan_bounds =
  QCheck.Test.make ~name:"CP length <= makespan <= sum of times" ~count:200
    (Testutil.arbitrary_dag_alloc ~procs ())
    (fun (g, alloc) ->
      let times = times_of (g, alloc) in
      let m = LS.makespan ~graph:g ~times ~alloc ~procs () in
      let cp =
        Emts_ptg.Analysis.critical_path_length g ~time:(fun v -> times.(v))
      in
      let total = Array.fold_left ( +. ) 0. times in
      cp -. 1e-9 <= m && m <= total +. 1e-9)

let prop_any_priority_schedule_valid =
  QCheck.Test.make ~name:"schedules valid under every priority policy"
    ~count:100
    QCheck.(pair (Testutil.arbitrary_dag_alloc ~procs ()) small_int)
    (fun ((g, alloc), seed) ->
      let times = times_of (g, alloc) in
      let rng = Emts_prng.create ~seed () in
      let random =
        Array.init (Graph.task_count g) (fun _ -> Emts_prng.float rng 1.)
      in
      List.for_all
        (fun priority ->
          let s = LS.run ~priority ~graph:g ~times ~alloc ~procs () in
          Schedule.validate ~alloc s ~graph:g = Ok ())
        [ LS.Bottom_level; LS.Top_level_first; LS.Static random ])

let prop_deterministic =
  QCheck.Test.make ~name:"scheduling is deterministic" ~count:100
    (Testutil.arbitrary_dag_alloc ~procs ())
    (fun (g, alloc) ->
      let times = times_of (g, alloc) in
      let s1 = LS.run ~graph:g ~times ~alloc ~procs () in
      let s2 = LS.run ~graph:g ~times ~alloc ~procs () in
      Schedule.entries s1 = Schedule.entries s2)

(* --- reference spec: [Testutil.reference_entries] --- *)

let same_entries (a : Schedule.entry array) (b : Schedule.entry array) =
  let bits = Int64.bits_of_float in
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Schedule.entry) (y : Schedule.entry) ->
         x.task = y.task
         && Int64.equal (bits x.start) (bits y.start)
         && Int64.equal (bits x.finish) (bits y.finish)
         && x.procs = y.procs)
       a b

(* A daggen DAG on 1..128 processors with a random allocation.  Times
   come from Model 2 tables or from a small set with zeros, so bottom
   levels and availabilities tie often. *)
let reference_instance seed =
  let rng = Emts_prng.create ~seed () in
  let graph = Emts_check.Gen.random_daggen rng ~n:(1 + Emts_prng.int rng 60) in
  let procs = 1 + Emts_prng.int rng 128 in
  let alloc = Emts_check.Gen.random_valid_alloc rng graph ~procs in
  let times =
    if Emts_prng.bool rng then
      Emts_sched.Allocation.times_of_tables alloc
        ~tables:
          (Emts_model.Memo.tabulate_graph Emts_model.synthetic
             (Emts_platform.make ~name:"ref" ~processors:procs ~speed_gflops:1.)
             graph)
    else
      Array.init (Graph.task_count graph) (fun _ ->
          float_of_int (Emts_prng.int rng 4) /. 2.)
  in
  (rng, graph, times, alloc, procs)

(* Every ready-queue policy: the reference pops by the same priorities,
   computed from [Analysis]. *)
let prop_run_matches_reference =
  QCheck.Test.make ~name:"run == sort-based reference, daggen, 1-128 procs"
    ~count:150 QCheck.int
    (fun seed ->
      let rng, graph, times, alloc, procs = reference_instance seed in
      let n = Graph.task_count graph in
      let random = Array.init n (fun _ -> Emts_prng.float rng 1.) in
      List.for_all
        (fun priority ->
          same_entries
            (Schedule.entries (LS.run ~priority ~graph ~times ~alloc ~procs ()))
            (Testutil.reference_entries ~priority ~graph ~times ~alloc ~procs
               ~release:(Array.make n 0.) ~avail:(Array.make procs 0.)))
        [ LS.Bottom_level; LS.Top_level_first; LS.Static random ])

(* Off-grid releases (arbitrary floats, zero for some tasks), and
   availabilities drawn from three levels so processors tie.  Zeros
   come as [0.] and [-0.]: a start computed as [if dr >= a then dr else
   a] instead of [Float.max dr a] keeps a [-0.] release against a [+0.]
   availability. *)
let prop_online_run_matches_reference =
  QCheck.Test.make
    ~name:"release-aware run == sort-based reference, ties and -0."
    ~count:150 QCheck.int
    (fun seed ->
      let rng, graph, times, alloc, procs = reference_instance seed in
      let zero () = if Emts_prng.bool rng then 0. else -0. in
      let release =
        Array.init (Graph.task_count graph) (fun _ ->
            if Emts_prng.bool rng then zero () else Emts_prng.float rng 7.)
      in
      let levels = [| 0.; Emts_prng.float rng 3.; Emts_prng.float rng 6. |] in
      let avail =
        Array.init procs (fun _ ->
            match Emts_prng.int rng 3 with 0 -> zero () | k -> levels.(k))
      in
      same_entries
        (Schedule.entries
           (LS.run ~release ~avail ~graph ~times ~alloc ~procs ()))
        (Testutil.reference_entries ~priority:LS.Bottom_level ~graph ~times
           ~alloc ~procs ~release ~avail))

let () =
  Alcotest.run "list_scheduler"
    [
      ( "hand-computed",
        [
          Alcotest.test_case "single task" `Quick test_single_task;
          Alcotest.test_case "chain" `Quick test_chain_serialises;
          Alcotest.test_case "independent pack" `Quick test_independent_pack;
          Alcotest.test_case "priority order" `Quick
            test_priority_by_bottom_level;
          Alcotest.test_case "diamond" `Quick test_diamond_parallel_branches;
          Alcotest.test_case "wide task waits" `Quick
            test_wide_task_waits_for_procs;
          Alcotest.test_case "no backfilling" `Quick test_no_backfilling;
          Alcotest.test_case "input validation" `Quick test_input_validation;
          Alcotest.test_case "bounded makespan" `Quick test_makespan_bounded;
          Alcotest.test_case "priority policies" `Quick test_priority_policies;
          Alcotest.test_case "heap equal priorities" `Quick
            test_heap_equal_priorities;
          Alcotest.test_case "compromise allotment" `Quick
            test_compromise_allotment;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_schedule_always_valid;
            prop_makespan_fast_path_agrees;
            prop_makespan_bounds;
            prop_any_priority_schedule_valid;
            prop_deterministic;
            prop_run_matches_reference;
            prop_online_run_matches_reference;
          ] );
    ]
