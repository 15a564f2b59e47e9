(* Tests for Emts_sched.Schedule: construction, metrics, validation and
   rendering. *)

module S = Emts_sched.Schedule
module Gantt = Emts_sched.Gantt

let check_float = Alcotest.(check (float 1e-9))

let entry task start finish procs = { S.task; start; finish; procs }

(* A valid 2-task schedule on 3 processors:
   task 0 on procs {0,1} during [0,2); task 1 on {1,2} during [2,5). *)
let sample () =
  S.make ~platform_procs:3
    [| entry 0 0. 2. [| 0; 1 |]; entry 1 2. 5. [| 1; 2 |] |]

let test_metrics () =
  let s = sample () in
  Alcotest.(check int) "tasks" 2 (S.task_count s);
  Alcotest.(check int) "procs" 3 (S.platform_procs s);
  check_float "makespan" 5. (S.makespan s);
  check_float "busy time" (4. +. 6.) (S.total_busy_time s);
  check_float "utilization" (10. /. 15.) (S.utilization s);
  Alcotest.(check (array int)) "allocation" [| 2; 2 |] (S.allocation s)

let test_make_validation () =
  (* Each message, and which rule wins when a set breaks two: order is
     checked over the whole set first, then range and repeats in one
     ascending pass. *)
  let reject ?(platform_procs = 3) label expected entries =
    match S.make ~platform_procs entries with
    | _ -> Alcotest.failf "%s: accepted" label
    | exception Invalid_argument m ->
      Alcotest.(check string) label ("Schedule.make: " ^ expected) m
  in
  reject ~platform_procs:0 "no processors" "platform_procs must be >= 1" [||];
  reject "wrong task field" "entry 0 carries task id 1"
    [| entry 1 0. 1. [| 0 |] |];
  reject "finish before start" "task 0 finishes before it starts"
    [| entry 0 2. 1. [| 0 |] |];
  reject "empty proc set" "task 0 uses no processor" [| entry 0 0. 1. [||] |];
  reject "unsorted proc set" "task 0 processor set not sorted"
    [| entry 0 0. 1. [| 2; 0 |] |];
  reject "unsorted in a later entry" "task 1 processor set not sorted"
    [| entry 0 0. 1. [| 0 |]; entry 1 0. 1. [| 0; 2; 1 |] |];
  reject "repeated proc" "task 0 repeats proc 1" [| entry 0 0. 1. [| 1; 1 |] |];
  reject "proc out of range" "task 0 uses unknown proc 3"
    [| entry 0 0. 1. [| 3 |] |];
  reject "negative proc" "task 0 uses unknown proc -1"
    [| entry 0 0. 1. [| -1; 0 |] |];
  reject "NaN time" "NaN time" [| entry 0 nan 1. [| 0 |] |];
  reject "out of order and out of range" "task 0 processor set not sorted"
    [| entry 0 0. 1. [| 5; 0 |] |];
  reject "out of range and repeated" "task 0 uses unknown proc 7"
    [| entry 0 0. 1. [| 0; 7; 7 |] |];
  reject "repeated and out of range" "task 0 repeats proc 1"
    [| entry 0 0. 1. [| 1; 1; 7 |] |]

let test_empty_schedule () =
  let s = S.make ~platform_procs:4 [||] in
  check_float "makespan 0" 0. (S.makespan s);
  check_float "utilization 0" 0. (S.utilization s)

let diamond = Testutil.diamond_graph ()

let test_validate_ok () =
  (* valid schedule for the diamond: 0 then {1,2} in parallel then 3 *)
  let s =
    S.make ~platform_procs:2
      [|
        entry 0 0. 1. [| 0; 1 |];
        entry 1 1. 2. [| 0 |];
        entry 2 1. 3. [| 1 |];
        entry 3 3. 4. [| 0; 1 |];
      |]
  in
  Alcotest.(check bool) "valid" true (S.validate s ~graph:diamond = Ok ())

let test_validate_precedence_violation () =
  let s =
    S.make ~platform_procs:2
      [|
        entry 0 0. 1. [| 0 |];
        entry 1 0.5 2. [| 1 |];  (* starts before parent 0 finishes *)
        entry 2 1. 3. [| 0 |];
        entry 3 3. 4. [| 0; 1 |];
      |]
  in
  match S.validate s ~graph:diamond with
  | Ok () -> Alcotest.fail "precedence violation missed"
  | Error [ S.Precedence { src = 0; dst = 1 } ] -> ()
  | Error vs ->
    Alcotest.fail
      (Format.asprintf "unexpected violations: %a"
         (Format.pp_print_list S.pp_violation)
         vs)

let test_validate_overlap () =
  let s =
    S.make ~platform_procs:1
      [|
        entry 0 0. 2. [| 0 |];
        entry 1 1. 3. [| 0 |];  (* same processor, overlapping *)
      |]
  in
  let g = Testutil.two_chains_graph () in
  (* need a 4-node graph; build a 2-node one instead *)
  ignore g;
  let tasks =
    Array.init 2 (fun id -> Emts_ptg.Task.make ~id ~flop:1. ())
  in
  let g2 = Emts_ptg.Graph.of_tasks_and_edges tasks [] in
  match S.validate s ~graph:g2 with
  | Error [ S.Overlap { proc = 0; first = 0; second = 1 } ] -> ()
  | Ok () -> Alcotest.fail "overlap missed"
  | Error vs ->
    Alcotest.fail
      (Format.asprintf "unexpected: %a"
         (Format.pp_print_list S.pp_violation)
         vs)

(* Identical start times used to be fragile under the old polymorphic
   sort: with equal keys the sweep's pairing depended on unspecified
   ordering.  The monomorphic comparator breaks ties by finish then id,
   so three tasks occupying the same interval report exactly the two
   adjacent overlaps, deterministically. *)
let test_validate_overlap_identical_starts () =
  let tasks = Array.init 3 (fun id -> Emts_ptg.Task.make ~id ~flop:1. ()) in
  let g = Emts_ptg.Graph.of_tasks_and_edges tasks [] in
  let s =
    S.make ~platform_procs:1
      [| entry 0 0. 1. [| 0 |]; entry 1 0. 1. [| 0 |]; entry 2 0. 1. [| 0 |] |]
  in
  (match S.validate s ~graph:g with
  | Ok () -> Alcotest.fail "identical-start overlaps missed"
  | Error vs ->
    let pairs =
      List.filter_map
        (function
          | S.Overlap { proc = 0; first; second } -> Some (first, second)
          | _ -> None)
        vs
    in
    Alcotest.(check (list (pair int int)))
      "adjacent id-order pairs"
      [ (0, 1); (1, 2) ]
      (List.sort compare pairs));
  (* equal starts, different finishes: the shorter interval sorts first
     and the pair is still caught *)
  let tasks2 = Array.init 2 (fun id -> Emts_ptg.Task.make ~id ~flop:1. ()) in
  let g2 = Emts_ptg.Graph.of_tasks_and_edges tasks2 [] in
  let s2 =
    S.make ~platform_procs:1 [| entry 0 0. 2. [| 0 |]; entry 1 0. 1. [| 0 |] |]
  in
  match S.validate s2 ~graph:g2 with
  | Error [ S.Overlap { proc = 0; first = 1; second = 0 } ] -> ()
  | Ok () -> Alcotest.fail "equal-start overlap missed"
  | Error vs ->
    Alcotest.fail
      (Format.asprintf "unexpected: %a"
         (Format.pp_print_list S.pp_violation)
         vs)

let test_validate_allocation_mismatch () =
  let s =
    S.make ~platform_procs:2
      [|
        entry 0 0. 1. [| 0; 1 |];
        entry 1 1. 2. [| 0 |];
        entry 2 2. 3. [| 1 |];
        entry 3 3. 4. [| 0; 1 |];
      |]
  in
  match S.validate ~alloc:[| 2; 2; 1; 2 |] s ~graph:diamond with
  | Error [ S.Allocation_mismatch { task = 1; expected = 2; actual = 1 } ] -> ()
  | Ok () -> Alcotest.fail "mismatch missed"
  | Error _ -> Alcotest.fail "unexpected violations"

(* The rendered violation messages are part of the user-facing error
   surface (CLI diagnostics, fuzzer repro details): pin them. *)
let test_pp_violation_strings () =
  let render v = Format.asprintf "%a" S.pp_violation v in
  Alcotest.(check string)
    "precedence" "task 4 starts before its predecessor 2 finishes"
    (render (S.Precedence { src = 2; dst = 4 }));
  Alcotest.(check string)
    "overlap" "tasks 1 and 3 overlap on processor 0"
    (render (S.Overlap { proc = 0; first = 1; second = 3 }));
  Alcotest.(check string)
    "allocation mismatch" "task 5 uses 1 processors, allocation says 2"
    (render (S.Allocation_mismatch { task = 5; expected = 2; actual = 1 }))

(* A schedule broken in several independent ways reports every
   violation, not just the first one found. *)
let test_validate_reports_all () =
  let s =
    S.make ~platform_procs:2
      [|
        entry 0 0. 2. [| 0 |];
        entry 1 1. 3. [| 0 |];  (* overlaps 0 on proc 0, starts early *)
        entry 2 1. 3. [| 1 |];
        entry 3 3. 4. [| 0 |];  (* allocation says 2 *)
      |]
  in
  match S.validate ~alloc:[| 1; 1; 1; 2 |] s ~graph:diamond with
  | Ok () -> Alcotest.fail "violations missed"
  | Error vs ->
    let has pred = List.exists pred vs in
    Alcotest.(check bool) "precedence reported" true
      (has (function S.Precedence { src = 0; dst = 1 } -> true | _ -> false));
    Alcotest.(check bool) "overlap reported" true
      (has (function
        | S.Overlap { proc = 0; first = 0; second = 1 } -> true
        | _ -> false));
    Alcotest.(check bool) "mismatch reported" true
      (has (function
        | S.Allocation_mismatch { task = 3; expected = 2; actual = 1 } -> true
        | _ -> false))

(* Over-subscription: more simultaneous work than the platform has
   processors must surface as overlaps on some processor. *)
let test_validate_oversubscription () =
  let tasks = Array.init 3 (fun id -> Emts_ptg.Task.make ~id ~flop:1. ()) in
  let g = Emts_ptg.Graph.of_tasks_and_edges tasks [] in
  let s =
    S.make ~platform_procs:2
      [|
        entry 0 0. 2. [| 0; 1 |];
        entry 1 0. 2. [| 0 |];
        entry 2 0. 2. [| 1 |];
      |]
  in
  match S.validate s ~graph:g with
  | Ok () -> Alcotest.fail "over-subscription missed"
  | Error vs ->
    Alcotest.(check bool) "every violation is an overlap" true
      (List.for_all (function S.Overlap _ -> true | _ -> false) vs);
    Alcotest.(check bool) "both processors over-subscribed" true
      (List.length vs >= 2)

let test_adjacent_tasks_share_instant () =
  (* finish of one = start of next on the same processor: legal *)
  let tasks = Array.init 2 (fun id -> Emts_ptg.Task.make ~id ~flop:1. ()) in
  let g = Emts_ptg.Graph.of_tasks_and_edges tasks [ (0, 1) ] in
  let s =
    S.make ~platform_procs:1 [| entry 0 0. 1. [| 0 |]; entry 1 1. 2. [| 0 |] |]
  in
  Alcotest.(check bool) "back-to-back ok" true (S.validate s ~graph:g = Ok ())

let test_csv () =
  let csv = S.to_csv (sample ()) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "task,start,finish,procs" (List.hd lines);
  Alcotest.(check string) "row 0" "0,0,2,0|1" (List.nth lines 1)

let test_gantt_render () =
  let text = Gantt.render ~width:10 (sample ()) in
  Alcotest.(check bool) "has P000 row" true
    (String.split_on_char '\n' text
    |> List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "P000"));
  let capped = Gantt.render ~width:10 ~max_rows:1 (sample ()) in
  Alcotest.(check bool) "row cap note" true
    (String.split_on_char '\n' capped
    |> List.exists (fun l -> String.length l > 3 && String.sub l 0 3 = "..."))

let test_svg_render () =
  let s = sample () in
  let svg = Emts_sched.Svg.render ~width_px:300 ~row_px:10 s in
  Alcotest.(check bool) "svg envelope" true
    (String.length svg > 20 && String.sub svg 0 4 = "<svg");
  let count needle hay =
    let n = String.length needle in
    let hits = ref 0 in
    for i = 0 to String.length hay - n do
      if String.sub hay i n = needle then incr hits
    done;
    !hits
  in
  (* background + one rect per contiguous proc run (2 tasks x 1 run) *)
  Alcotest.(check int) "rect per run + frame" 3 (count "<rect " svg);
  Alcotest.(check bool) "time ticks" true (count "<line " svg = 5);
  Alcotest.(check bool) "tiny width rejected" true
    (try
       ignore (Emts_sched.Svg.render ~width_px:10 s);
       false
     with Invalid_argument _ -> true)

let test_svg_pair_and_save () =
  let s = sample () in
  let pair =
    Emts_sched.Svg.render_pair ~width_px:200 ~left:("A", s) ~right:("B", s) ()
  in
  Alcotest.(check bool) "both captions" true
    (let has needle =
       let n = String.length needle in
       let found = ref false in
       for i = 0 to String.length pair - n do
         if String.sub pair i n = needle then found := true
       done;
       !found
     in
     has "A —" && has "B —");
  let path = Filename.temp_file "emts_svg" ".svg" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Emts_sched.Svg.save s path;
      Alcotest.(check bool) "file written" true (Sys.file_exists path))

let test_gantt_pair_alignment () =
  let a = sample () in
  let b =
    S.make ~platform_procs:2 [| entry 0 0. 1. [| 0 |]; entry 1 1. 2.5 [| 1 |] |]
  in
  let text = Gantt.render_pair ~width:20 ~left:("A", a) ~right:("B", b) () in
  (* 3 processors on the left, 2 on the right -> 3 chart rows + header + 2 summary *)
  let lines = String.split_on_char '\n' (String.trim text) in
  Alcotest.(check int) "line count" 6 (List.length lines)

(* renderers must accept every schedule the list scheduler can emit *)
let arbitrary_schedule =
  QCheck.map
    (fun (g, alloc) ->
      let tables =
        Emts_model.Memo.tabulate_graph Emts_model.synthetic
          (Emts_platform.make ~name:"r12" ~processors:12 ~speed_gflops:1.)
          g
      in
      let times = Emts_sched.Allocation.times_of_tables alloc ~tables in
      Emts_sched.List_scheduler.run ~graph:g ~times ~alloc ~procs:12)
    (Testutil.arbitrary_dag_alloc ~procs:12 ())

let prop_renderers_total =
  QCheck.Test.make ~name:"gantt/svg/csv renderers accept any schedule"
    ~count:100 arbitrary_schedule
    (fun s ->
      String.length (Gantt.render ~width:30 s) > 0
      && String.length (Emts_sched.Svg.render ~width_px:200 s) > 0
      && String.length (S.to_csv s) > 0)

let prop_allocation_round_trip =
  QCheck.Test.make
    ~name:"Schedule.allocation recovers the input allocation" ~count:100
    (Testutil.arbitrary_dag_alloc ~procs:12 ())
    (fun (g, alloc) ->
      let tables =
        Emts_model.Memo.tabulate_graph Emts_model.amdahl
          (Emts_platform.make ~name:"r12" ~processors:12 ~speed_gflops:1.)
          g
      in
      let times = Emts_sched.Allocation.times_of_tables alloc ~tables in
      let s = Emts_sched.List_scheduler.run ~graph:g ~times ~alloc ~procs:12 in
      S.allocation s = alloc)

let () =
  Alcotest.run "schedule"
    [
      ( "construction",
        [
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "validation on make" `Quick test_make_validation;
          Alcotest.test_case "empty" `Quick test_empty_schedule;
        ] );
      ( "validate",
        [
          Alcotest.test_case "valid schedule" `Quick test_validate_ok;
          Alcotest.test_case "precedence violation" `Quick
            test_validate_precedence_violation;
          Alcotest.test_case "overlap" `Quick test_validate_overlap;
          Alcotest.test_case "overlap with identical starts" `Quick
            test_validate_overlap_identical_starts;
          Alcotest.test_case "allocation mismatch" `Quick
            test_validate_allocation_mismatch;
          Alcotest.test_case "adjacency is legal" `Quick
            test_adjacent_tasks_share_instant;
          Alcotest.test_case "violation messages" `Quick
            test_pp_violation_strings;
          Alcotest.test_case "all violations reported" `Quick
            test_validate_reports_all;
          Alcotest.test_case "over-subscription" `Quick
            test_validate_oversubscription;
        ] );
      ( "rendering",
        [
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "gantt" `Quick test_gantt_render;
          Alcotest.test_case "gantt pair" `Quick test_gantt_pair_alignment;
          Alcotest.test_case "svg" `Quick test_svg_render;
          Alcotest.test_case "svg pair + save" `Quick test_svg_pair_and_save;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_renderers_total; prop_allocation_round_trip ] );
    ]
