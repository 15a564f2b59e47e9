(* Tests for the discrete-event schedule executor. *)

module Sim = Emts_simulator
module Schedule = Emts_sched.Schedule
module LS = Emts_sched.List_scheduler

let check_float = Alcotest.(check (float 1e-9))

let schedule_of g alloc times procs = LS.run ~graph:g ~times ~alloc ~procs

let diamond_setup () =
  let g = Testutil.diamond_graph () in
  let times = Array.init 4 (Testutil.unit_speed_times g) in
  let alloc = [| 2; 1; 1; 2 |] in
  (g, schedule_of g alloc times 2)

let test_noise_models () =
  let rng = Emts_prng.create ~seed:1 () in
  check_float "none is identity" 3.5
    (Sim.Noise.apply Sim.Noise.none rng ~planned:3.5);
  let slow = Sim.Noise.uniform_slowdown ~max_factor:2. in
  for _ = 1 to 1000 do
    let v = Sim.Noise.apply slow rng ~planned:1. in
    Alcotest.(check bool) "slowdown in [1, 2]" true (1. <= v && v <= 2.)
  done;
  let log_noise = Sim.Noise.multiplicative_lognormal ~sigma:0.3 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "lognormal positive" true
      (Sim.Noise.apply log_noise rng ~planned:1. > 0.)
  done;
  Alcotest.(check bool) "bad sigma" true
    (try
       ignore (Sim.Noise.multiplicative_lognormal ~sigma:(-1.));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad factor" true
    (try
       ignore (Sim.Noise.uniform_slowdown ~max_factor:0.5);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative planned" true
    (try
       ignore (Sim.Noise.apply Sim.Noise.none rng ~planned:(-1.));
       false
     with Invalid_argument _ -> true)

let test_exact_replay () =
  let g, schedule = diamond_setup () in
  let r = Sim.execute ~graph:g ~schedule () in
  Alcotest.(check bool) "realized = planned" true
    (Schedule.entries r.Sim.realized = Schedule.entries schedule);
  check_float "slowdown 1" 1. (Sim.slowdown r)

(* Regression: the list scheduler can park several zero-duration tasks
   at one processor-availability instant that sits *after* an idle gap
   on that processor.  Replaying by (data ready, processors free) alone
   would let the unconstrained zero-duration task slide into the gap;
   the planned start must act as a release time.  Built with static
   priorities so the placement order is forced:

     p0: t1 [0,12]  t4 [12,15]
     p1: t3 [0,2]   t2 [12,12]  t0 [12,12]   (gap [2,12] before the tie)

   t0 is a source with data-ready 0; without the reservation bound it
   would realise at [2,2]. *)
let test_zero_duration_reservation () =
  let g =
    let b = Emts_ptg.Graph.Builder.create () in
    let ids = Array.init 5 (fun _ -> Emts_ptg.Graph.Builder.add_task ~flop:1. b) in
    Emts_ptg.Graph.Builder.add_edge b ~src:ids.(1) ~dst:ids.(2);
    Emts_ptg.Graph.Builder.add_edge b ~src:ids.(1) ~dst:ids.(4);
    Emts_ptg.Graph.Builder.build b
  in
  let times = [| 0.; 12.; 0.; 2.; 3. |] in
  let alloc = [| 1; 1; 1; 1; 1 |] in
  let schedule =
    LS.run_prioritized
      ~priority:(LS.Static [| 1.; 5.; 3.; 4.; 2. |])
      ~graph:g ~times ~alloc ~procs:2
  in
  let e v = Schedule.entry schedule v in
  (* The planned shape the regression depends on — fail loudly if the
     list scheduler's placement ever changes. *)
  check_float "t0 planned start" 12. (e 0).Schedule.start;
  check_float "t2 planned start" 12. (e 2).Schedule.start;
  check_float "gap end on t0's processor" 2. (e 3).Schedule.finish;
  let r = Sim.execute ~graph:g ~schedule () in
  Alcotest.(check bool) "zero-duration tie replays exactly" true
    (Schedule.entries r.Sim.realized = Schedule.entries schedule)

let test_trace_structure () =
  let g, schedule = diamond_setup () in
  let r = Sim.execute ~graph:g ~schedule () in
  Alcotest.(check int) "two events per task" 8 (List.length r.Sim.trace);
  (* chronological *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      Sim.event_time a <= Sim.event_time b && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "chronological" true (sorted r.Sim.trace);
  (* every start precedes its finish *)
  let started = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e with
      | Sim.Start { task; _ } -> Hashtbl.replace started task ()
      | Sim.Finish { task; _ } ->
        Alcotest.(check bool) "finish after start" true
          (Hashtbl.mem started task))
    r.Sim.trace

let test_noise_changes_makespan () =
  let g, schedule = diamond_setup () in
  let r =
    Sim.execute
      ~noise:(Sim.Noise.uniform_slowdown ~max_factor:3.)
      ~rng:(Emts_prng.create ~seed:2 ())
      ~graph:g ~schedule ()
  in
  Alcotest.(check bool) "slower than planned" true (Sim.slowdown r > 1.);
  Alcotest.(check bool) "still valid" true
    (Schedule.validate r.Sim.realized ~graph:g = Ok ())

let test_deterministic_given_seed () =
  let g, schedule = diamond_setup () in
  let run () =
    (Sim.execute
       ~noise:(Sim.Noise.multiplicative_lognormal ~sigma:0.5)
       ~rng:(Emts_prng.create ~seed:3 ())
       ~graph:g ~schedule ())
      .Sim.makespan
  in
  check_float "reproducible" (run ()) (run ())

let test_mismatched_graph_rejected () =
  let g, schedule = diamond_setup () in
  ignore g;
  let other = Emts_daggen.Shapes.chain 2 in
  Alcotest.(check bool) "size mismatch" true
    (try
       ignore (Sim.execute ~graph:other ~schedule ());
       false
     with Invalid_argument _ -> true)

let test_trace_csv () =
  let g, schedule = diamond_setup () in
  let r = Sim.execute ~graph:g ~schedule () in
  let csv = Sim.trace_to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 8 events" 9 (List.length lines);
  Alcotest.(check string) "header" "event,task,time,procs" (List.hd lines)

(* The online commit rule, through the public API: among ready tasks,
   the smallest effective start commits first; at equal effective
   starts a zero-duration task goes first, otherwise the smaller id. *)

module On = Sim.Online

let entry task start finish procs = { Schedule.task; start; finish; procs }

let commit_order st =
  List.map (fun (c : On.committed) -> c.On.task) (On.commitments st)

(* [advance] stops after each drifting commitment: call it until the
   workload is done. *)
let rec run_out st =
  if not (On.complete st) then begin
    ignore (On.advance st);
    run_out st
  end

(* 0 -> 1, and 2 on its own. *)
let edge_and_single () =
  let b = Emts_ptg.Graph.Builder.create () in
  let ids =
    Array.init 3 (fun _ -> Emts_ptg.Graph.Builder.add_task ~flop:1. b)
  in
  Emts_ptg.Graph.Builder.add_edge b ~src:ids.(0) ~dst:ids.(1);
  Emts_ptg.Graph.Builder.build b

let test_online_tie_rule () =
  let st = On.create ~procs:4 () in
  ignore (On.admit st (Emts_daggen.Shapes.independent 4));
  On.set_plan st
    [
      entry 0 1. 2. [| 0 |];
      entry 1 1. 1. [| 1 |];
      entry 2 1. 3. [| 2 |];
      entry 3 1. 1. [| 3 |];
    ];
  ignore (On.advance st);
  Alcotest.(check (list int)) "zero-duration first, then smaller id"
    [ 1; 3; 0; 2 ] (commit_order st)

let test_online_tie_late_ready () =
  (* 2 is ready from the start, 1 only once 0 commits; both then start
     at 1 with positive durations, and the smaller id wins. *)
  let st = On.create ~procs:3 () in
  ignore (On.admit st (edge_and_single ()));
  On.set_plan st
    [ entry 0 0. 1. [| 0 |]; entry 1 1. 2. [| 1 |]; entry 2 1. 2. [| 2 |] ];
  ignore (On.advance st);
  Alcotest.(check (list int)) "lower id ready later still wins" [ 0; 1; 2 ]
    (commit_order st)

(* Task 0 drifts; the re-plan then puts task 1 at the clock and task 2
   at half of 0's realised finish.  Task 1 cannot start before that
   finish, through its predecessor ([same_proc = false]) or its busy
   processor ([same_proc = true]), so task 2 commits first: the order
   follows effective starts, not planned starts or ids. *)
let drift_case ~same_proc () =
  let graph =
    if same_proc then Emts_daggen.Shapes.independent 3 else edge_and_single ()
  in
  let p1 = if same_proc then 0 else 1 in
  let st =
    On.create ~procs:3
      ~noise:(Sim.Noise.uniform_slowdown ~max_factor:2.)
      ~rng:(Emts_prng.create ~seed:5 ())
      ()
  in
  ignore (On.admit st graph);
  On.set_plan st
    [ entry 0 0. 1. [| 0 |]; entry 1 1. 2. [| p1 |]; entry 2 1. 2. [| 2 |] ];
  let r = On.advance st in
  Alcotest.(check bool) "task 0 drifted" true r.On.drifted;
  let f0 = (List.hd (On.commitments st)).On.finish in
  let now = On.now st in
  On.set_plan st
    [
      entry 1 now (now +. 1.) [| p1 |];
      entry 2 (f0 /. 2.) ((f0 /. 2.) +. 1.) [| 2 |];
    ];
  run_out st;
  Alcotest.(check (list int)) "effective-start order" [ 0; 2; 1 ]
    (commit_order st);
  let start v =
    (List.find (fun (c : On.committed) -> c.On.task = v) (On.commitments st))
      .On.start
  in
  check_float "task 2 at its planned start" (f0 /. 2.) (start 2);
  check_float "task 1 at task 0's realised finish" f0 (start 1)

(* properties over random graphs and allocations *)

let arbitrary_sim_input =
  QCheck.map
    (fun (g, alloc) ->
      let platform =
        Emts_platform.make ~name:"sim16" ~processors:16 ~speed_gflops:1.
      in
      let tables =
        Emts_model.Memo.tabulate_graph Emts_model.synthetic platform g
      in
      let times = Emts_sched.Allocation.times_of_tables alloc ~tables in
      (g, LS.run ~graph:g ~times ~alloc ~procs:16))
    (Testutil.arbitrary_dag_alloc ~procs:16 ())

let prop_exact_replay =
  QCheck.Test.make ~name:"noise-free execution reproduces the schedule"
    ~count:150 arbitrary_sim_input
    (fun (g, schedule) ->
      let r = Sim.execute ~graph:g ~schedule () in
      Schedule.entries r.Sim.realized = Schedule.entries schedule)

let prop_noisy_execution_valid =
  QCheck.Test.make ~name:"noisy executions stay valid" ~count:100
    arbitrary_sim_input
    (fun (g, schedule) ->
      let r =
        Sim.execute
          ~noise:(Sim.Noise.multiplicative_lognormal ~sigma:0.4)
          ~rng:(Emts_prng.create ~seed:7 ())
          ~graph:g ~schedule ()
      in
      Schedule.validate r.Sim.realized ~graph:g = Ok ())

let prop_slowdown_bounded =
  QCheck.Test.make
    ~name:"uniform slowdown(f): makespan within [planned, f * planned]"
    ~count:100 arbitrary_sim_input
    (fun (g, schedule) ->
      let f = 2.5 in
      let r =
        Sim.execute
          ~noise:(Sim.Noise.uniform_slowdown ~max_factor:f)
          ~rng:(Emts_prng.create ~seed:8 ())
          ~graph:g ~schedule ()
      in
      r.Sim.makespan >= r.Sim.planned_makespan -. 1e-9
      && r.Sim.makespan <= (f *. r.Sim.planned_makespan) +. 1e-9)

let () =
  Alcotest.run "simulator"
    [
      ( "noise",
        [ Alcotest.test_case "models" `Quick test_noise_models ] );
      ( "execution",
        [
          Alcotest.test_case "exact replay" `Quick test_exact_replay;
          Alcotest.test_case "zero-duration reservation" `Quick
            test_zero_duration_reservation;
          Alcotest.test_case "trace structure" `Quick test_trace_structure;
          Alcotest.test_case "noise changes makespan" `Quick
            test_noise_changes_makespan;
          Alcotest.test_case "deterministic" `Quick
            test_deterministic_given_seed;
          Alcotest.test_case "graph mismatch" `Quick
            test_mismatched_graph_rejected;
          Alcotest.test_case "trace csv" `Quick test_trace_csv;
        ] );
      ( "online",
        [
          Alcotest.test_case "commit tie rule" `Quick test_online_tie_rule;
          Alcotest.test_case "tie won by a later-ready lower id" `Quick
            test_online_tie_late_ready;
          Alcotest.test_case "drift: predecessor's realised finish" `Quick
            (drift_case ~same_proc:false);
          Alcotest.test_case "drift: busy processor" `Quick
            (drift_case ~same_proc:true);
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_exact_replay; prop_noisy_execution_valid; prop_slowdown_bounded ] );
    ]
