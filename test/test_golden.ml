(* Golden-file tests for the textual renderers.

   Gantt charts, SVG charts and CSV exports are consumed outside the
   process (reports, dashboards, the paper's Figure 6) — their output
   must be a pure, byte-stable function of the schedule, across runs
   and across refactors.  Each test renders a deterministic schedule
   and compares against a checked-in .expected file byte for byte.

   To regenerate after an intentional renderer change:

     EMTS_GOLDEN_UPDATE=1 dune runtest test --force

   which rewrites the files in test/golden/ (the dune stanza copies
   them into the sandbox; the update path writes through to the source
   tree). *)

module Schedule = Emts_sched.Schedule
module Graph = Emts_ptg.Graph

let update_mode = Sys.getenv_opt "EMTS_GOLDEN_UPDATE" <> None

(* When updating, write through to the source tree, not the sandbox
   copy.  dune runs tests from the stanza directory, so the source is
   reachable via the project root. *)
let source_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat (Filename.concat root "test") "golden"
  | None -> "golden"

let check_golden name actual =
  let sandbox_path = Filename.concat "golden" (name ^ ".expected") in
  if update_mode then begin
    let path = Filename.concat source_dir (name ^ ".expected") in
    Out_channel.with_open_bin path (fun oc -> output_string oc actual);
    Printf.printf "updated %s\n" path
  end
  else if not (Sys.file_exists sandbox_path) then
    Alcotest.fail
      (Printf.sprintf
         "missing golden file %s — run with EMTS_GOLDEN_UPDATE=1 to create it"
         sandbox_path)
  else
    let expected =
      In_channel.with_open_bin sandbox_path In_channel.input_all
    in
    if String.equal expected actual then ()
    else
      Alcotest.fail
        (Printf.sprintf
           "%s: output differs from golden file (%d bytes vs %d expected) — \
            if the change is intentional, regenerate with \
            EMTS_GOLDEN_UPDATE=1"
           name (String.length actual) (String.length expected))

(* Two fixed schedules: the documented diamond, and a mid-sized daggen
   graph with a seeded random allocation — enough rows to exercise
   layout, scaling and processor-set formatting. *)

let diamond_schedule () =
  let g = Testutil.diamond_graph () in
  let times = Array.init 4 (Testutil.unit_speed_times g) in
  Emts_sched.List_scheduler.run ~graph:g ~times ~alloc:[| 2; 1; 1; 2 |]
    ~procs:2 ()

let daggen_schedule () =
  let rng = Emts_prng.create ~seed:2026 () in
  let g = Testutil.costed_daggen rng ~n:12 in
  let alloc = Emts_check.Gen.random_valid_alloc rng g ~procs:4 in
  let times =
    Testutil.times_for ~model:Emts_model.synthetic
      ~platform:(Emts_platform.make ~name:"golden" ~processors:4
                   ~speed_gflops:1.)
      g alloc
  in
  Emts_sched.List_scheduler.run ~graph:g ~times ~alloc ~procs:4 ()

let render_twice label render =
  let a = render () in
  let b = render () in
  Alcotest.(check string) (label ^ " is deterministic in-process") a b;
  a

let test_csv () =
  let d = diamond_schedule () and g = daggen_schedule () in
  check_golden "diamond.csv"
    (render_twice "diamond csv" (fun () -> Schedule.to_csv d));
  check_golden "daggen.csv"
    (render_twice "daggen csv" (fun () -> Schedule.to_csv g))

let test_gantt () =
  let d = diamond_schedule () and g = daggen_schedule () in
  check_golden "diamond.gantt"
    (render_twice "diamond gantt" (fun () ->
         Emts_sched.Gantt.render ~width:72 d));
  check_golden "daggen.gantt"
    (render_twice "daggen gantt" (fun () ->
         Emts_sched.Gantt.render ~width:72 g));
  check_golden "pair.gantt"
    (render_twice "gantt pair" (fun () ->
         Emts_sched.Gantt.render_pair ~width:100 ~left:("diamond", d)
           ~right:("daggen", g) ()))

let test_svg () =
  let d = diamond_schedule () and g = daggen_schedule () in
  check_golden "diamond.svg"
    (render_twice "diamond svg" (fun () ->
         Emts_sched.Svg.render ~width_px:640 ~title:"diamond" d));
  check_golden "pair.svg"
    (render_twice "svg pair" (fun () ->
         Emts_sched.Svg.render_pair ~width_px:960 ~left:("diamond", d)
           ~right:("daggen", g) ()))

(* Online arrival trace: a pinned 3-DAG sequence against the online
   controller.  The commitment log is the contract the wire protocol,
   the fuzz oracle and the re-planner all share — one byte of drift in
   commit order, times or processor sets must fail loudly here.  The
   DAGs are built explicitly (not via daggen) so the golden file never
   moves under generator changes. *)

(* Costs are in GFLOP-scale so single-processor durations land in
   seconds against the 1 GFLOP/s golden platform — arrival times and
   task durations then overlap, which is the regime worth pinning. *)
let gf = 1e9

let online_diamond () =
  let b = Graph.Builder.create () in
  let t0 = Graph.Builder.add_task ~flop:(10. *. gf) b in
  let t1 = Graph.Builder.add_task ~flop:(20. *. gf) b in
  let t2 = Graph.Builder.add_task ~flop:(30. *. gf) b in
  let t3 = Graph.Builder.add_task ~flop:(40. *. gf) b in
  List.iter
    (fun (src, dst) -> Graph.Builder.add_edge b ~src ~dst)
    [ (t0, t1); (t0, t2); (t1, t3); (t2, t3) ];
  Graph.Builder.build b

let online_chain () =
  let b = Graph.Builder.create () in
  let ids =
    Array.init 3 (fun i ->
        Graph.Builder.add_task ~flop:((15. +. (5. *. float_of_int i)) *. gf) b)
  in
  Graph.Builder.add_edge b ~src:ids.(0) ~dst:ids.(1);
  Graph.Builder.add_edge b ~src:ids.(1) ~dst:ids.(2);
  Graph.Builder.build b

let online_fork () =
  let b = Graph.Builder.create () in
  let root = Graph.Builder.add_task ~flop:(10. *. gf) b in
  for i = 1 to 3 do
    let leaf = Graph.Builder.add_task ~flop:(10. *. float_of_int i *. gf) b in
    Graph.Builder.add_edge b ~src:root ~dst:leaf
  done;
  Graph.Builder.build b

let online_commitment_log ~replanner () =
  let module Online = Emts_serve.Online in
  let cfg =
    Online.config ~replanner ~seed:2026
      ~platform:
        (Emts_platform.make ~name:"golden" ~processors:4 ~speed_gflops:1.)
      ~model:Emts_model.amdahl ()
  in
  let t = Online.create cfg in
  let submit graph at =
    match Online.submit t ~graph ~at with
    | Ok _ -> ()
    | Error m -> Alcotest.fail ("online submit: " ^ m)
  in
  submit (online_diamond ()) 0.;
  submit (online_chain ()) 12.;
  submit (online_fork ()) 30.;
  (match Online.advance t with
  | Ok r when r.Online.complete -> ()
  | Ok _ -> Alcotest.fail "online trace did not complete"
  | Error m -> Alcotest.fail ("online advance: " ^ m));
  String.concat "\n" (List.map Online.pp_committed (Online.commitments t))
  ^ "\n"

let test_online_commitments () =
  let module Online = Emts_serve.Online in
  check_golden "online_commitments.baseline"
    (render_twice "online baseline log" (online_commitment_log ~replanner:Online.Baseline));
  check_golden "online_commitments.emts"
    (render_twice "online emts log"
       (online_commitment_log
          ~replanner:(Online.Emts { mu = 3; lambda = 8; generations = 3 })))

let () =
  Alcotest.run "golden"
    [
      ( "renderers",
        [
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "gantt" `Quick test_gantt;
          Alcotest.test_case "svg" `Quick test_svg;
        ] );
      ( "online",
        [
          Alcotest.test_case "arrival-trace commitments" `Quick
            test_online_commitments;
        ] );
    ]
