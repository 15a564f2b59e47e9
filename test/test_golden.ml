(* Golden-file tests for the textual renderers and for answers.

   Gantt charts, SVG charts and CSV exports are consumed outside the
   process (reports, dashboards, the paper's Figure 6) — their output
   must be a pure, byte-stable function of the schedule, across runs
   and across refactors.  Each test renders a deterministic schedule
   and compares against a checked-in .expected file byte for byte.
   The answers files pin makespans, allocations and commitment logs on
   the paper's clusters, with every float in [%h]: a change there
   changes what EMTS answers.

   To regenerate after an intentional change:

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

(* Answers at cluster scale.  The files above pin hand-built toys; these
   pin what the list-scheduling kernel, the seeding heuristics and the
   EA answer on Chti and Grelon, where availabilities take many distinct
   values.  Every float is printed with [%h], so a one-ulp drift fails.
   The DAGs come from a fixed formula, not from daggen, so the files
   move only when an answer does. *)

(* [n] tasks in layers of [width]: each task after the first layer
   depends on one or two tasks of the layer before, now and then on one
   two layers back, and its work and Amdahl fraction cycle through
   co-prime periods, so times and bottom levels rarely tie. *)
let formula_dag ~n ~width ~salt =
  let b = Graph.Builder.create () in
  for i = 0 to n - 1 do
    let flop = float_of_int (1 + (((i * 37) + (salt * 11)) mod 23)) *. gf in
    let alpha = float_of_int (((i * 13) + salt) mod 9) /. 40. in
    ignore (Graph.Builder.add_task ~flop ~alpha b)
  done;
  for dst = width to n - 1 do
    let prev = ((dst / width) - 1) * width in
    let k = ((dst * 7) + salt) mod width in
    Graph.Builder.add_edge b ~src:(prev + k) ~dst;
    if (dst + salt) mod 3 = 0 then
      Graph.Builder.add_edge b ~src:(prev + ((k + 3) mod width)) ~dst;
    if prev >= width && ((dst * 5) + salt) mod 7 = 0 then
      Graph.Builder.add_edge b ~src:(prev - width + (dst mod width)) ~dst
  done;
  Graph.Builder.build b

let alloc_digest a =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map string_of_int a))))

(* A processor set as runs of consecutive ids: [0-63,100-119]. *)
let procs_runs procs =
  let n = Array.length procs in
  let buf = Buffer.create 16 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && procs.(!j + 1) = procs.(!j) + 1 do
      incr j
    done;
    if !i > 0 then Buffer.add_char buf ',';
    if !j = !i then Buffer.add_string buf (string_of_int procs.(!i))
    else Buffer.add_string buf (Printf.sprintf "%d-%d" procs.(!i) procs.(!j));
    i := !j + 1
  done;
  Buffer.contents buf

(* EMTS5 on four formula DAGs of 60-96 tasks, both clusters, both
   models: per instance the makespan, the evaluation count and the
   allocation, then each seed's makespan and allocation. *)
let offline_answers () =
  let module Alg = Emts.Algorithm in
  let instances =
    Emts_platform.
      [
        ("chti-model1", chti, Emts_model.amdahl, 60, 6, 1);
        ("chti-model2", chti, Emts_model.synthetic, 72, 8, 2);
        ("grelon-model1", grelon, Emts_model.amdahl, 80, 5, 3);
        ("grelon-model2", grelon, Emts_model.synthetic, 96, 12, 4);
      ]
  in
  String.concat ""
    (List.map
       (fun (label, platform, model, n, width, salt) ->
         let graph = formula_dag ~n ~width ~salt in
         let r =
           Alg.run
             ~rng:(Emts_prng.create ~seed:(2026 + salt) ())
             ~config:(Alg.with_domains Testutil.test_domains Alg.emts5)
             ~model ~platform ~graph ()
         in
         Printf.sprintf "%s makespan %h evaluations %d alloc %s\n%s" label
           r.makespan r.ea.Emts_ea.evaluations (alloc_digest r.alloc)
           (String.concat ""
              (List.map
                 (fun (s : Emts.Seeding.seed) ->
                   Printf.sprintf "  seed %s makespan %h alloc %s\n" s.heuristic
                     s.makespan (alloc_digest s.alloc))
                 r.seeds)))
       instances)

(* EMTS5 split into 2 and 3 islands on two of the formula DAGs, under
   Plus and Comma, migrating 1 or 2 individuals every 2 generations: per
   run the makespan, the evaluation count and the allocation, then every
   generation's best, mean and worst over all islands and its fresh
   survivors.  Three islands give the ring a direction, so a ring turned
   the other way, or the islands' streams handed out in another order,
   changes these answers. *)
let island_answers () =
  let module Alg = Emts.Algorithm in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (label, platform, model, n, width, salt) ->
      let graph = formula_dag ~n ~width ~salt in
      List.iter
        (fun (islands, selection, migration_count) ->
          let config =
            Alg.with_domains Testutil.test_domains
              (Alg.with_islands ~migration_interval:2 ~migration_count islands
                 { Alg.emts5 with selection })
          in
          let r =
            Alg.run
              ~rng:(Emts_prng.create ~seed:(2026 + salt) ())
              ~config ~model ~platform ~graph ()
          in
          Printf.bprintf buf
            "%s islands %d %s migrate %d makespan %h evaluations %d alloc %s\n"
            label islands
            (match selection with Emts_ea.Plus -> "plus" | Comma -> "comma")
            migration_count r.makespan r.ea.Emts_ea.evaluations
            (alloc_digest r.alloc);
          List.iter
            (fun (s : Emts_ea.generation_stats) ->
              Printf.bprintf buf "  gen %d best %h mean %h worst %h fresh %d\n"
                s.generation s.best s.mean s.worst s.fresh_survivors)
            r.ea.Emts_ea.history)
        (List.concat_map
           (fun islands ->
             List.concat_map
               (fun selection ->
                 List.map (fun count -> (islands, selection, count)) [ 1; 2 ])
               Emts_ea.[ Plus; Comma ])
           [ 2; 3 ]))
    Emts_platform.
      [
        ("chti-model2", chti, Emts_model.synthetic, 72, 8, 2);
        ("grelon-model1", grelon, Emts_model.amdahl, 80, 5, 3);
      ];
  Buffer.contents buf

(* Three formula DAGs of 40-72 tasks arrive on Grelon under Model 2,
   each while the work before it runs, with the EMTS5 re-planner: once
   exactly as planned, once under lognormal noise (sigma 0.3), where
   every commitment drifts and re-plans.  Each commitment's realised
   start and finish and processor runs, then the makespan and the
   re-plan count. *)
let grelon_commitment_log ?islands ?migration_interval ~noise () =
  let module Online = Emts_serve.Online in
  let cfg =
    Online.config
      ~replanner:(Online.Emts { mu = 5; lambda = 25; generations = 5 })
      ~seed:2026 ~domains:Testutil.test_domains ?islands ?migration_interval
      ~noise ~platform:Emts_platform.grelon ~model:Emts_model.synthetic ()
  in
  let t = Online.create cfg in
  let horizon () =
    List.fold_left
      (fun m (e : Schedule.entry) -> Float.max m e.finish)
      0. (Online.plan t)
  in
  let submit graph at =
    match Online.submit t ~graph ~at with
    | Ok _ -> ()
    | Error m -> Alcotest.fail ("online submit: " ^ m)
  in
  submit (formula_dag ~n:40 ~width:5 ~salt:5) 0.;
  submit (formula_dag ~n:56 ~width:7 ~salt:6) (0.4 *. horizon ());
  submit (formula_dag ~n:72 ~width:9 ~salt:7) (0.5 *. horizon ());
  (match Online.advance t with
  | Ok r when r.Online.complete -> ()
  | Ok _ -> Alcotest.fail "online trace did not complete"
  | Error m -> Alcotest.fail ("online advance: " ^ m));
  String.concat ""
    (List.map
       (fun (c : Emts_simulator.Online.committed) ->
         Printf.sprintf "dag%d t%d %h %h [%s]\n" c.dag c.task c.start c.finish
           (procs_runs c.procs))
       (Online.commitments t))
  ^ Printf.sprintf "makespan %h replans %d\n"
      (Option.get (Online.makespan t))
      (Online.replans t)

let test_cluster_answers () =
  check_golden "offline_answers" (offline_answers ());
  check_golden "online_commitments.grelon"
    ("# no noise\n"
    ^ grelon_commitment_log ~noise:Emts_simulator.Noise.none ()
    ^ "# lognormal noise, sigma 0.3\n"
    ^ grelon_commitment_log
        ~noise:(Emts_simulator.Noise.multiplicative_lognormal ~sigma:0.3)
        ())

let test_island_answers () =
  check_golden "island_answers"
    (island_answers ()
    ^ "# online, Grelon, EMTS5 re-planner on 3 islands migrating every 2 \
       generations\n"
    ^ grelon_commitment_log ~islands:3 ~migration_interval:2
        ~noise:Emts_simulator.Noise.none ())

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
      ( "cluster",
        [
          Alcotest.test_case "offline answers and Grelon commitments" `Quick
            test_cluster_answers;
          Alcotest.test_case "island answers" `Quick test_island_answers;
        ] );
    ]
