(* Tests for the fitness evaluator: bit-identical equivalence with the
   from-scratch list-scheduler path over random mutation chains
   (including cutoffs, duplicates and instance rebinds), at cluster
   scale, and with online release / initial-availability bindings
   against [Online_list]; the certified rejection bound at cutoffs one
   ulp either side of the makespan; plus the zero-allocation budget the
   hot path is designed around, for accepted and rejected calls. *)

module Ev = Emts_sched.Evaluator
module LS = Emts_sched.List_scheduler
module OL = Emts_sched.Online_list
module Graph = Emts_ptg.Graph

let bits = Int64.bits_of_float
let float_eq a b = Int64.equal (bits a) (bits b)

(* From-scratch reference: [infinity] on rejection, like the evaluator. *)
let reference ~graph ~tables ~procs ~alloc ~cutoff =
  let times = Emts_sched.Allocation.times_of_tables alloc ~tables in
  match LS.makespan_bounded ~graph ~times ~alloc ~procs ~cutoff with
  | Some m -> m
  | None -> infinity

(* Random execution-time tables drawn from a small discrete set, so
   distinct allocations frequently share bitwise-equal times and
   bottom levels tie. *)
let make_tables rng g ~procs =
  Array.init (Graph.task_count g) (fun _ ->
      Array.init procs (fun _ -> float_of_int (Emts_prng.int rng 8) /. 2.))

let check_against_reference ~what ev ~graph ~tables ~procs ~alloc ~cutoff =
  let expected = reference ~graph ~tables ~procs ~alloc ~cutoff in
  let got = Ev.makespan ev ~graph ~tables ~procs ~alloc ~cutoff () in
  if not (float_eq expected got) then
    Alcotest.failf "%s: delta %h <> from-scratch %h" what got expected;
  if Ev.last_rejected ev <> (expected = infinity && cutoff < infinity) then
    Alcotest.failf "%s: rejection flag disagrees with the reference" what

(* One mutation chain on one instance: start from a random allocation,
   repeatedly flip a few alleles (the first and last ones included) or,
   like an EA offspring, a third of them, under varying cutoffs,
   checking every evaluation bitwise against [reference]. *)
let run_chain ?release ?avail0 ~reference rng ev ~graph ~tables ~procs ~steps
    =
  let n = Graph.task_count graph in
  let alloc = Emts_check.Gen.random_valid_alloc rng graph ~procs in
  let best = ref infinity in
  for step = 0 to steps - 1 do
    let flip m =
      for _ = 1 to m do
        alloc.(Emts_prng.int rng n) <- 1 + Emts_prng.int rng procs
      done
    in
    (match step mod 7 with
    | 0 -> () (* duplicate genome *)
    | 1 -> alloc.(0) <- 1 + Emts_prng.int rng procs
    | 2 -> alloc.(n - 1) <- 1 + Emts_prng.int rng procs
    | 6 -> flip (1 + (n / 3))
    | _ -> flip (1 + Emts_prng.int rng 3));
    let cutoff =
      match step mod 5 with
      | 3 when !best < infinity -> !best *. Emts_prng.float_in rng 0.5 1.2
      | 4 when !best < infinity -> !best (* exactly at the best: tight *)
      | _ -> infinity
    in
    let got =
      Ev.makespan ev ?release ?avail0 ~graph ~tables ~procs ~alloc ~cutoff ()
    in
    let expected = reference ~alloc ~cutoff in
    if not (float_eq expected got) then
      Alcotest.failf "step %d (procs %d, cutoff %h): delta %h <> reference %h"
        step procs cutoff got expected;
    if got < !best then best := got
  done

let prop_delta_equals_scratch =
  QCheck.Test.make ~name:"delta == from-scratch over mutation chains"
    ~count:60
    QCheck.(pair (Testutil.arbitrary_dag ~max_n:40 ()) small_int)
    (fun (graph, seed) ->
      let rng = Emts_prng.create ~seed () in
      let procs = 1 + Emts_prng.int rng 8 in
      let tables = make_tables rng graph ~procs in
      let ev = Ev.create () in
      run_chain rng ev ~graph ~tables ~procs ~steps:40
        ~reference:(reference ~graph ~tables ~procs);
      true)

(* Cluster widths: the paper's Chti (20) and Grelon (120), or any width
   up to 128. *)
let cluster_procs rng =
  match Emts_prng.int rng 3 with
  | 0 -> 20
  | 1 -> 120
  | _ -> 1 + Emts_prng.int rng 128

(* Model 1 (monotone) or Model 2 (non-monotone) tables for a [procs]-wide
   platform, or the small discrete tables of [make_tables]. *)
let cluster_tables rng graph ~procs =
  let platform =
    Emts_platform.make ~name:"test" ~processors:procs ~speed_gflops:1.
  in
  match Emts_prng.int rng 3 with
  | 0 -> Emts_model.Memo.tabulate_graph Emts_model.amdahl platform graph
  | 1 -> Emts_model.Memo.tabulate_graph Emts_model.synthetic platform graph
  | _ -> make_tables rng graph ~procs

let prop_delta_equals_scratch_cluster =
  QCheck.Test.make ~name:"delta == from-scratch at cluster scale" ~count:100
    QCheck.(pair (Testutil.arbitrary_dag ~max_n:40 ()) small_int)
    (fun (graph, seed) ->
      let rng = Emts_prng.create ~seed () in
      let procs = cluster_procs rng in
      let tables = cluster_tables rng graph ~procs in
      run_chain rng (Ev.create ()) ~graph ~tables ~procs ~steps:40
        ~reference:(reference ~graph ~tables ~procs);
      true)

(* Release times and initial availabilities drawn from a small set, so
   values repeat; [0.] and [-0.] both occur, and [avail0] is unsorted. *)
let online_floats rng len =
  Array.init len (fun _ ->
      match Emts_prng.int rng 5 with
      | 0 -> 0.
      | 1 -> -0.
      | _ -> float_of_int (Emts_prng.int rng 6) /. 2.)

(* [Online_list] has no cutoff; a bounded run rejects exactly when some
   task, hence the makespan, finishes past it. *)
let online_reference ~graph ~tables ~procs ~release ~avail0 ~alloc ~cutoff =
  let times = Emts_sched.Allocation.times_of_tables alloc ~tables in
  let m = OL.makespan ~graph ~times ~alloc ~procs ~release ~avail:avail0 in
  if m > cutoff then infinity else m

let prop_delta_equals_online =
  QCheck.Test.make ~name:"delta with release/avail0 == Online_list" ~count:100
    QCheck.(pair (Testutil.arbitrary_dag ~max_n:40 ()) small_int)
    (fun (graph, seed) ->
      let rng = Emts_prng.create ~seed () in
      let procs = cluster_procs rng in
      let tables = cluster_tables rng graph ~procs in
      let release = online_floats rng (Graph.task_count graph) in
      let avail0 = online_floats rng procs in
      run_chain ~release ~avail0 rng (Ev.create ()) ~graph ~tables ~procs
        ~steps:40
        ~reference:(online_reference ~graph ~tables ~procs ~release ~avail0);
      true)

let test_first_and_last_allele () =
  (* Deterministic check of the two boundary mutation sites on a chain
     (every task on the critical path) and on independent tasks (every
     task a source). *)
  List.iter
    (fun graph ->
      let procs = 3 in
      let rng = Emts_prng.create ~seed:7 () in
      let tables = make_tables rng graph ~procs in
      let n = Graph.task_count graph in
      let ev = Ev.create () in
      let alloc = Array.make n 1 in
      check_against_reference ~what:"initial" ev ~graph ~tables ~procs ~alloc
        ~cutoff:infinity;
      alloc.(0) <- procs;
      check_against_reference ~what:"allele 0" ev ~graph ~tables ~procs ~alloc
        ~cutoff:infinity;
      alloc.(n - 1) <- 2;
      check_against_reference ~what:"last allele" ev ~graph ~tables ~procs
        ~alloc ~cutoff:infinity;
      check_against_reference ~what:"duplicate" ev ~graph ~tables ~procs
        ~alloc ~cutoff:infinity)
    [ Emts_daggen.Shapes.chain 12; Emts_daggen.Shapes.independent 12 ]

let test_rebind_across_instances () =
  (* One evaluator alternating between two instances of different sizes
     and platform widths: every rebind must land on a correct run, and
     no scratch state may leak across instances. *)
  let rng = Emts_prng.create ~seed:11 () in
  let g1 = Testutil.random_triangular_dag rng ~n:20 ~p:0.2 in
  let g2 = Testutil.random_triangular_dag rng ~n:33 ~p:0.35 in
  let t1 = make_tables rng g1 ~procs:4 and t2 = make_tables rng g2 ~procs:7 in
  let ev = Ev.create () in
  for round = 0 to 11 do
    let graph, tables, procs =
      if round mod 2 = 0 then (g1, t1, 4) else (g2, t2, 7)
    in
    let alloc = Emts_check.Gen.random_valid_alloc rng graph ~procs in
    check_against_reference
      ~what:(Printf.sprintf "round %d" round)
      ev ~graph ~tables ~procs ~alloc ~cutoff:infinity
  done;
  let s = Ev.stats ev in
  Alcotest.(check int) "every call is a full run" 12 s.Ev.full_runs

let test_rejections_interleaved () =
  (* A cutoff rejection leaves the scratch half-written; later
     evaluations must not notice.  Interleave rejected and accepted
     evaluations and keep checking bitwise. *)
  let rng = Emts_prng.create ~seed:23 () in
  let graph = Testutil.random_triangular_dag rng ~n:30 ~p:0.25 in
  let procs = 5 in
  let tables = make_tables rng graph ~procs in
  let ev = Ev.create () in
  let n = Graph.task_count graph in
  let alloc = Array.make n 1 in
  let full = reference ~graph ~tables ~procs ~alloc ~cutoff:infinity in
  List.iter
    (fun cutoff ->
      check_against_reference ~what:"interleaved" ev ~graph ~tables ~procs
        ~alloc ~cutoff;
      alloc.(Emts_prng.int rng n) <- 1 + Emts_prng.int rng procs)
    [ infinity; full /. 2.; infinity; 0.; full; infinity; full /. 4.; infinity ]

let test_input_validation () =
  let graph = Emts_daggen.Shapes.chain 3 in
  let tables = [| [| 1.; 2. |]; [| 1.; 2. |]; [| 1.; 2. |] |] in
  let ev = Ev.create () in
  let raises what f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "alloc too long" (fun () ->
      Ev.makespan ev ~graph ~tables ~procs:2 ~alloc:[| 1; 1; 1; 1 |]
        ~cutoff:infinity ());
  raises "alloc out of range" (fun () ->
      Ev.makespan ev ~graph ~tables ~procs:2 ~alloc:[| 1; 3; 1 |]
        ~cutoff:infinity ());
  raises "NaN cutoff" (fun () ->
      Ev.makespan ev ~graph ~tables ~procs:2 ~alloc:[| 1; 1; 1 |]
        ~cutoff:Float.nan ());
  raises "NaN time" (fun () ->
      Ev.makespan ev ~graph
        ~tables:[| [| 1. |]; [| Float.nan |]; [| 1. |] |]
        ~procs:1 ~alloc:[| 1; 1; 1 |] ~cutoff:infinity ())

(* The rounding case the padding exists for.  On the chain 0 -> 1 -> 2
   with times 1, 2^-53, 2^-53 on one processor every finish rounds back
   to 1, so the makespan is 1; but bl(0) = 1 + 2^-52, so an unpadded
   bound [start + bl > cutoff] would reject the schedule at cutoff 1. *)
let test_rounding_chain () =
  let graph = Emts_daggen.Shapes.chain 3 in
  let tiny = Float.ldexp 1. (-53) in
  let tables = [| [| 1. |]; [| tiny |]; [| tiny |] |] in
  let alloc = [| 1; 1; 1 |] in
  let ev = Ev.create () in
  let check what cutoff expected =
    let got = Ev.makespan ev ~graph ~tables ~procs:1 ~alloc ~cutoff () in
    if not (float_eq expected got) then
      Alcotest.failf "%s: got %h, expected %h" what got expected
  in
  check "unbounded" infinity 1.;
  check "cutoff at the makespan" 1. 1.;
  Alcotest.(check bool) "not rejected" false (Ev.last_rejected ev);
  check "cutoff one ulp below" (Float.pred 1.) infinity;
  Alcotest.(check bool) "rejected" true (Ev.last_rejected ev)

(* Daggen DAGs with Model 2 tables: times are not dyadic, so the two
   sums the bound compares really round differently.  With [m] the
   unbounded makespan, a cutoff of [m] or its successor must return [m]
   and a cutoff of its predecessor must reject — with and without
   releases and initial availabilities, also drawn off the dyadic grid. *)
let prop_bound_at_the_makespan =
  QCheck.Test.make ~name:"rejects exactly above the makespan" ~count:100
    QCheck.(pair (int_range 1 60) small_int)
    (fun (n, seed) ->
      let rng = Emts_prng.create ~seed () in
      let graph = Emts_check.Gen.random_daggen rng ~n in
      let procs = cluster_procs rng in
      let platform =
        Emts_platform.make ~name:"test" ~processors:procs ~speed_gflops:1.
      in
      let tables =
        Emts_model.Memo.tabulate_graph Emts_model.synthetic platform graph
      in
      let n = Graph.task_count graph in
      let ev = Ev.create () in
      let online = Emts_prng.bool rng in
      let release, avail0 =
        if not online then (None, None)
        else
          let scale = tables.(0).(0) in
          let draw len =
            Array.init len (fun _ ->
                if Emts_prng.bool rng then 0. else Emts_prng.float rng scale)
          in
          (Some (draw n), Some (draw procs))
      in
      for _ = 1 to 5 do
        let alloc = Emts_check.Gen.random_valid_alloc rng graph ~procs in
        let eval cutoff =
          Ev.makespan ev ?release ?avail0 ~graph ~tables ~procs ~alloc ~cutoff
            ()
        in
        let m = eval infinity in
        List.iter
          (fun cutoff ->
            let got = eval cutoff in
            if cutoff >= m then begin
              if not (float_eq got m) then
                Alcotest.failf "cutoff %h >= makespan %h: got %h" cutoff m got;
              if Ev.last_rejected ev then
                Alcotest.failf "cutoff %h >= makespan %h: rejected" cutoff m
            end
            else if not (got = infinity && Ev.last_rejected ev) then
              Alcotest.failf "cutoff %h < makespan %h: got %h, not rejected"
                cutoff m got)
          [ m; Float.pred m; Float.succ m ]
      done;
      true)

let test_stats_and_metrics_accounting () =
  (* Diamond 0 -> {1, 2} -> 3 with the critical path 0-2-3 of length
     12.  At cutoff 5 the bound rejects at the very first pop (0 + 12 >
     5), before any step completes; a finish-only rule would schedule
     the source (finish 1) and reject only at task 2 (finish 11). *)
  let graph = Testutil.diamond_graph () in
  let procs = 2 in
  let tables = [| [| 1.; 1. |]; [| 1.; 2. |]; [| 10.; 10. |]; [| 1.; 1. |] |] in
  let ev = Ev.create () in
  let alloc = Array.make 4 1 in
  let rejections () =
    Option.value ~default:0
      (Emts_obs.Metrics.find_counter "sched.delta.cutoff_rejections")
  in
  Emts_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Emts_obs.Metrics.set_enabled false)
  @@ fun () ->
  Alcotest.(check (float 0.)) "unbounded makespan" 12.
    (Ev.makespan ev ~graph ~tables ~procs ~alloc ~cutoff:infinity ());
  let s = Ev.stats ev in
  Alcotest.(check int) "one full run" 1 s.Ev.full_runs;
  Alcotest.(check int) "four steps" 4 s.Ev.scheduled_steps;
  let before = rejections () in
  Alcotest.(check (float 0.)) "rejected" infinity
    (Ev.makespan ev ~graph ~tables ~procs ~alloc ~cutoff:5. ());
  let s = Ev.stats ev in
  Alcotest.(check int) "two full runs" 2 s.Ev.full_runs;
  Alcotest.(check int) "no step completed" 4 s.Ev.scheduled_steps;
  Alcotest.(check int) "one cutoff rejection" (before + 1) (rejections ());
  Alcotest.(check int) "no incremental runs" 0 s.Ev.incremental_runs;
  Alcotest.(check int) "no reused steps" 0 s.Ev.reused_steps

(* The allocation budget the hot path is designed around.  Steady state
   (instance bound, buffers warm) allocates nothing inside the
   evaluator; the only per-call allocation left is the boxed float
   crossing the function boundary (OCaml's calling convention), two
   words.  The budget below is deliberately far under one small
   scratch array, so any reintroduced per-eval allocation fails loudly.
   The second loop holds rejected calls to the same budget. *)
let test_steady_state_allocation () =
  let rng = Emts_prng.create ~seed:5 () in
  let graph = Testutil.random_triangular_dag rng ~n:60 ~p:0.15 in
  let procs = 16 in
  let tables = make_tables rng graph ~procs in
  let n = Graph.task_count graph in
  let ev = Ev.create () in
  let alloc = Emts_check.Gen.random_valid_alloc rng graph ~procs in
  (* warm up: bind the instance and grow every buffer *)
  let best = ref infinity in
  for _ = 1 to 50 do
    alloc.(Emts_prng.int rng n) <- 1 + Emts_prng.int rng procs;
    best :=
      Float.min !best
        (Ev.makespan ev ~graph ~tables ~procs ~alloc ~cutoff:infinity ())
  done;
  (* pre-draw mutation sites so the loop body allocates nothing itself *)
  let rounds = 1000 in
  let sites = Array.init rounds (fun _ -> Emts_prng.int rng n) in
  let values = Array.init rounds (fun _ -> 1 + Emts_prng.int rng procs) in
  let sink = Array.make 1 0. in
  let rejected = Array.make 1 0 in
  let loop ~cutoff i =
    alloc.(sites.(i)) <- values.(i);
    sink.(0) <-
      sink.(0) +. Ev.makespan ev ~graph ~tables ~procs ~alloc ~cutoff ();
    if Ev.last_rejected ev then rejected.(0) <- rejected.(0) + 1
  in
  let check what per_eval =
    if per_eval > 64. then
      Alcotest.failf "%s: allocation %.1f bytes/eval (budget 64)" what per_eval
  in
  check "steady state"
    (Testutil.bytes_per_call ~rounds (loop ~cutoff:infinity));
  Alcotest.(check bool) "sink finite" true (Float.is_finite sink.(0));
  (* well under the best warm-up makespan every call rejects, about
     halfway through its schedule *)
  check "rejected calls"
    (Testutil.bytes_per_call ~rounds (loop ~cutoff:(0.7 *. !best)));
  Alcotest.(check int) "every call rejected" rounds rejected.(0)

let () =
  Alcotest.run "evaluator"
    [
      ( "delta",
        [
          QCheck_alcotest.to_alcotest prop_delta_equals_scratch;
          QCheck_alcotest.to_alcotest prop_delta_equals_scratch_cluster;
          QCheck_alcotest.to_alcotest prop_delta_equals_online;
          Alcotest.test_case "first and last allele" `Quick
            test_first_and_last_allele;
          Alcotest.test_case "rebind across instances" `Quick
            test_rebind_across_instances;
          Alcotest.test_case "rejections interleaved with accepts" `Quick
            test_rejections_interleaved;
          Alcotest.test_case "input validation" `Quick test_input_validation;
          Alcotest.test_case "stats accounting" `Quick
            test_stats_and_metrics_accounting;
        ] );
      ( "bound",
        [
          Alcotest.test_case "rounding chain" `Quick test_rounding_chain;
          QCheck_alcotest.to_alcotest prop_bound_at_the_makespan;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state is allocation-free" `Quick
            test_steady_state_allocation;
        ] );
    ]
