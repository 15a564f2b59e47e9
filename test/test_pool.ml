(* Tests for the persistent worker pool (Emts_pool). *)

module Pool = Emts_pool

let sequential n f =
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- f i
  done;
  out

let pooled ~domains n f =
  Pool.with_pool ~domains @@ fun pool ->
  let out = Array.make n 0. in
  Pool.run pool ~n (fun i -> out.(i) <- f i);
  out

let test_matches_sequential () =
  let f i = Float.of_int (i * i) +. (1. /. Float.of_int (i + 1)) in
  let expected = sequential 100 f in
  List.iter
    (fun domains ->
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "domains %d" domains)
        expected
        (pooled ~domains 100 f))
    [ 1; 2; 4; 7 ]

let test_uneven_work_lands_by_index () =
  (* Wildly uneven item costs: dynamic chunking must still place every
     result in its own slot. *)
  let f i =
    if i mod 13 = 0 then begin
      let acc = ref 0. in
      for k = 1 to 20_000 do
        acc := !acc +. (1. /. Float.of_int k)
      done;
      !acc +. Float.of_int i
    end
    else Float.of_int i
  in
  Alcotest.(check (array (float 0.)))
    "uneven" (sequential 67 f)
    (pooled ~domains:4 67 f)

let test_empty_and_single () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  Pool.run pool ~n:0 (fun _ -> Alcotest.fail "no item to run");
  let hit = ref false in
  Pool.run pool ~n:1 (fun i ->
      Alcotest.(check int) "index 0" 0 i;
      hit := true);
  Alcotest.(check bool) "single item ran" true !hit

let test_pool_reused_across_jobs () =
  (* One pool, many jobs — the per-run usage pattern of the EA. *)
  Pool.with_pool ~domains:3 @@ fun pool ->
  for job = 1 to 20 do
    let n = 10 + job in
    let out = Array.make n (-1) in
    Pool.run pool ~n (fun i -> out.(i) <- i + job);
    Array.iteri
      (fun i v -> Alcotest.(check int) (Printf.sprintf "job %d" job) (i + job) v)
      out
  done

exception Boom of int

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  (* A failing item aborts the job and re-raises the recorded
     exception; every worker must be back waiting (no leaked domain),
     which we observe by running further jobs on the same pool. *)
  let raised =
    try
      Pool.run pool ~n:64 (fun i -> if i = 37 then raise (Boom i));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "exception re-raised" (Some 37) raised;
  let out = Array.make 32 0 in
  Pool.run pool ~n:32 (fun i -> out.(i) <- 2 * i);
  Alcotest.(check int) "pool still works after a failed job" 62 out.(31)

let test_with_pool_reraises_after_shutdown () =
  (* Direct regression for the old evaluate_all leak: the body raising
     must not prevent the workers from being joined, and the original
     exception must survive the cleanup. *)
  Alcotest.check_raises "body exception survives shutdown" (Boom 1)
    (fun () ->
      Pool.with_pool ~domains:4 @@ fun pool ->
      Pool.run pool ~n:8 (fun _ -> ());
      raise (Boom 1))

let test_worker_exception_inside_with_pool () =
  Alcotest.check_raises "worker exception survives shutdown" (Boom 5)
    (fun () ->
      Pool.with_pool ~domains:4 @@ fun pool ->
      Pool.run pool ~n:40 (fun i -> if i = 5 then raise (Boom 5)))

let test_shutdown_idempotent_and_run_rejected () =
  let pool = Pool.create ~domains:2 in
  Pool.run pool ~n:4 (fun _ -> ());
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.(check bool) "run after shutdown rejected" true
    (try
       Pool.run pool ~n:4 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_create_validation () =
  Alcotest.(check bool) "domains 0 rejected" true
    (try
       ignore (Pool.create ~domains:0);
       false
     with Invalid_argument _ -> true);
  let p = Pool.create ~domains:5 in
  Alcotest.(check int) "domains recorded" 5 (Pool.domains p);
  Pool.shutdown p

(* --- fault injection ------------------------------------------------- *)

let with_plan events f =
  Fun.protect
    ~finally:(fun () -> Emts_fault.disarm ())
    (fun () ->
      Emts_fault.arm { Emts_fault.Plan.seed = 0; events };
      f ())

(* Regression for exception-safe chunk claiming: a fault raised at the
   claim step (between the fetch-and-add and the item loop) must land
   in the job's failure slot like an item exception — not kill the
   worker domain — so the run re-raises it and the pool still joins
   and serves later jobs. *)
let test_injected_claim_fault_pool_still_joins () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  with_plan
    [
      {
        Emts_fault.Plan.site = Emts_fault.Site.Pool_claim;
        nth = 2;
        action = Emts_fault.Raise;
      };
    ]
    (fun () ->
      let raised =
        try
          Pool.run pool ~n:64 (fun _ -> ());
          false
        with Emts_fault.Injected _ -> true
      in
      Alcotest.(check bool) "claim fault re-raised" true raised);
  (* Every worker domain is back waiting: the same pool completes a
     clean batch, and with_pool's shutdown join-all does not strand. *)
  let out = Array.make 32 0 in
  Pool.run pool ~n:32 (fun i -> out.(i) <- i + 1);
  Alcotest.(check int) "pool joins and works after the fault" 32 out.(31)

let test_injected_eval_fault_kills_one_worker_mid_batch () =
  Pool.with_pool ~domains:4 @@ fun pool ->
  with_plan
    [
      {
        Emts_fault.Plan.site = Emts_fault.Site.Worker_eval;
        nth = 10;
        action = Emts_fault.Raise;
      };
    ]
    (fun () ->
      let completed = Atomic.make 0 in
      let raised =
        try
          Pool.run pool ~n:64 (fun _ -> Atomic.incr completed);
          false
        with Emts_fault.Injected _ -> true
      in
      Alcotest.(check bool) "eval fault re-raised" true raised;
      (* the job aborted early: the poisoned item and abandoned chunks
         never ran *)
      Alcotest.(check bool) "batch was cut short" true
        (Atomic.get completed < 64));
  let out = Array.make 16 0 in
  Pool.run pool ~n:16 (fun i -> out.(i) <- i);
  Alcotest.(check int) "pool survives a mid-batch worker death" 15 out.(15)

let test_disarmed_fire_is_inert () =
  (* No plan armed: the hooks on the hot path change nothing. *)
  Emts_fault.disarm ();
  let f i = Float.of_int (3 * i) in
  Alcotest.(check (array (float 0.)))
    "disarmed pool run" (sequential 50 f)
    (pooled ~domains:4 50 f)

(* Property: any (domains, n) split produces exactly the sequential
   result array. *)
let prop_pool_matches_sequential =
  QCheck.Test.make ~name:"pool result = sequential result" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 0 200))
    (fun (domains, n) ->
      let f i = Float.of_int (i * 7) +. Float.of_int (i mod 3) in
      pooled ~domains n f = sequential n f)

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "uneven work" `Quick test_uneven_work_lands_by_index;
          Alcotest.test_case "empty and single" `Quick test_empty_and_single;
          Alcotest.test_case "reuse across jobs" `Quick
            test_pool_reused_across_jobs;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "propagates, pool survives" `Quick
            test_exception_propagates_and_pool_survives;
          Alcotest.test_case "with_pool re-raises after join" `Quick
            test_with_pool_reraises_after_shutdown;
          Alcotest.test_case "worker exception inside with_pool" `Quick
            test_worker_exception_inside_with_pool;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_shutdown_idempotent_and_run_rejected;
        ] );
      ( "faults",
        [
          Alcotest.test_case "claim fault: pool still joins" `Quick
            test_injected_claim_fault_pool_still_joins;
          Alcotest.test_case "eval fault kills one worker mid-batch" `Quick
            test_injected_eval_fault_kills_one_worker_mid_batch;
          Alcotest.test_case "disarmed hooks are inert" `Quick
            test_disarmed_fire_is_inert;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_pool_matches_sequential ]);
    ]
