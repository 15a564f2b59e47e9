(* Tests for the fleet router: config validation, rendezvous ranking,
   stats aggregation, and an in-process fleet end-to-end exchange with
   failover, all-dead refusal, drain, and a backend that starts
   listening only after the router's first probe. *)

module Protocol = Emts_serve.Protocol
module Server = Emts_serve.Server
module Endpoint = Emts_serve.Endpoint
module Backend = Emts_router.Backend
module Router = Emts_router.Router
module J = Emts_resilience.Json

let graph_string ?(tasks = 12) ?(seed = 11) () =
  let rng = Emts_prng.create ~seed () in
  Emts_ptg.Serial.to_string
    (Testutil.costed_daggen rng ~n:tasks ~density:0.5)

let schedule_req ?(algorithm = "emts1") ?(seed = 7) ptg =
  Protocol.Request.schedule ~algorithm ~seed ~ptg ()

(* --- config validation --- *)

let test_config_validation () =
  let reject label config =
    match Router.run ~stop:(fun () -> true) config with
    | Ok () -> Alcotest.fail (label ^ ": accepted")
    | Error _ -> ()
  in
  let one_backend = [ Endpoint.Unix_socket "/tmp/none.sock" ] in
  reject "no backends" { Router.default with Router.socket = Some "/tmp/r" };
  reject "no listeners" { Router.default with Router.backends = one_backend };
  reject "bad max_frame"
    {
      Router.default with
      Router.socket = Some "/tmp/r";
      backends = one_backend;
      max_frame = 0;
    };
  reject "bad probe interval"
    {
      Router.default with
      Router.socket = Some "/tmp/r";
      backends = one_backend;
      probe_interval = 0.;
    };
  reject "negative retries"
    {
      Router.default with
      Router.socket = Some "/tmp/r";
      backends = one_backend;
      retries = -1;
    }

(* --- rendezvous ranking (pure) --- *)

let test_rendezvous_ranking () =
  let names = [ "unix:/a"; "unix:/b"; "unix:/c"; "unix:/d" ] in
  let backends =
    List.map (fun n -> Backend.create (Endpoint.Unix_socket (String.sub n 5 (String.length n - 5)))) names
  in
  let rank key =
    List.map Backend.name (Router.Private.rank_backends backends key)
  in
  let k1 = Router.Private.instance_key ~ptg:"g1" ~platform:"grelon" ~model:"amdahl" in
  let k2 = Router.Private.instance_key ~ptg:"g2" ~platform:"grelon" ~model:"amdahl" in
  (* deterministic: the same key always ranks the same way *)
  Alcotest.(check (list string)) "stable" (rank k1) (rank k1);
  (* every backend appears exactly once *)
  Alcotest.(check (list string)) "permutation" (List.sort compare names)
    (List.sort compare (rank k1));
  (* distinct fields make distinct keys *)
  Alcotest.(check bool) "ptg distinguishes keys" true (k1 <> k2);
  Alcotest.(check bool) "platform distinguishes keys" true
    (Router.Private.instance_key ~ptg:"g1" ~platform:"chti" ~model:"amdahl"
    <> k1);
  (* removing a backend only reassigns the keys it owned: for keys whose
     first choice survives, the first choice is unchanged *)
  let survivors = List.filter (fun b -> Backend.name b <> "unix:/c") backends in
  let keys =
    List.init 50 (fun i ->
        Router.Private.instance_key
          ~ptg:(Printf.sprintf "graph-%d" i)
          ~platform:"grelon" ~model:"amdahl")
  in
  List.iter
    (fun key ->
      match Router.Private.rank_backends backends key with
      | first :: _ when Backend.name first <> "unix:/c" ->
        let first' = List.hd (Router.Private.rank_backends survivors key) in
        Alcotest.(check string) "home backend sticky" (Backend.name first)
          (Backend.name first')
      | _ -> ())
    keys;
  (* the 50 keys actually spread over several backends *)
  let homes =
    List.sort_uniq compare
      (List.map
         (fun key ->
           Backend.name (List.hd (Router.Private.rank_backends backends key)))
         keys)
  in
  Alcotest.(check bool) "keys spread across the fleet" true
    (List.length homes >= 2)

(* --- stats aggregation (pure) --- *)

let test_aggregate_stats () =
  let doc counters gauges hist =
    J.Obj
      [
        ("counters", J.Obj (List.map (fun (k, v) -> (k, J.float v)) counters));
        ("gauges", J.Obj (List.map (fun (k, v) -> (k, J.float v)) gauges));
        ("histograms", J.Obj hist);
      ]
  in
  let hist ~count ~total ~mn ~mx ~p99 =
    J.Obj
      [
        ("count", J.float count);
        ("total", J.float total);
        ("mean", J.float (total /. count));
        ("stddev", J.float 0.1);
        ("min", J.float mn);
        ("max", J.float mx);
        ("p50", J.float (total /. count));
        ("p95", J.float p99);
        ("p99", J.float p99);
      ]
  in
  let b1 =
    doc
      [ ("serve.requests_total", 10.) ]
      [ ("serve.in_flight", 1.) ]
      [ ("serve.solve_s", hist ~count:10. ~total:5. ~mn:0.1 ~mx:1. ~p99:0.9) ]
  in
  let b2 =
    doc
      [ ("serve.requests_total", 4.); ("serve.steals_total", 2.) ]
      [ ("serve.in_flight", 2.) ]
      [ ("serve.solve_s", hist ~count:2. ~total:3. ~mn:0.05 ~mx:2. ~p99:1.8) ]
  in
  let own = doc [ ("router.requests", 14.) ] [] [] in
  let merged =
    Router.Private.aggregate_stats ~own [ ("unix:/a", b1); ("unix:/b", b2) ]
  in
  let get path =
    match
      List.fold_left
        (fun acc k -> Option.bind acc (J.member k))
        (Some merged) path
    with
    | Some v -> (
      match J.to_float v with Ok f -> f | Error m -> Alcotest.fail m)
    | None -> Alcotest.fail (String.concat "/" path ^ " missing")
  in
  Alcotest.(check (float 0.)) "counters summed" 14.
    (get [ "counters"; "serve.requests_total" ]);
  Alcotest.(check (float 0.)) "router's own counters ride along" 14.
    (get [ "counters"; "router.requests" ]);
  Alcotest.(check (float 0.)) "counter present on one backend only" 2.
    (get [ "counters"; "serve.steals_total" ]);
  Alcotest.(check (float 0.)) "gauges summed" 3.
    (get [ "gauges"; "serve.in_flight" ]);
  Alcotest.(check (float 0.)) "histogram count summed" 12.
    (get [ "histograms"; "serve.solve_s"; "count" ]);
  Alcotest.(check (float 1e-9)) "histogram mean recomputed" (8. /. 12.)
    (get [ "histograms"; "serve.solve_s"; "mean" ]);
  Alcotest.(check (float 0.)) "histogram min exact" 0.05
    (get [ "histograms"; "serve.solve_s"; "min" ]);
  Alcotest.(check (float 0.)) "histogram max exact" 2.
    (get [ "histograms"; "serve.solve_s"; "max" ]);
  Alcotest.(check (float 0.)) "p99 is the max over backends" 1.8
    (get [ "histograms"; "serve.solve_s"; "p99" ]);
  (* raw per-backend documents ride along *)
  Alcotest.(check (float 0.)) "backend snapshot intact" 10.
    (get [ "backends"; "unix:/a"; "counters"; "serve.requests_total" ])

(* --- backend handles --- *)

let test_backend_dead_endpoint () =
  let b = Backend.create (Endpoint.Unix_socket "/nonexistent/emts.sock") in
  Alcotest.(check bool) "presumed live before any I/O" true (Backend.is_live b);
  (match
     Backend.roundtrip b ~max_frame:Protocol.default_max_frame
       (Protocol.Request.to_string (Protocol.Request.Ping { id = J.Null }))
   with
  | Ok _ -> Alcotest.fail "roundtrip to nowhere succeeded"
  | Error _ -> ());
  Alcotest.(check bool) "marked dead after the failed dial" false
    (Backend.is_live b);
  Backend.probe b ~timeout_s:0.2 ~max_frame:Protocol.default_max_frame;
  Alcotest.(check bool) "still dead after a failed probe" false
    (Backend.is_live b)

(* --- in-process fleet end-to-end --- *)

let wait_for_file path =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  if not (Sys.file_exists path) then
    Alcotest.fail (path ^ " never appeared")

let with_fleet ?(backends = 2) ?(tune = Fun.id) f =
  let dir = Filename.temp_file "emts_fleet" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let bpaths =
    List.init backends (fun i ->
        Filename.concat dir (Printf.sprintf "b%d.sock" i))
  in
  let rpath = Filename.concat dir "router.sock" in
  let bstops = List.map (fun _ -> Atomic.make false) bpaths in
  let bthreads =
    List.map2
      (fun path stop ->
        Thread.create
          (fun () ->
            Server.run
              ~stop:(fun () -> Atomic.get stop)
              {
                Server.default with
                Server.socket = Some path;
                workers = 1;
                queue_capacity = 64;
              })
          ())
      bpaths bstops
  in
  List.iter wait_for_file bpaths;
  let rstop = Atomic.make false in
  let router_result = ref (Error "router never ran") in
  let rthread =
    Thread.create
      (fun () ->
        router_result :=
          Router.run
            ~stop:(fun () -> Atomic.get rstop)
            (tune
               {
                 Router.default with
                 Router.socket = Some rpath;
                 backends = List.map (fun p -> Endpoint.Unix_socket p) bpaths;
                 probe_interval = 0.2;
                 probe_timeout = 1.0;
               }))
      ()
  in
  wait_for_file rpath;
  let stop_backend i =
    Atomic.set (List.nth bstops i) true;
    Thread.join (List.nth bthreads i)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set rstop true;
      Thread.join rthread;
      List.iter (fun s -> Atomic.set s true) bstops;
      List.iter (fun t -> try Thread.join t with _ -> ()) bthreads;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        (rpath :: bpaths);
      Unix.rmdir dir)
    (fun () ->
      f ~rpath ~bpaths ~stop_backend;
      (* drain: stopping the router must yield Ok and remove its
         socket *)
      Atomic.set rstop true;
      Thread.join rthread;
      (match !router_result with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("router drain: " ^ m));
      Alcotest.(check bool) "router socket removed on drain" false
        (Sys.file_exists rpath))

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let rpc fd req =
  Protocol.write_frame fd (Protocol.Request.to_string req);
  match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
  | Error e -> Alcotest.fail (Protocol.frame_error_to_string e)
  | Ok payload -> (
    match Protocol.Response.of_string payload with
    | Ok r -> r
    | Error m -> Alcotest.fail ("bad response: " ^ m))

let with_conn path f =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

let test_fleet_end_to_end () =
  let ptg = graph_string () in
  with_fleet ~backends:2 @@ fun ~rpath ~bpaths ~stop_backend:_ ->
  (* the router answers ping/health itself *)
  with_conn rpath (fun fd ->
      (match rpc fd (Protocol.Request.Ping { id = J.Str "p" }) with
      | Protocol.Response.Pong { server; _ } ->
        Alcotest.(check string) "router identity" Router.server_id server
      | _ -> Alcotest.fail "expected pong");
      match rpc fd (Protocol.Request.Health { id = J.Null }) with
      | Protocol.Response.Health { live; ready; backends_live; _ } ->
        Alcotest.(check bool) "live" true live;
        Alcotest.(check bool) "ready" true ready;
        Alcotest.(check (option int)) "both backends counted" (Some 2)
          backends_live
      | _ -> Alcotest.fail "expected health");
  (* a schedule forwarded through the router is bit-identical to the
     same request sent to a backend directly *)
  let direct =
    with_conn (List.hd bpaths) (fun fd ->
        rpc fd
          (Protocol.Request.Schedule { id = J.Str "d"; req = schedule_req ptg }))
  in
  let routed =
    with_conn rpath (fun fd ->
        rpc fd
          (Protocol.Request.Schedule { id = J.Str "d"; req = schedule_req ptg }))
  in
  (match (direct, routed) with
  | ( Protocol.Response.Schedule_result a,
      Protocol.Response.Schedule_result b ) ->
    Alcotest.(check (float 0.)) "same makespan" a.Protocol.Response.makespan
      b.Protocol.Response.makespan;
    Alcotest.(check (array int)) "same allocation" a.Protocol.Response.alloc
      b.Protocol.Response.alloc
  | _ -> Alcotest.fail "expected schedule results");
  (* stats aggregates and carries per-backend snapshots *)
  with_conn rpath (fun fd ->
      match rpc fd (Protocol.Request.Stats { id = J.Null }) with
      | Protocol.Response.Stats { stats; _ } ->
        List.iter
          (fun section ->
            if J.member section stats = None then
              Alcotest.fail ("stats missing " ^ section))
          [ "counters"; "gauges"; "histograms"; "backends" ];
        let backends =
          match Option.map J.to_obj (J.member "backends" stats) with
          | Some (Ok fields) -> List.map fst fields
          | _ -> []
        in
        Alcotest.(check int) "one snapshot per backend" 2
          (List.length backends)
      | _ -> Alcotest.fail "expected stats");
  (* migrate frames shard like schedules and are acknowledged *)
  with_conn rpath (fun fd ->
      let tasks = 12 in
      match
        rpc fd
          (Protocol.Request.Migrate
             {
               id = J.Str "m";
               ptg;
               platform = "grelon";
               model = "amdahl";
               migrants = [ Array.make tasks 1 ];
             })
      with
      | Protocol.Response.Migrate_ack { accepted; _ } ->
        Alcotest.(check int) "migrant buffered" 1 accepted
      | _ -> Alcotest.fail "expected migrate ack")

let test_fleet_failover_and_refusal () =
  let ptg = graph_string ~seed:29 () in
  with_fleet ~backends:2 @@ fun ~rpath ~bpaths:_ ~stop_backend ->
  let schedule id =
    with_conn rpath (fun fd ->
        rpc fd
          (Protocol.Request.Schedule { id = J.Str id; req = schedule_req ptg }))
  in
  (match schedule "warm" with
  | Protocol.Response.Schedule_result _ -> ()
  | _ -> Alcotest.fail "warm-up schedule failed");
  (* kill one backend: the fleet must keep answering *)
  stop_backend 0;
  (match schedule "after-kill" with
  | Protocol.Response.Schedule_result _ -> ()
  | Protocol.Response.Error { code; message; _ } ->
    Alcotest.fail (Printf.sprintf "failover failed: %s %s" code message)
  | _ -> Alcotest.fail "unexpected reply after kill");
  (* the prober notices within a couple of sweeps *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec wait_live n =
    let live =
      with_conn rpath (fun fd ->
          match rpc fd (Protocol.Request.Health { id = J.Null }) with
          | Protocol.Response.Health { backends_live = Some n; _ } -> n
          | _ -> -1)
    in
    if live = n then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail (Printf.sprintf "backends_live never reached %d" n)
    else begin
      Thread.delay 0.1;
      wait_live n
    end
  in
  wait_live 1;
  (* kill the last backend: schedules get a typed unavailable error *)
  stop_backend 1;
  match schedule "all-dead" with
  | Protocol.Response.Error { code; _ } ->
    Alcotest.(check string) "typed refusal" Protocol.Error_code.unavailable
      code
  | Protocol.Response.Schedule_result _ ->
    Alcotest.fail "schedule answered with every backend dead"
  | _ -> Alcotest.fail "unexpected reply with every backend dead"

(* The startup race: the router's first probe reaches the backend
   before its daemon listens.  A stand-in listener takes that probe and
   hangs up, as a daemon not up yet fails it; only then does the real
   daemon start on the same socket.  The first request after that must
   be answered, not refused with [unavailable] until the next probe,
   which the long probe interval puts far past the test. *)
let test_backend_listening_after_first_probe () =
  let ptg = graph_string ~seed:31 () in
  let dir = Filename.temp_file "emts_fleet" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let bpath = Filename.concat dir "b.sock" in
  let rpath = Filename.concat dir "router.sock" in
  let gate = Endpoint.listen_fd (Endpoint.Unix_socket bpath) in
  let rstop = Atomic.make false and bstop = Atomic.make false in
  let rthread =
    Thread.create
      (fun () ->
        ignore
          (Router.run
             ~stop:(fun () -> Atomic.get rstop)
             {
               Router.default with
               Router.socket = Some rpath;
               backends = [ Endpoint.Unix_socket bpath ];
               probe_interval = 60.;
               probe_timeout = 1.0;
             }))
      ()
  in
  let bthread = ref None in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set rstop true;
      Thread.join rthread;
      Atomic.set bstop true;
      Option.iter Thread.join !bthread;
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ rpath; bpath ];
      Unix.rmdir dir)
  @@ fun () ->
  (match Unix.select [ gate ] [] [] 10. with
  | [], _, _ -> Alcotest.fail "the router never probed its backend"
  | _ -> Unix.close (fst (Unix.accept ~cloexec:true gate)));
  Unix.close gate;
  Sys.remove bpath;
  bthread :=
    Some
      (Thread.create
         (fun () ->
           Server.run
             ~stop:(fun () -> Atomic.get bstop)
             { Server.default with Server.socket = Some bpath; workers = 1 })
         ());
  (* the daemon answers directly before the router is asked *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_listening () =
    match
      with_conn bpath (fun fd -> rpc fd (Protocol.Request.Ping { id = J.Null }))
    with
    | Protocol.Response.Pong _ -> ()
    | _ -> Alcotest.fail "backend: expected pong"
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      Thread.delay 0.01;
      wait_listening ()
  in
  wait_listening ();
  wait_for_file rpath;
  match
    with_conn rpath (fun fd ->
        rpc fd
          (Protocol.Request.Schedule
             { id = J.Str "first"; req = schedule_req ptg }))
  with
  | Protocol.Response.Schedule_result _ -> ()
  | Protocol.Response.Error { code; message; _ } ->
    Alcotest.failf "first request refused: %s %s" code message
  | _ -> Alcotest.fail "unexpected reply to the first request"

let test_router_rejects_malformed () =
  with_fleet ~backends:1 @@ fun ~rpath ~bpaths:_ ~stop_backend:_ ->
  (* an unparseable payload gets a typed bad_request, and the
     connection keeps working *)
  with_conn rpath (fun fd ->
      Protocol.write_frame fd "this is not json";
      (match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
      | Ok payload -> (
        match Protocol.Response.of_string payload with
        | Ok (Protocol.Response.Error { code; _ }) ->
          Alcotest.(check string) "bad_request" Protocol.Error_code.bad_request
            code
        | _ -> Alcotest.fail "expected a typed error")
      | Error e -> Alcotest.fail (Protocol.frame_error_to_string e));
      match rpc fd (Protocol.Request.Ping { id = J.Null }) with
      | Protocol.Response.Pong _ -> ()
      | _ -> Alcotest.fail "connection dead after bad request")

let () =
  Alcotest.run "router"
    [
      ( "pure",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "rendezvous ranking" `Quick
            test_rendezvous_ranking;
          Alcotest.test_case "stats aggregation" `Quick test_aggregate_stats;
          Alcotest.test_case "dead endpoint" `Quick test_backend_dead_endpoint;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "end to end" `Quick test_fleet_end_to_end;
          Alcotest.test_case "failover and refusal" `Quick
            test_fleet_failover_and_refusal;
          Alcotest.test_case "malformed input" `Quick
            test_router_rejects_malformed;
          Alcotest.test_case "backend listening after the first probe" `Quick
            test_backend_listening_after_first_probe;
        ] );
    ]
