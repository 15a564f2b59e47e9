(* Tests for the serving subsystem: frame codec, request/response JSON,
   engine determinism across pool widths, deadline best-so-far
   behaviour, the instance-keyed cache pool, and an in-process
   end-to-end daemon exchange. *)

module Protocol = Emts_serve.Protocol
module Engine = Emts_serve.Engine
module Server = Emts_serve.Server
module J = Emts_resilience.Json

let graph_string ?(tasks = 12) ?(seed = 11) () =
  let rng = Emts_prng.create ~seed () in
  Emts_ptg.Serial.to_string
    (Testutil.costed_daggen rng ~n:tasks ~density:0.5)

let schedule_req ?(algorithm = "emts5") ?(seed = 7) ?deadline_s ?budget_s
    ?trace_id ptg =
  Protocol.Request.schedule ~algorithm ~seed ?deadline_s ?budget_s ?trace_id
    ~ptg ()

(* --- framing --- *)

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () -> f r w)

let frame_error =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Protocol.frame_error_to_string e))
    ( = )

let read_result =
  Alcotest.(result string frame_error)

let test_frame_round_trip () =
  with_pipe @@ fun r w ->
  let payloads = [ ""; "x"; String.make 1000 '\xff'; "{\"verb\":\"ping\"}" ] in
  List.iter
    (fun payload ->
      Protocol.write_frame w payload;
      Alcotest.check read_result "round trip" (Ok payload)
        (Protocol.read_frame r ~max_size:Protocol.default_max_frame))
    payloads

let test_frame_closed_and_truncated () =
  with_pipe (fun r w ->
      Unix.close w;
      Alcotest.check read_result "eof at boundary" (Error Protocol.Closed)
        (Protocol.read_frame r ~max_size:16));
  with_pipe (fun r w ->
      let partial = String.sub (Protocol.encode_frame "hello") 0 6 in
      let _ = Unix.write_substring w partial 0 (String.length partial) in
      Unix.close w;
      Alcotest.check read_result "eof inside header" (Error Protocol.Truncated)
        (Protocol.read_frame r ~max_size:16));
  with_pipe (fun r w ->
      let frame = Protocol.encode_frame "hello" in
      let _ = Unix.write_substring w frame 0 (String.length frame - 2) in
      Unix.close w;
      Alcotest.check read_result "eof inside payload" (Error Protocol.Truncated)
        (Protocol.read_frame r ~max_size:16))

let test_frame_bad_magic_and_too_large () =
  with_pipe (fun r w ->
      let junk = "XMTS\x00\x00\x00\x01z" in
      let _ = Unix.write_substring w junk 0 (String.length junk) in
      Alcotest.check read_result "magic" (Error Protocol.Bad_magic)
        (Protocol.read_frame r ~max_size:16));
  with_pipe (fun r w ->
      (* The length field announces more than the cap; the refusal must
         come from the header alone, before any payload arrives. *)
      let header = "EMTS\x00\x10\x00\x00" in
      let _ = Unix.write_substring w header 0 (String.length header) in
      Alcotest.check read_result "too large"
        (Error (Protocol.Too_large 0x100000))
        (Protocol.read_frame r ~max_size:16))

(* --- request / response JSON --- *)

(* One canonical request per wire verb.  The table is driven by
   [Protocol.Request.verbs] — adding a verb to the protocol without
   extending this function fails the round-trip test instead of
   silently skipping coverage. *)
let canonical_request = function
  | "ping" -> Protocol.Request.Ping { id = J.Str "a" }
  | "stats" -> Protocol.Request.Stats { id = J.Num 3. }
  | "metrics" -> Protocol.Request.Metrics { id = J.Str "m" }
  | "health" -> Protocol.Request.Health { id = J.Str "h" }
  | "schedule" ->
    Protocol.Request.Schedule
      {
        id = J.Null;
        req =
          schedule_req ~algorithm:"mcpa" ~seed:123 ~deadline_s:1.5
            ~budget_s:0.25 "graph text\nwith lines";
      }
  | "migrate" ->
    Protocol.Request.Migrate
      {
        id = J.Str "mg";
        ptg = "g";
        platform = "grelon";
        model = "amdahl";
        migrants = [ [| 1; 2 |]; [| 2; 2 |] ];
      }
  | "submit" ->
    Protocol.Request.Submit
      {
        id = J.Str "sub";
        session = "s1";
        ptg = "g";
        at = 2.5;
        platform = "grelon";
        model = "amdahl";
        algorithm = "emts5";
        seed = 42;
        islands = 2;
        migration_interval = 3;
        migration_count = 1;
      }
  | "advance" ->
    Protocol.Request.Advance { id = J.Str "adv"; session = "s1"; to_ = Some 7.25 }
  | v ->
    Alcotest.fail
      (Printf.sprintf
         "verb %S has no canonical request — extend canonical_request" v)

let test_request_round_trip () =
  let reqs =
    List.map canonical_request Protocol.Request.verbs
    @ [
        Protocol.Request.Schedule
          { id = J.Str "t"; req = schedule_req ~trace_id:"t1f3a-9.B_x" "g" };
        (* islands = 1 omits the island fields on the wire *)
        Protocol.Request.Submit
          {
            id = J.Null;
            session = "s2";
            ptg = "g";
            at = 0.;
            platform = "grelon";
            model = "amdahl";
            algorithm = "baseline";
            seed = 0x5EED_CA11;
            islands = 1;
            migration_interval = 5;
            migration_count = 1;
          };
        (* no "to" field: run the admitted workload to completion *)
        Protocol.Request.Advance { id = J.Str "a0"; session = "s2"; to_ = None };
      ]
  in
  List.iter
    (fun r ->
      match Protocol.Request.of_string (Protocol.Request.to_string r) with
      | Ok r' ->
        Alcotest.(check bool) "round trip" true (r = r')
      | Error m -> Alcotest.fail m)
    reqs

let test_request_defaults_and_errors () =
  (match Protocol.Request.of_string {|{"verb":"schedule","ptg":"g"}|} with
  | Ok (Protocol.Request.Schedule { req; _ }) ->
    Alcotest.(check string) "platform default" "grelon" req.platform;
    Alcotest.(check string) "model default" "amdahl" req.model;
    Alcotest.(check string) "algorithm default" "emts5" req.algorithm
  | Ok _ -> Alcotest.fail "wrong verb"
  | Error m -> Alcotest.fail m);
  let bad s =
    match Protocol.Request.of_string s with
    | Ok _ -> Alcotest.fail ("accepted: " ^ s)
    | Error _ -> ()
  in
  bad "not json at all";
  bad {|{"ptg":"g"}|};
  bad {|{"verb":"schedule"}|};
  bad {|{"verb":"launch-missiles"}|};
  bad {|{"verb":"schedule","ptg":"g","deadline_s":-1}|};
  bad {|{"verb":"schedule","ptg":"g","budget_s":0}|};
  (* trace_id must be 1..64 chars of [A-Za-z0-9._-] when present *)
  bad {|{"verb":"schedule","ptg":"g","trace_id":123}|};
  bad {|{"verb":"schedule","ptg":"g","trace_id":""}|};
  bad {|{"verb":"schedule","ptg":"g","trace_id":"has space"}|};
  bad
    (Printf.sprintf {|{"verb":"schedule","ptg":"g","trace_id":"%s"}|}
       (String.make 65 'a'));
  (match
     Protocol.Request.of_string
       (Printf.sprintf {|{"verb":"schedule","ptg":"g","trace_id":"%s"}|}
          (String.make 64 'a'))
   with
  | Ok (Protocol.Request.Schedule { req; _ }) ->
    Alcotest.(check (option string)) "64-char trace_id accepted"
      (Some (String.make 64 'a'))
      req.trace_id
  | Ok _ -> Alcotest.fail "wrong verb"
  | Error m -> Alcotest.fail m);
  (* submit: session is mandatory and bounded, everything else mirrors
     schedule's defaults plus [at = 0] and one island *)
  (match
     Protocol.Request.of_string {|{"verb":"submit","session":"s","ptg":"g"}|}
   with
  | Ok
      (Protocol.Request.Submit
        { at; platform; model; algorithm; seed; islands; _ }) ->
    Alcotest.(check (float 0.)) "at defaults to 0" 0. at;
    Alcotest.(check string) "submit platform default" "grelon" platform;
    Alcotest.(check string) "submit model default" "amdahl" model;
    Alcotest.(check string) "submit algorithm default" "baseline" algorithm;
    Alcotest.(check int) "submit seed default" 0x5EED_CA11 seed;
    Alcotest.(check int) "submit islands default" 1 islands
  | Ok _ -> Alcotest.fail "wrong verb"
  | Error m -> Alcotest.fail m);
  bad {|{"verb":"submit","ptg":"g"}|};
  bad {|{"verb":"submit","session":"","ptg":"g"}|};
  bad
    (Printf.sprintf {|{"verb":"submit","session":"%s","ptg":"g"}|}
       (String.make 129 's'));
  bad {|{"verb":"submit","session":"s"}|};
  bad {|{"verb":"submit","session":"s","ptg":"g","at":-1}|};
  bad {|{"verb":"submit","session":"s","ptg":"g","at":"soon"}|};
  bad {|{"verb":"submit","session":"s","ptg":"g","islands":0}|};
  bad {|{"verb":"submit","session":"s","ptg":"g","migration_count":-1}|};
  (* advance: "to" optional (run to completion), never NaN or negative *)
  bad {|{"verb":"advance"}|};
  bad {|{"verb":"advance","session":""}|};
  bad {|{"verb":"advance","session":"s","to":-0.5}|};
  bad {|{"verb":"advance","session":"s","to":"later"}|};
  match Protocol.Request.of_string {|{"verb":"advance","session":"s"}|} with
  | Ok (Protocol.Request.Advance { to_; _ }) ->
    Alcotest.(check bool) "advance default runs to completion" true
      (to_ = None)
  | Ok _ -> Alcotest.fail "wrong verb"
  | Error m -> Alcotest.fail m

let test_response_round_trip () =
  let resps =
    [
      Protocol.Response.Pong { id = J.Str "a"; server = Server.server_id };
      Protocol.Response.Error
        {
          id = J.Null;
          code = Protocol.Error_code.overloaded;
          message = "queue full";
          retry_after_ms = None;
        };
      Protocol.Response.Error
        {
          id = J.Str "shed";
          code = Protocol.Error_code.overloaded;
          message = "shedding load";
          retry_after_ms = Some 120;
        };
      Protocol.Response.Error
        {
          id = J.Str "wd";
          code = Protocol.Error_code.deadline_exceeded;
          message = "watchdog";
          retry_after_ms = None;
        };
      Protocol.Response.Health
        { id = J.Str "h"; live = true; ready = false; draining = true;
          backends_live = None };
      Protocol.Response.Health
        { id = J.Str "h2"; live = true; ready = true; draining = false;
          backends_live = Some 2 };
      Protocol.Response.Migrate_ack { id = J.Str "mg"; accepted = 3 };
      Protocol.Response.Stats
        { id = J.Null; stats = J.Obj [ ("x", J.Num 1.) ] };
      Protocol.Response.Metrics
        { id = J.Str "m"; body = "# TYPE emts_x counter\nemts_x_total 1\n# EOF\n" };
      Protocol.Response.Schedule_result
        {
          id = J.Str "r1";
          algorithm = "EMTS5";
          makespan = 12.5;
          alloc = [| 1; 2; 3 |];
          tasks = 3;
          procs = 8;
          utilization = 83.25;
          platform = "grelon";
          queue_s = 0.001;
          solve_s = 0.25;
          total_s = 0.251;
          deadline_hit = false;
          generations_done = 5;
          evaluations = 129;
          trace_id = None;
        };
      Protocol.Response.Schedule_result
        {
          id = J.Str "r2";
          algorithm = "MCPA";
          makespan = 3.25;
          alloc = [| 2 |];
          tasks = 1;
          procs = 4;
          utilization = 10.;
          platform = "grelon";
          queue_s = 0.;
          solve_s = 0.01;
          total_s = 0.01;
          deadline_hit = true;
          generations_done = 0;
          evaluations = 0;
          trace_id = Some "t4cafe-1";
        };
      Protocol.Response.Submit_result
        { id = J.Str "sb"; session = "s1"; dag = 2; tasks = 37; now = 4.5;
          replans = 3 };
      Protocol.Response.Advance_result
        {
          id = J.Str "ad1";
          session = "s1";
          now = 9.25;
          committed = 14;
          drifts = 1;
          replans = 4;
          complete = false;
          makespan = None;
          bound = 8.75;
        };
      Protocol.Response.Advance_result
        {
          id = J.Null;
          session = "s2";
          now = 31.5;
          committed = 37;
          drifts = 0;
          replans = 3;
          complete = true;
          makespan = Some 31.5;
          bound = 28.;
        };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.Response.of_string (Protocol.Response.to_string r) with
      | Ok r' -> Alcotest.(check bool) "round trip" true (r = r')
      | Error m -> Alcotest.fail m)
    resps

(* --- engine --- *)

let with_engine ?(pool_domains = 1) ?(capacity = 1024) f =
  let caches = Engine.caches ~capacity ~max_instances:4 in
  let e = Engine.create ~pool_domains ~caches () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f caches e)

let handle_exn e req ~deadline =
  match Engine.handle e req ~deadline with
  | Ok o -> o
  | Error m -> Alcotest.fail m

(* The response to a request must be a function of the request alone:
   same outcome whatever the pool width and whether caches are on. *)
let test_engine_determinism () =
  let ptg = graph_string () in
  let outcomes =
    List.map
      (fun (pool_domains, capacity) ->
        with_engine ~pool_domains ~capacity (fun _ e ->
            handle_exn e (schedule_req ptg) ~deadline:None))
      [ (1, 1024); (3, 1024); (2, 0) ]
  in
  match outcomes with
  | first :: rest ->
    List.iter
      (fun o ->
        Alcotest.(check (float 0.)) "makespan" first.Engine.makespan
          o.Engine.makespan;
        Alcotest.(check (array int)) "alloc" first.Engine.alloc o.Engine.alloc)
      rest
  | [] -> assert false

let test_engine_repeat_hits_cache () =
  let ptg = graph_string () in
  with_engine (fun caches e ->
      let a = handle_exn e (schedule_req ptg) ~deadline:None in
      Alcotest.(check int) "one instance cached" 1
        (Engine.cache_instances caches);
      let b = handle_exn e (schedule_req ptg) ~deadline:None in
      Alcotest.(check (float 0.)) "same makespan" a.Engine.makespan
        b.Engine.makespan;
      Alcotest.(check (array int)) "same alloc" a.Engine.alloc b.Engine.alloc)

let test_engine_cache_instances_bounded () =
  with_engine (fun caches e ->
      for seed = 1 to 9 do
        ignore
          (handle_exn e (schedule_req (graph_string ~seed ())) ~deadline:None)
      done;
      Alcotest.(check bool) "bounded" true
        (Engine.cache_instances caches <= 4))

let test_engine_heuristic_and_errors () =
  let ptg = graph_string () in
  with_engine (fun _ e ->
      let o = handle_exn e (schedule_req ~algorithm:"mcpa" ptg) ~deadline:None in
      Alcotest.(check string) "label" "MCPA" o.Engine.algorithm;
      Alcotest.(check bool) "positive makespan" true (o.Engine.makespan > 0.);
      let expect_err req =
        match Engine.handle e req ~deadline:None with
        | Ok _ -> Alcotest.fail "expected an error"
        | Error _ -> ()
      in
      expect_err (schedule_req "not a graph");
      expect_err (schedule_req ~algorithm:"no-such-algorithm" ptg);
      expect_err { (schedule_req ptg) with Protocol.Request.platform = "no-such-platform" })

(* A deadline in the past still yields a complete, valid answer: the
   EA stops at the first generation boundary and reports best-so-far. *)
let test_engine_deadline_best_so_far () =
  let ptg = graph_string ~tasks:20 () in
  with_engine (fun _ e ->
      let full =
        handle_exn e (schedule_req ~algorithm:"emts10" ptg) ~deadline:None
      in
      let cut =
        handle_exn e
          (schedule_req ~algorithm:"emts10" ptg)
          ~deadline:(Some (Emts_obs.Clock.now () -. 1.))
      in
      Alcotest.(check bool) "deadline reported" true cut.Engine.deadline_hit;
      Alcotest.(check bool) "stopped early" true
        (cut.Engine.generations_done < full.Engine.generations_done);
      Alcotest.(check int) "alloc covers every task"
        (Array.length full.Engine.alloc)
        (Array.length cut.Engine.alloc);
      Alcotest.(check bool) "valid makespan" true
        (Float.is_finite cut.Engine.makespan && cut.Engine.makespan > 0.))

(* --- end-to-end over a real socket --- *)

(* Work stealing must not change what is computed, only which worker
   computes it: the same pipelined burst answers bit-identically with
   stealing on and off, and the stealing run exports its per-deque
   telemetry. *)
let test_server_steal_identity () =
  let burst = 10 in
  let ptgs = List.init 3 (fun i -> graph_string ~tasks:10 ~seed:(40 + i) ()) in
  let run_server ~steal =
    let dir = Filename.temp_file "emts_steal" ".d" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let path = Filename.concat dir "emts.sock" in
    let stop = Atomic.make false in
    let server =
      Thread.create
        (fun () ->
          Server.run
            ~stop:(fun () -> Atomic.get stop)
            { Server.default with Server.socket = Some path; workers = 2;
              queue_capacity = 2 * burst; steal })
        ()
    in
    let deadline = Unix.gettimeofday () +. 10. in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      Thread.delay 0.02
    done;
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join server;
        if Sys.file_exists path then Sys.remove path;
        Unix.rmdir dir)
      (fun () ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            (* Pipeline the whole burst before reading a single reply so
               the deques actually fill and the idle worker must steal. *)
            List.iteri
              (fun k ptg ->
                Protocol.write_frame fd
                  (Protocol.Request.to_string
                     (Protocol.Request.Schedule
                        {
                          id = J.Str (string_of_int k);
                          req = schedule_req ~seed:(100 + k) ptg;
                        })))
              (List.init burst (fun k -> List.nth ptgs (k mod 3)));
            let results = Hashtbl.create burst in
            for _ = 1 to burst do
              match
                Protocol.read_frame fd ~max_size:Protocol.default_max_frame
              with
              | Error e -> Alcotest.fail (Protocol.frame_error_to_string e)
              | Ok payload -> (
                match Protocol.Response.of_string payload with
                | Ok (Protocol.Response.Schedule_result r) ->
                  let k =
                    match r.Protocol.Response.id with
                    | J.Str s -> s
                    | _ -> Alcotest.fail "unexpected id"
                  in
                  Hashtbl.replace results k
                    (r.Protocol.Response.makespan, r.Protocol.Response.alloc)
                | Ok _ -> Alcotest.fail "expected a schedule result"
                | Error m -> Alcotest.fail ("bad response: " ^ m))
            done;
            let stats =
              Protocol.write_frame fd
                (Protocol.Request.to_string
                   (Protocol.Request.Stats { id = J.Null }));
              match
                Protocol.read_frame fd ~max_size:Protocol.default_max_frame
              with
              | Ok payload -> (
                match Protocol.Response.of_string payload with
                | Ok (Protocol.Response.Stats { stats; _ }) -> stats
                | _ -> Alcotest.fail "expected stats")
              | Error e -> Alcotest.fail (Protocol.frame_error_to_string e)
            in
            (results, stats)))
  in
  let steal_results, steal_stats = run_server ~steal:true in
  let fifo_results, _ = run_server ~steal:false in
  for k = 0 to burst - 1 do
    let key = string_of_int k in
    let m1, a1 = Hashtbl.find steal_results key in
    let m2, a2 = Hashtbl.find fifo_results key in
    Alcotest.(check (float 0.)) ("makespan " ^ key) m2 m1;
    Alcotest.(check (array int)) ("alloc " ^ key) a2 a1
  done;
  (* The stealing run exports its lane telemetry through stats. *)
  let gauges = J.member "gauges" steal_stats in
  List.iter
    (fun lane ->
      match Option.bind gauges (J.member ("serve.deque_depth." ^ lane)) with
      | Some _ -> ()
      | None -> Alcotest.fail ("missing serve.deque_depth." ^ lane))
    [ "0"; "1" ];
  (match
     Option.bind (J.member "counters" steal_stats)
       (J.member "serve.steals_total")
   with
  | Some v -> (
    match J.to_int v with
    | Ok n -> Alcotest.(check bool) "steals counted" true (n >= 0)
    | Error m -> Alcotest.fail m)
  | None -> Alcotest.fail "missing serve.steals_total")

let test_server_end_to_end () =
  let dir = Filename.temp_file "emts_serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "emts.sock" in
  let stop = Atomic.make false in
  let server =
    Thread.create
      (fun () ->
        Server.run
          ~stop:(fun () -> Atomic.get stop)
          { Server.default with Server.socket = Some path; workers = 2 })
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server;
      if Sys.file_exists path then Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let connect () =
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      in
      let roundtrip fd req =
        Protocol.write_frame fd (Protocol.Request.to_string req);
        match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
        | Ok payload -> (
          match Protocol.Response.of_string payload with
          | Ok r -> r
          | Error m -> Alcotest.fail ("bad response: " ^ m))
        | Error e -> Alcotest.fail (Protocol.frame_error_to_string e)
      in
      (* A connection poisoned by a malformed frame is closed... *)
      let bad = connect () in
      let junk = "GARBAGEGARBAGE" in
      let _ = Unix.write_substring bad junk 0 (String.length junk) in
      (match Protocol.read_frame bad ~max_size:Protocol.default_max_frame with
      | Ok payload -> (
        match Protocol.Response.of_string payload with
        | Ok (Protocol.Response.Error { code; _ }) ->
          Alcotest.(check string) "malformed code"
            Protocol.Error_code.malformed_frame code
        | _ -> Alcotest.fail "expected an error response")
      | Error _ -> Alcotest.fail "expected an error response before close");
      Unix.close bad;
      (* ... while a fresh connection on the same server still works,
         and a bad payload in a sound frame keeps its connection. *)
      let fd = connect () in
      (match roundtrip fd (Protocol.Request.Ping { id = J.Str "t" }) with
      | Protocol.Response.Pong { server; _ } ->
        Alcotest.(check string) "server id" Server.server_id server
      | _ -> Alcotest.fail "expected pong");
      Protocol.write_frame fd "this is not json";
      (match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
      | Ok payload -> (
        match Protocol.Response.of_string payload with
        | Ok (Protocol.Response.Error { code; _ }) ->
          Alcotest.(check string) "bad payload code"
            Protocol.Error_code.bad_request code
        | _ -> Alcotest.fail "expected an error response")
      | Error e -> Alcotest.fail (Protocol.frame_error_to_string e));
      let ptg = graph_string () in
      (match
         roundtrip fd
           (Protocol.Request.Schedule
              { id = J.Str "s1"; req = schedule_req ptg })
       with
      | Protocol.Response.Schedule_result r ->
        Alcotest.(check string) "id echoed" "s1"
          (match r.Protocol.Response.id with J.Str s -> s | _ -> "?");
        Alcotest.(check int) "alloc length" 12
          (Array.length r.Protocol.Response.alloc)
      | _ -> Alcotest.fail "expected a schedule result");
      (match roundtrip fd (Protocol.Request.Stats { id = J.Null }) with
      | Protocol.Response.Stats { stats; _ } -> (
        match J.member "counters" stats with
        | Some (J.Obj _) -> ()
        | _ -> Alcotest.fail "stats missing counters")
      | _ -> Alcotest.fail "expected stats");
      (* The metrics verb answers with a complete OpenMetrics text
         exposition on the same connection. *)
      (match roundtrip fd (Protocol.Request.Metrics { id = J.Str "m" }) with
      | Protocol.Response.Metrics { body; _ } ->
        let contains ~sub s =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "terminated" true (contains ~sub:"# EOF" body);
        Alcotest.(check bool) "has requests counter" true
          (contains ~sub:"emts_serve_requests_total" body)
      | _ -> Alcotest.fail "expected metrics");
      (* A client-supplied trace_id is echoed even with tracing off. *)
      (match
         roundtrip fd
           (Protocol.Request.Schedule
              { id = J.Str "s2"; req = schedule_req ~trace_id:"tdeadbeef" ptg })
       with
      | Protocol.Response.Schedule_result r ->
        Alcotest.(check (option string)) "trace_id echoed"
          (Some "tdeadbeef") r.Protocol.Response.trace_id
      | _ -> Alcotest.fail "expected a schedule result");
      Unix.close fd)

(* --- self-healing under injected faults ------------------------------

   One server instance, one connection, three storms in sequence:

   1. a hung solve with an already-expired deadline: the watchdog must
      answer [deadline_exceeded] long before the solve wakes up, and
      the worker's late result must be dropped (probed with a ping on
      the same connection — a stray second reply would desync framing);
   2. a worker-domain exception: one typed [internal] reply, the
      internal-error and respawn counters move in lockstep, and the
      respawned lane serves the next request;
   3. a fault in flight at drain start: stop is raised while the worker
      is sleeping inside an injected delay — health on the existing
      connection must flip to draining, the admitted job must still get
      its result, and [Server.run] must return [Ok]. *)

let counter name =
  Option.value ~default:0 (Emts_obs.Metrics.find_counter name)

let with_fault_plan events f =
  Fun.protect
    ~finally:(fun () -> Emts_fault.disarm ())
    (fun () ->
      Emts_fault.arm { Emts_fault.Plan.seed = 0; events };
      f ())

let test_server_self_healing () =
  let dir = Filename.temp_file "emts_serve_chaos" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "emts.sock" in
  let stop = Atomic.make false in
  let outcome = ref (Ok ()) in
  let server =
    Thread.create
      (fun () ->
        outcome :=
          Server.run
            ~stop:(fun () -> Atomic.get stop)
            {
              Server.default with
              Server.socket = Some path;
              workers = 1;
              queue_capacity = 16;
              watchdog_grace = 0.1;
            })
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Fun.protect
    ~finally:(fun () ->
      Emts_fault.disarm ();
      Atomic.set stop true;
      Thread.join server;
      if Sys.file_exists path then Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let send req = Protocol.write_frame fd (Protocol.Request.to_string req) in
      let read_resp () =
        match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
        | Ok payload -> (
          match Protocol.Response.of_string payload with
          | Ok r -> r
          | Error m -> Alcotest.fail ("bad response: " ^ m))
        | Error e -> Alcotest.fail (Protocol.frame_error_to_string e)
      in
      let roundtrip req = send req; read_resp () in
      (* One distinct graph per storm: the engine caches completed
         solves, and a cache hit would skip evaluation entirely — the
         injected fault must actually be reached. *)
      let ptg_hung = graph_string ~seed:101 () in
      let ptg_boom = graph_string ~seed:102 () in
      let ptg_after = graph_string ~seed:103 () in
      let ptg_drain = graph_string ~seed:104 () in
      (* A serving daemon reports live and ready. *)
      (match roundtrip (Protocol.Request.Health { id = J.Str "h0" }) with
      | Protocol.Response.Health { live; ready; draining; _ } ->
        Alcotest.(check bool) "live" true live;
        Alcotest.(check bool) "ready" true ready;
        Alcotest.(check bool) "not draining" false draining
      | _ -> Alcotest.fail "expected a health response");
      (* 1. Hung solve, deadline already expired when the watchdog
         sweeps: the solve sleeps 0.8s but the typed reply must arrive
         within the grace window. *)
      let watchdog0 = counter "serve.watchdog_fired_total" in
      with_fault_plan
        [ { Emts_fault.Plan.site = Emts_fault.Site.Solve; nth = 0;
            action = Emts_fault.Delay 0.8 } ]
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (match
             roundtrip
               (Protocol.Request.Schedule
                  { id = J.Str "hung";
                    req = schedule_req ~deadline_s:0.001 ptg_hung })
           with
          | Protocol.Response.Error { code; retry_after_ms; _ } ->
            Alcotest.(check string) "watchdog answers deadline_exceeded"
              Protocol.Error_code.deadline_exceeded code;
            Alcotest.(check (option int)) "no backoff hint" None retry_after_ms
          | _ -> Alcotest.fail "expected a watchdog error reply");
          Alcotest.(check bool) "reply beat the hung solve" true
            (Unix.gettimeofday () -. t0 < 0.75);
          Alcotest.(check int) "watchdog counted it" (watchdog0 + 1)
            (counter "serve.watchdog_fired_total");
          (* The worker's late result must lose the reply-once race:
             the next frame on this connection is the pong, nothing
             else. *)
          (match roundtrip (Protocol.Request.Ping { id = J.Str "p1" }) with
          | Protocol.Response.Pong _ -> ()
          | _ -> Alcotest.fail "late worker result leaked onto the wire");
          (* The single worker is still asleep inside the injected
             delay; queue a sentinel behind the hung job and wait for
             its result so the next storm starts with an idle lane (and
             the hung job's late result is confirmed dropped, not
             merely late). *)
          match
            roundtrip
              (Protocol.Request.Schedule
                 { id = J.Str "sentinel";
                   req = schedule_req (graph_string ~seed:105 ()) })
          with
          | Protocol.Response.Schedule_result _ -> ()
          | _ -> Alcotest.fail "expected the sentinel result");
      (* 2. Worker-domain exception: one typed internal reply, counters
         move in lockstep, lane respawns and keeps serving. *)
      let internal0 = counter "serve.internal_errors_total" in
      let respawns0 = counter "serve.worker_respawns_total" in
      with_fault_plan
        [ { Emts_fault.Plan.site = Emts_fault.Site.Worker_eval; nth = 0;
            action = Emts_fault.Raise } ]
        (fun () ->
          match
            roundtrip
              (Protocol.Request.Schedule
                 { id = J.Str "boom"; req = schedule_req ptg_boom })
          with
          | Protocol.Response.Error { code; _ } ->
            Alcotest.(check string) "typed internal error"
              Protocol.Error_code.internal code
          | _ -> Alcotest.fail "expected an internal error reply");
      Alcotest.(check int) "internal errors counted" (internal0 + 1)
        (counter "serve.internal_errors_total");
      (* The respawn is counted after the reply is on the wire. *)
      let limit = Unix.gettimeofday () +. 5. in
      while
        counter "serve.worker_respawns_total" < respawns0 + 1
        && Unix.gettimeofday () < limit
      do
        Thread.delay 0.02
      done;
      Alcotest.(check int) "lane respawned exactly once" (respawns0 + 1)
        (counter "serve.worker_respawns_total");
      (match
         roundtrip
           (Protocol.Request.Schedule
              { id = J.Str "after"; req = schedule_req ptg_after })
       with
      | Protocol.Response.Schedule_result r ->
        Alcotest.(check int) "respawned lane solves" 12
          (Array.length r.Protocol.Response.alloc)
      | _ -> Alcotest.fail "expected a result from the respawned lane");
      (* 3. Fault in flight at drain start: the worker sleeps inside an
         injected delay while stop is raised.  An existing connection
         must see health flip to draining, and the admitted job must
         still be answered before the drain completes. *)
      with_fault_plan
        [ { Emts_fault.Plan.site = Emts_fault.Site.Solve; nth = 0;
            action = Emts_fault.Delay 0.8 } ]
        (fun () ->
          send
            (Protocol.Request.Schedule
               { id = J.Str "drainjob"; req = schedule_req ptg_drain });
          Thread.delay 0.1;  (* let the worker enter the injected sleep *)
          Atomic.set stop true;
          let got_draining = ref false in
          let got_result = ref false in
          let limit = Unix.gettimeofday () +. 8. in
          while
            (not (!got_draining && !got_result))
            && Unix.gettimeofday () < limit
          do
            if not !got_draining then begin
              Thread.delay 0.05;
              send (Protocol.Request.Health { id = J.Str "hd" })
            end;
            match read_resp () with
            | Protocol.Response.Health { draining = true; ready; _ } ->
              Alcotest.(check bool) "draining is not ready" false ready;
              got_draining := true
            | Protocol.Response.Health { draining = false; _ } -> ()
            | Protocol.Response.Schedule_result r ->
              Alcotest.(check string) "drain answered the admitted job"
                "drainjob"
                (match r.Protocol.Response.id with J.Str s -> s | _ -> "?");
              got_result := true
            | _ -> Alcotest.fail "unexpected reply during drain"
          done;
          Alcotest.(check bool) "health flipped to draining" true !got_draining;
          Alcotest.(check bool) "admitted job answered through drain" true
            !got_result);
      Unix.close fd;
      Thread.join server;
      match !outcome with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("server exited with an error: " ^ m))

(* --- online session over the wire, through a drain ------------------

   One daemon, one connection: submit a DAG into a named session,
   advance part-way, then raise stop mid-flight.  The draining daemon
   must keep answering the admitted session — advance still runs the
   admitted workload to completion — while new submits are refused
   with the typed [draining] error. *)

let test_server_online_drain () =
  let dir = Filename.temp_file "emts_serve_online" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "emts.sock" in
  let stop = Atomic.make false in
  let outcome = ref (Ok ()) in
  let server =
    Thread.create
      (fun () ->
        outcome :=
          Server.run
            ~stop:(fun () -> Atomic.get stop)
            { Server.default with Server.socket = Some path; workers = 1 })
      ()
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join server;
      if Sys.file_exists path then Sys.remove path;
      Unix.rmdir dir)
    (fun () ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let roundtrip req =
        Protocol.write_frame fd (Protocol.Request.to_string req);
        match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
        | Ok payload -> (
          match Protocol.Response.of_string payload with
          | Ok r -> r
          | Error m -> Alcotest.fail ("bad response: " ^ m))
        | Error e -> Alcotest.fail (Protocol.frame_error_to_string e)
      in
      let ptg = graph_string () in
      let submit ~id ~session =
        Protocol.Request.Submit
          {
            id = J.Str id;
            session;
            ptg;
            at = 0.;
            platform = "grelon";
            model = "amdahl";
            algorithm = "emts1";
            seed = 7;
            islands = 1;
            migration_interval = 5;
            migration_count = 1;
          }
      in
      (match roundtrip (submit ~id:"sub1" ~session:"drainy") with
      | Protocol.Response.Submit_result { session; dag; tasks; replans; _ } ->
        Alcotest.(check string) "session echoed" "drainy" session;
        Alcotest.(check int) "first dag index" 0 dag;
        Alcotest.(check int) "admitted task count" 12 tasks;
        Alcotest.(check bool) "planned at least once" true (replans >= 1)
      | _ -> Alcotest.fail "expected a submit result");
      (* an unknown session is a typed bad_request, not a crash *)
      (match
         roundtrip
           (Protocol.Request.Advance
              { id = J.Str "ghost"; session = "ghost"; to_ = None })
       with
      | Protocol.Response.Error { code; _ } ->
        Alcotest.(check string) "unknown session refused"
          Protocol.Error_code.bad_request code
      | _ -> Alcotest.fail "expected an error for an unknown session");
      (* an advance to t=0 cannot have finished the workload; it also
         hands back the clairvoyant bound used to pick a mid-flight
         drain point *)
      let bound =
        match
          roundtrip
            (Protocol.Request.Advance
               { id = J.Str "a0"; session = "drainy"; to_ = Some 0. })
        with
        | Protocol.Response.Advance_result { complete; bound; _ } ->
          Alcotest.(check bool) "not complete at t=0" false complete;
          bound
        | _ -> Alcotest.fail "expected an advance result"
      in
      Alcotest.(check bool) "bound is positive and finite" true
        (Float.is_finite bound && bound > 0.);
      (match
         roundtrip
           (Protocol.Request.Advance
              { id = J.Str "a1"; session = "drainy";
                to_ = Some (0.5 *. bound) })
       with
      | Protocol.Response.Advance_result { now; _ } ->
        Alcotest.(check bool) "clock moved" true (now > 0.)
      | _ -> Alcotest.fail "expected an advance result");
      (* raise stop mid-flight and wait for health to flip *)
      Atomic.set stop true;
      let limit = Unix.gettimeofday () +. 8. in
      let draining = ref false in
      while (not !draining) && Unix.gettimeofday () < limit do
        match roundtrip (Protocol.Request.Health { id = J.Str "hd" }) with
        | Protocol.Response.Health { draining = d; _ } ->
          if d then draining := true else Thread.delay 0.05
        | _ -> Alcotest.fail "expected a health response"
      done;
      Alcotest.(check bool) "health flipped to draining" true !draining;
      (* a draining daemon refuses new work with the typed code... *)
      (match roundtrip (submit ~id:"sub2" ~session:"latecomer") with
      | Protocol.Response.Error { code; _ } ->
        Alcotest.(check string) "submit refused while draining"
          Protocol.Error_code.draining code
      | _ -> Alcotest.fail "expected a draining error");
      (* ... while the admitted session still runs to completion *)
      (match
         roundtrip
           (Protocol.Request.Advance
              { id = J.Str "a2"; session = "drainy"; to_ = None })
       with
      | Protocol.Response.Advance_result { complete; makespan; bound; _ } ->
        Alcotest.(check bool) "admitted work finished through drain" true
          complete;
        (match makespan with
        | Some m ->
          Alcotest.(check bool) "makespan >= clairvoyant bound" true
            (m >= bound -. (1e-9 *. Float.max 1. bound))
        | None -> Alcotest.fail "complete advance must report a makespan")
      | _ -> Alcotest.fail "expected an advance result");
      Unix.close fd;
      Thread.join server;
      match !outcome with
      | Ok () -> ()
      | Error m -> Alcotest.fail ("server exited with an error: " ^ m))

(* --- deque --- *)

module Deque = Emts_serve.Deque

let test_deque_ends () =
  let d = Deque.create () in
  Alcotest.(check bool) "fresh empty" true (Deque.is_empty d);
  Alcotest.(check (option int)) "pop_back empty" None (Deque.pop_back d);
  Alcotest.(check (option int)) "pop_front empty" None (Deque.pop_front d);
  List.iter (Deque.push_back d) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Deque.length d);
  (* Owner end is LIFO... *)
  Alcotest.(check (option int)) "owner pops newest" (Some 4)
    (Deque.pop_back d);
  (* ...thief end is FIFO. *)
  Alcotest.(check (option int)) "thief steals oldest" (Some 1)
    (Deque.pop_front d);
  Alcotest.(check (option int)) "then next-oldest" (Some 2)
    (Deque.pop_front d);
  Alcotest.(check (option int)) "owner again" (Some 3) (Deque.pop_back d);
  Alcotest.(check bool) "drained" true (Deque.is_empty d)

let test_deque_growth () =
  let d = Deque.create () in
  (* Interleave pushes and front-pops so the ring wraps while growing:
     the resize must preserve front-to-back order across the seam. *)
  for i = 1 to 5 do Deque.push_back d i done;
  Alcotest.(check (option int)) "wrap pop" (Some 1) (Deque.pop_front d);
  Alcotest.(check (option int)) "wrap pop" (Some 2) (Deque.pop_front d);
  for i = 6 to 40 do Deque.push_back d i done;
  let got = ref [] in
  let rec drain () =
    match Deque.pop_front d with
    | Some x -> got := x :: !got; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "order preserved through growth"
    (List.init 38 (fun i -> i + 3))
    (List.rev !got)

(* --- endpoint grammar --- *)

module Endpoint = Emts_serve.Endpoint

let endpoint_t =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Endpoint.to_string e))
    ( = )

let test_endpoint_parse () =
  let ok = Alcotest.(result endpoint_t string) in
  let check spec expected =
    Alcotest.check ok spec (Ok expected) (Endpoint.parse ~flag:"--connect" spec)
  in
  check "127.0.0.1:7464" (Endpoint.Tcp ("127.0.0.1", 7464));
  check "host.example:1" (Endpoint.Tcp ("host.example", 1));
  (* The port splits on the last colon, so colon-bearing hosts parse. *)
  check "::1:7464" (Endpoint.Tcp ("::1", 7464));
  check "unix:/tmp/emts.sock" (Endpoint.Unix_socket "/tmp/emts.sock");
  (* The unix: prefix wins even for paths with colons in them. *)
  check "unix:relative:name" (Endpoint.Unix_socket "relative:name");
  check "/tmp/emts.sock" (Endpoint.Unix_socket "/tmp/emts.sock");
  List.iter
    (fun spec ->
      let expected =
        Error (Printf.sprintf "--connect %S: expected HOST:PORT" spec)
      in
      Alcotest.check ok spec expected (Endpoint.parse ~flag:"--connect" spec))
    [ "nonsense"; ":7464"; "host:"; "host:0"; "host:65536"; "host:x" ]

let test_endpoint_roundtrip_and_hostport () =
  List.iter
    (fun ep ->
      Alcotest.check
        Alcotest.(result endpoint_t string)
        "to_string round-trips" (Ok ep)
        (Endpoint.parse ~flag:"t" (Endpoint.to_string ep)))
    [
      Endpoint.Tcp ("127.0.0.1", 7464);
      Endpoint.Unix_socket "/tmp/emts.sock";
      Endpoint.Unix_socket "relative:name";
    ];
  (* parse_hostport is the --listen/--metrics-listen grammar: no unix
     sockets, same pinned error text. *)
  Alcotest.(check (result (pair string int) string))
    "hostport ok"
    (Ok ("0.0.0.0", 9100))
    (Endpoint.parse_hostport ~flag:"--listen" "0.0.0.0:9100");
  Alcotest.(check (result (pair string int) string))
    "hostport error is pinned"
    (Error "--listen \"nonsense\": expected HOST:PORT")
    (Endpoint.parse_hostport ~flag:"--listen" "nonsense")

let test_endpoint_connect_listen () =
  let path =
    Printf.sprintf "/tmp/emts-test-ep-%d.sock" (Unix.getpid ())
  in
  let ep = Endpoint.Unix_socket path in
  let lfd = Endpoint.listen_fd ep in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let cfd = Endpoint.connect_fd ep in
      let afd, _ = Unix.accept lfd in
      let _ = Unix.write_substring cfd "hi" 0 2 in
      let buf = Bytes.create 2 in
      let n = Unix.read afd buf 0 2 in
      Alcotest.(check string) "bytes flow" "hi" (Bytes.sub_string buf 0 n);
      Unix.close cfd;
      Unix.close afd;
      (* Rebinding unlinks the stale path instead of failing. *)
      let lfd2 = Endpoint.listen_fd ep in
      Unix.close lfd2)

(* --- concurrent online sessions ---

   The daemon runs each online re-plan on the connection's reader
   thread, and every reader is a systhread of one domain.  Two sessions
   re-planning at once must still commit exactly what each commits
   alone. *)
module Online = Emts_serve.Online
module Sim_online = Emts_simulator.Online

let committed_eq (a : Sim_online.committed) (b : Sim_online.committed) =
  a.Sim_online.task = b.Sim_online.task
  && a.Sim_online.dag = b.Sim_online.dag
  && Int64.bits_of_float a.Sim_online.start
     = Int64.bits_of_float b.Sim_online.start
  && Int64.bits_of_float a.Sim_online.finish
     = Int64.bits_of_float b.Sim_online.finish
  && a.Sim_online.procs = b.Sim_online.procs

(* Three ~120-task DAGs on Grelon under Model 2, arriving [gap] apart,
   [gap] being half the first DAG's lower bound so each arrival lands
   on committed work. *)
let online_trace seed =
  let rng = Emts_prng.create ~seed () in
  let dags =
    List.init 3 (fun _ ->
        Testutil.costed_daggen rng ~n:(Emts_prng.int_in rng 110 130))
  in
  let gap =
    0.5
    *. Emts_alloc.Bounds.lower_bound
         (Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic
            ~platform:Emts_platform.grelon ~graph:(List.hd dags))
  in
  List.mapi (fun k g -> (g, float_of_int k *. gap)) dags

(* Drive one trace through a registry session the way the server's
   submit/advance handlers do; the session's commitment log. *)
let drive_session registry ~name trace =
  let create () =
    Online.create
      (Online.config
         ~replanner:(Online.Emts { mu = 5; lambda = 25; generations = 5 })
         ~seed:42 ~platform:Emts_platform.grelon ~model:Emts_model.synthetic
         ())
  in
  let ok = function
    | Ok (Ok x) -> x
    | Ok (Error m) | Error m -> Alcotest.fail (name ^ ": " ^ m)
  in
  List.iter
    (fun (graph, at) ->
      ignore
        (ok
           (Online.Registry.with_session registry ~name ~create (fun s ->
                Online.submit s ~graph ~at))))
    trace;
  let r =
    ok (Online.Registry.with_existing registry ~name (fun s -> Online.advance s))
  in
  if not r.Online.complete then Alcotest.fail (name ^ ": did not complete");
  ok
    (Online.Registry.with_existing registry ~name (fun s ->
         Ok (Online.commitments s)))

let test_online_concurrent_sessions () =
  let traces = [| online_trace 101; online_trace 202 |] in
  let alone =
    Array.mapi
      (fun i trace ->
        drive_session (Online.Registry.create ())
          ~name:(Printf.sprintf "alone-%d" i) trace)
      traces
  in
  for rep = 1 to 5 do
    let registry = Online.Registry.create () in
    let logs = Array.make 2 [] and failures = Array.make 2 None in
    let threads =
      Array.mapi
        (fun i trace ->
          Thread.create
            (fun () ->
              try
                logs.(i) <-
                  drive_session registry
                    ~name:(Printf.sprintf "rep%d-%d" rep i) trace
              with e -> failures.(i) <- Some (Printexc.to_string e))
            ())
        traces
    in
    Array.iter Thread.join threads;
    Array.iteri
      (fun i reference ->
        let label = Printf.sprintf "repetition %d, session %d" rep i in
        Option.iter (fun m -> Alcotest.fail (label ^ ": " ^ m)) failures.(i);
        Alcotest.(check int) (label ^ ": commitment count")
          (List.length reference) (List.length logs.(i));
        Alcotest.(check bool) (label ^ ": same log as alone") true
          (List.for_all2 committed_eq reference logs.(i)))
      alone
  done

(* --- session registry eviction --- *)

(* Submit a 6-task DAG at time 0 to the named session of a baseline
   registry; the session is incomplete until advanced. *)
let registry_submit registry name =
  let create () =
    Online.create
      (Online.config ~platform:Emts_platform.chti ~model:Emts_model.amdahl ())
  in
  let graph = Testutil.costed_daggen (Emts_prng.create ~seed:5 ()) ~n:6 in
  match
    Online.Registry.with_session registry ~name ~create (fun s ->
        Online.submit s ~graph ~at:0.)
  with
  | Ok (Ok _) -> Ok ()
  | Ok (Error m) -> Alcotest.fail (name ^ ": " ^ m)
  | Error m -> Error m

let registry_advance registry name =
  Online.Registry.with_existing registry ~name (fun s ->
      match Online.advance s with
      | Ok r -> r.Online.complete
      | Error m -> Alcotest.fail (name ^ ": " ^ m))

let admitted registry what name =
  Alcotest.(check (result unit string))
    what (Ok ()) (registry_submit registry name)

let completes registry what name =
  Alcotest.(check (result bool string))
    what (Ok true) (registry_advance registry name)

let check_full what = function
  | Error m when Testutil.contains_substring m "session table full" -> ()
  | Error m -> Alcotest.failf "%s: unexpected error %S" what m
  | Ok () -> Alcotest.failf "%s: admitted into a full table" what

let test_registry_evicts_complete () =
  let registry = Online.Registry.create ~capacity:2 () in
  admitted registry "a" "a";
  admitted registry "b" "b";
  completes registry "a completes" "a";
  admitted registry "c admitted" "c";
  Alcotest.(check int) "capacity kept" 2 (Online.Registry.count registry);
  (match registry_advance registry "a" with
  | Error m when Testutil.contains_substring m "unknown session" -> ()
  | Error m -> Alcotest.failf "evicted a: unexpected error %S" m
  | Ok _ -> Alcotest.fail "evicted session a still answers advance");
  completes registry "b survives" "b"

let test_registry_refuses_busy () =
  let registry = Online.Registry.create ~capacity:2 () in
  admitted registry "a" "a";
  admitted registry "b" "b";
  check_full "both incomplete" (registry_submit registry "c");
  (* [a] complete but held mid-request by another thread *)
  completes registry "a completes" "a";
  let entered = Semaphore.Binary.make false
  and release = Semaphore.Binary.make false in
  let holder =
    Thread.create
      (fun () ->
        ignore
          (Online.Registry.with_existing registry ~name:"a" (fun _ ->
               Semaphore.Binary.release entered;
               Semaphore.Binary.acquire release)))
      ()
  in
  Semaphore.Binary.acquire entered;
  check_full "complete session held mid-request" (registry_submit registry "c");
  Semaphore.Binary.release release;
  Thread.join holder;
  admitted registry "admitted once idle" "c"

let () =
  Alcotest.run "serve"
    [
      ( "deque",
        [
          Alcotest.test_case "owner LIFO, thief FIFO" `Quick test_deque_ends;
          Alcotest.test_case "growth preserves order" `Quick
            test_deque_growth;
        ] );
      ( "endpoint",
        [
          Alcotest.test_case "parse grammar" `Quick test_endpoint_parse;
          Alcotest.test_case "round trip and hostport" `Quick
            test_endpoint_roundtrip_and_hostport;
          Alcotest.test_case "listen and connect" `Quick
            test_endpoint_connect_listen;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round trip" `Quick test_frame_round_trip;
          Alcotest.test_case "closed / truncated" `Quick
            test_frame_closed_and_truncated;
          Alcotest.test_case "bad magic / too large" `Quick
            test_frame_bad_magic_and_too_large;
        ] );
      ( "messages",
        [
          Alcotest.test_case "request round trip" `Quick
            test_request_round_trip;
          Alcotest.test_case "request defaults and errors" `Quick
            test_request_defaults_and_errors;
          Alcotest.test_case "response round trip" `Quick
            test_response_round_trip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism across pool widths" `Quick
            test_engine_determinism;
          Alcotest.test_case "repeat request, shared cache" `Quick
            test_engine_repeat_hits_cache;
          Alcotest.test_case "cache instances bounded" `Quick
            test_engine_cache_instances_bounded;
          Alcotest.test_case "heuristics and request errors" `Quick
            test_engine_heuristic_and_errors;
          Alcotest.test_case "deadline returns best-so-far" `Quick
            test_engine_deadline_best_so_far;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "steal/FIFO identity" `Quick
            test_server_steal_identity;
          Alcotest.test_case "self-healing under faults" `Quick
            test_server_self_healing;
          Alcotest.test_case "online session through a drain" `Quick
            test_server_online_drain;
          Alcotest.test_case "concurrent online sessions" `Quick
            test_online_concurrent_sessions;
          Alcotest.test_case "full registry evicts a complete session" `Quick
            test_registry_evicts_complete;
          Alcotest.test_case "full registry refuses busy sessions" `Quick
            test_registry_refuses_busy;
        ] );
    ]
