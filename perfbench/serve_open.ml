(* serve-open: open-loop load into a fresh `emts-serve --workers 2`.

   One pipelined Unix-socket connection: a sender thread writes each
   request at its due time whatever the replies are doing, and this
   thread reads the replies.  Latency is timed from the due time, so a
   stall also counts against the requests queued behind it. *)

module P = Emts_serve.Protocol
module J = Emts_resilience.Json

(* Offered load, requests per second: about a quarter of what two
   workers serve on this mix, so latency is mostly service time. *)
let rate = 10.

(* The schedule is cut into windows of [window] seconds of offered
   load, separated by idle gaps of [gap] seconds in which the machine's
   pace is probed (pace.ml); probes also run on each side of the load. *)
let window = 1.
let gap = 0.2
let idle_probes = 50

(* The generator is flagged when it sends a request this late. *)
let lag_bound = 0.020

let response_id = function
  | P.Response.Schedule_result r -> r.id
  | Error { id; _ }
  | Stats { id; _ }
  | Metrics { id; _ }
  | Pong { id; _ }
  | Health { id; _ }
  | Migrate_ack { id; _ }
  | Submit_result { id; _ }
  | Advance_result { id; _ } -> id

let request k (r : Corpus.request) =
  P.Request.Schedule
    {
      id = J.Num (float_of_int k);
      req =
        P.Request.schedule ~platform:r.inst.platform.Emts_platform.name
          ~model:r.inst.model_name ~algorithm:r.algorithm ~seed:r.seed ~ptg:r.inst.ptg ();
    }

(* What an in-process Emts.Algorithm.run answers for the same request. *)
type expected = { makespan : float; alloc : int array; evaluations : int; mcpa : float }

let expected (r : Corpus.request) =
  let graph = Offline.parse r.inst in
  let res =
    Emts.Algorithm.run
      ~rng:(Emts_prng.create ~seed:r.seed ())
      ~config:(Offline.config_of r.algorithm) ~model:r.inst.model
      ~platform:r.inst.platform ~graph ()
  in
  {
    makespan = res.makespan;
    alloc = res.alloc;
    evaluations = res.ea.evaluations;
    mcpa = Offline.mcpa_makespan res;
  }

let share pred reqs =
  float_of_int (Array.fold_left (fun n r -> if pred r then n + 1 else n) 0 reqs)
  /. float_of_int (Array.length reqs)

let run ~bin ~dir ~seed ~seconds ~tiny ~traced ~inject ~trace_path =
  let count = max 1 (int_of_float (rate *. seconds)) in
  let reqs = Corpus.serve_requests ~tiny ~seed ~count in
  let start k =
    let since = Span.now () in
    let d = Wire.serve ~bin ~dir ~tag:(string_of_int k) in
    (d, Wire.wait_ready ~since d.socket)
  in
  let setups =
    List.init Wire.setups (fun k ->
        let d, s = start k in
        Wire.stop d;
        s)
  in
  let d, last = start Wire.setups in
  let setup = Stat.median (last :: setups) in
  let spans = Span.create () in
  let ping_rtt =
    if traced then
      Wire.with_conn d.socket (fun fd -> Wire.rtt_p50 fd ~n:200 (P.Request.Ping { id = J.Null }))
    else 0.
  in
  let pace = Pace.create () in
  Pace.sample_n pace idle_probes;
  let fd = Wire.connect d.socket in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
  let t0 = Span.now () +. 0.05 in
  let per_window = max 1 (int_of_float (rate *. window)) in
  let due k = t0 +. (float_of_int k /. rate) +. (gap *. float_of_int (k / per_window)) in
  let received = Atomic.make 0 and stalled = ref false in
  let lag = Array.make count 0. and encode = Array.make count 0. in
  let replies = Array.make count None and decode = Array.make count 0. in
  let sender =
    Thread.create
      (fun () ->
        for k = 0 to count - 1 do
          if k > 0 && k mod per_window = 0 then begin
            (* The gap before a window: once every earlier reply is in,
               the daemon idles and the pace is probed. *)
            while Atomic.get received < k && Span.now () < due k do
              Thread.delay 0.001
            done;
            while Atomic.get received = k && Span.now () +. (2. *. Pace.nominal) < due k do
              Pace.sample pace
            done
          end;
          let wait = due k -. Span.now () in
          if wait > 0. then Thread.delay wait;
          let t = Span.now () in
          lag.(k) <- t -. due k;
          let payload = P.Request.to_string (request k reqs.(k)) in
          let t' = Span.now () in
          encode.(k) <- t' -. t;
          if traced then
            ignore (Span.add spans ~name:"protocol.encode" ~parent:Span.none ~op:k ~start:t ~stop:t');
          P.write_frame fd payload
        done)
      ()
  in
  let receive () =
    while Atomic.get received < count && not !stalled do
      match P.read_frame fd ~max_size:P.default_max_frame with
      | Error _ | (exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _)) -> stalled := true
      | Ok payload -> (
        let t = Span.now () in
        let resp = P.Response.of_string payload in
        let t' = Span.now () in
        match Result.map response_id resp with
        | Ok (J.Num x) when Float.is_integer x && x >= 0. && int_of_float x < count ->
          let k = int_of_float x in
          replies.(k) <- Some (t', resp);
          decode.(k) <- t' -. t;
          Atomic.incr received;
          if traced then begin
            ignore (Span.add spans ~name:"request" ~parent:Span.none ~op:k ~start:(due k) ~stop:t');
            ignore (Span.add spans ~name:"protocol.decode" ~parent:Span.none ~op:k ~start:t ~stop:t')
          end
        | _ -> stalled := true)
    done;
    Thread.join sender
  in
  receive ();
  Pace.sample_n pace idle_probes;
  Unix.close fd;
  let load_wall = Span.now () -. t0 in
  let stats = Wire.stats d.socket in
  let rss = Report.peak_rss_mb (Some d.pid) in
  Wire.stop d;
  (* The gate: every reply bitwise equal to the in-process answer. *)
  let memo = Hashtbl.create 64 in
  let violations = ref [] and failed = ref 0 in
  let latencies = ref [] and last_reply = ref t0 in
  Array.iteri
    (fun k reply ->
      let r = reqs.(k) in
      match reply with
      | Some (at, Ok (P.Response.Schedule_result sr)) ->
        let key = (r.Corpus.inst_id, r.algorithm, r.seed) in
        let e =
          match Hashtbl.find_opt memo key with
          | Some e -> e
          | None ->
            let e = expected r in
            Hashtbl.add memo key e;
            e
        in
        let got = if inject = Offline.Ulp && k = 0 then Float.succ sr.makespan else sr.makespan in
        if Offline.bits got <> Offline.bits e.makespan || sr.alloc <> e.alloc
           || sr.evaluations <> e.evaluations
        then
          violations :=
            Printf.sprintf "request %d (%s, %s): reply differs from the in-process run" k
              r.inst.label r.algorithm
            :: !violations;
        latencies := (at -. due k) :: !latencies;
        last_reply := Float.max !last_reply at
      | Some _ | None -> incr failed)
    replies;
  let ok = List.length !latencies in
  let quality =
    Stat.geomean
      (Hashtbl.fold (fun _ e acc -> (e.makespan /. e.mcpa) :: acc) memo [])
  in
  let lat q = Stat.quantile !latencies q in
  let slow = Pace.slowdown pace in
  let completed_per_s = float_of_int ok /. (!last_reply -. t0) in
  let lags = Array.to_list lag in
  let lag_max = List.fold_left Float.max 0. lags in
  if lag_max > lag_bound then
    Printf.eprintf "perfbench: generator ran up to %.4f s behind schedule (bound %.3f s)\n%!"
      lag_max lag_bound;
  let per_class a = float_of_int (Array.fold_left (fun n (r : Corpus.request) -> if r.algorithm = a then n + 1 else n) 0 reqs) in
  let traffic =
    [
      ("traffic.requests.emts1", per_class "emts1");
      ("traffic.requests.emts5", per_class "emts5");
      ("traffic.requests.emts10", per_class "emts10");
      ("traffic.instance_repeat_share", share (fun r -> r.Corpus.repeat <> `Fresh) reqs);
      ("traffic.exact_repeat_share", share (fun r -> r.Corpus.repeat = `Exact) reqs);
      ("loadgen.lag_s.p99", Stat.quantile lags 0.99);
      ("loadgen.lag_s.max", lag_max);
      ("loadgen.lag_flagged", if lag_max > lag_bound then 1. else 0.);
    ]
  in
  let traffic_rows = List.map (fun (n, v) -> Report.row n (Report.unit_of Report.per_layer n) v count) traffic in
  let violations = List.rev !violations in
  if not traced then
    let r = Report.row in
    {
      Report.violations;
      attempted = count;
      failed = !failed;
      rows =
        [
          r "setup_s" "s" setup (Wire.setups + 1);
          r "latency_s.p50" "s" (lat 0.5) ok;
          r "latency_s.p90" "s" (lat 0.9) ok;
          r "latency_s.p95" "s" (lat 0.95) ok;
          r "latency_s.gmean" "s" (Stat.geomean !latencies) ok;
          r "completed_per_s" "1/s" completed_per_s ok;
          r "failed_share" "ratio" (float_of_int !failed /. float_of_int count) count;
          r "makespan_vs_mcpa" "ratio" quality (Hashtbl.length memo);
          r "peak_rss_mb" "MB" rss 1;
          r "pace.slowdown" "ratio" slow (Pace.count pace);
        ]
        @ traffic_rows;
      metrics =
        [
          ("setup_s", setup);
          ("op_s.gmean", Stat.geomean !latencies /. slow);
          ("ops_per_s", completed_per_s);
          ("quality_ratio", quality);
          ("peak_rss_mb", rss);
        ];
    }
  else begin
    (* The daemon parses every request's inline graph: time the same
       call on the same inputs. *)
    let parse_s =
      Array.fold_left
        (fun acc (r : Corpus.request) ->
          let t = Span.now () in
          ignore (Offline.parse r.inst);
          let t' = Span.now () in
          ignore (Span.add spans ~name:"ptg.parse" ~parent:Span.none ~op:0 ~start:t ~stop:t');
          acc +. (t' -. t))
        0. reqs
    in
    let bytes = Array.fold_left (fun n (r : Corpus.request) -> n + String.length r.inst.ptg) 0 reqs in
    let client = List.init count (fun k -> encode.(k) +. decode.(k)) in
    let hits = Wire.stat_num stats [ "counters"; "ea.cache.hits" ] in
    let misses = Wire.stat_num stats [ "counters"; "ea.cache.misses" ] in
    let h name q = Wire.stat_num stats [ "histograms"; name; q ] in
    Span.write spans ~path:trace_path;
    let layers =
      [
        ("ptg.parse.calls", float_of_int count);
        ("ptg.parse.s", parse_s);
        ("ptg.parse.mb_per_s", float_of_int bytes /. parse_s /. 1e6);
        ("pool.cache.hit_share", Stat.share hits (hits +. misses));
        ("serve.queue_wait_s.p50", h "serve.queue_wait_s" "p50");
        ("serve.queue_wait_s.p95", h "serve.queue_wait_s" "p95");
        ("serve.solve_s.p50", h "serve.solve_s" "p50");
        ("serve.solve_s.p95", h "serve.solve_s" "p95");
        ("serve.encode_s.p50", h "serve.encode_s" "p50");
        ("serve.steals", Wire.stat_num stats [ "counters"; "serve.steals_total" ]);
        ("serve.rejected", Wire.stat_num stats [ "counters"; "serve.rejected_total" ]);
        ("serve.ping_rtt_s.p50", ping_rtt);
        ("protocol.client_s.p50", Stat.median client);
        ( "trace.overhead_share",
          float_of_int (Span.count spans) *. Wire.span_cost () /. load_wall );
      ]
      @ traffic
    in
    let rows =
      List.map
        (fun n -> Report.row n (Report.unit_of Report.per_layer n) (List.assoc n layers) count)
        [ "pool.cache.hit_share"; "serve.queue_wait_s.p95"; "serve.steals"; "protocol.client_s.p50" ]
    in
    {
      Report.violations;
      attempted = count;
      failed = !failed;
      rows = rows @ traffic_rows;
      metrics = Report.layers layers;
    }
  end
