(* online-sessions: a closed-loop client drives EMTS5 online sessions
   through a fresh emts-router in front of one emts-serve: submit DAG k
   at virtual time k*gap, then advance to completion.

   One client, not two: two sessions in flight at once break the daemon
   today (README.md, defect d) — it drops a connection, the router then
   marks its only backend dead, and repeated traces realise different
   schedules.  The traced run measures that separately
   (the online.two_clients metrics), so the defect shows without wrecking the
   end-to-end figures.

   Sessions draw their arrival traces from a fixed pool, in order, so
   every trace runs at least once per run and a repeated trace must
   realise the same makespan bit for bit.  The number of sessions is
   set by the run length: the daemon's session registry has no
   eviction, so a run that gets past 64 sessions sees refusals, which
   count as failed (defect a).

   The gate is the one the online mode promises: every session
   completes, at or above the certified clairvoyant bound.  Sessions
   that diverge from an earlier run of their trace, or from the
   in-process controller, are counted in online.divergent_sessions. *)

module P = Emts_serve.Protocol
module J = Emts_resilience.Json
module Online = Emts_serve.Online

let pool_size ~tiny = if tiny then 2 else 16
let replanner = "emts5"

exception Transport of string

type session = {
  trace : int;
  wall : float;
  result : (float * float * int, string) result;  (** makespan, bound, replans *)
}

let submit fd ~session ~seed (tr : Corpus.trace) k ptg =
  Wire.roundtrip fd
    (P.Request.Submit
       {
         id = J.Num (float_of_int k);
         session;
         ptg;
         at = float_of_int k *. tr.gap;
         platform = tr.platform_name;
         model = tr.trace_model;
         algorithm = replanner;
         seed;
         islands = 1;
         migration_interval = 5;
         migration_count = 1;
       })

(* [unavailable] means "retry later" (the router has no live backend
   for the moment), so a verb answered with it is sent again after a
   capped exponential backoff, for up to about 5 s.  Retries are
   counted; the round trip timed is the last one. *)
let unavailable_retries = Atomic.make 0

let rec with_retry ?(delay = 0.05) f =
  let t = Span.now () in
  match f () with
  | Ok (P.Response.Error { code; _ }) when code = P.Error_code.unavailable && delay < 2. ->
    Atomic.incr unavailable_retries;
    Unix.sleepf delay;
    with_retry ~delay:(2. *. delay) f
  | r -> (r, Span.now () -. t)

let drive fd ~name ~(tr : Corpus.trace) ~submit_rtt ~advance_rtt =
  let ( let* ) = Result.bind in
  let rtt = with_retry ?delay:None in
  let* () =
    List.fold_left
      (fun acc (k, ptg) ->
        let* () = acc in
        match rtt (fun () -> submit fd ~session:name ~seed:tr.session_seed tr k ptg) with
        | Ok (P.Response.Submit_result _), dt ->
          submit_rtt dt;
          Ok ()
        | Ok (P.Response.Error { code; message; _ }), _ ->
          Error (Printf.sprintf "submit refused [%s]: %s" code message)
        | Ok _, _ -> Error "submit: unexpected reply"
        | Error m, _ -> raise (Transport m))
      (Ok ())
      (List.mapi (fun k p -> (k, p)) tr.dags)
  in
  match rtt (fun () -> Wire.roundtrip fd (P.Request.Advance { id = J.Null; session = name; to_ = None })) with
  | Ok (P.Response.Advance_result { complete = true; makespan = Some m; bound; replans; _ }), dt ->
    advance_rtt dt;
    Ok (m, bound, replans)
  | Ok (P.Response.Advance_result _), _ -> Error "advance left the session incomplete"
  | Ok (P.Response.Error { code; message; _ }), _ ->
    Error (Printf.sprintf "advance refused [%s]: %s" code message)
  | Ok _, _ -> Error "advance: unexpected reply"
  | Error m, _ -> raise (Transport m)

(* The same trace through the in-process controller the daemon uses. *)
let replay ~spans ~op (tr : Corpus.trace) =
  let cfg =
    Online.config
      ?replanner:(Online.replanner_of_string replanner)
      ~seed:tr.session_seed ~islands:1 ~migration_interval:5 ~migration_count:1
      ~platform:(Option.get (Emts_platform.find_preset tr.platform_name))
      ~model:(Corpus.model_of tr.trace_model) ()
  in
  let t = Online.create cfg in
  let span name f = Span.within spans ~name ~parent:Span.none ~op (fun _ -> f ()) in
  List.iteri
    (fun k ptg ->
      let graph =
        span "ptg.parse" (fun () -> Result.get_ok (Emts_ptg.Serial.of_string ptg))
      in
      match span "online.submit" (fun () -> Online.submit t ~graph ~at:(float_of_int k *. tr.gap)) with
      | Ok _ -> ()
      | Error m -> failwith ("in-process submit: " ^ m))
    tr.dags;
  (match span "online.advance" (fun () -> Online.advance t) with
  | Ok _ -> ()
  | Error m -> failwith ("in-process advance: " ^ m));
  t

let start_fleet ~bin ~dir k =
  let since = Span.now () in
  let tag = string_of_int k in
  let s = Wire.serve ~bin ~dir ~tag in
  let r = Wire.router ~bin ~dir ~tag ~backend:s in
  ignore (Wire.wait_ready ~since s.socket);
  let ready = Wire.wait_ready ~since r.socket in
  (s, r, ready)

(* [clients] threads, one connection each, drive session [idx] of the
   pool while [more idx]; a client whose connection breaks records the
   session as failed and reconnects. *)
let drive_sessions ~socket ~clients ~pool ~prefix ~more ~submit_rtt ~advance_rtt ~record =
  let n = Array.length pool in
  let next = Atomic.make 0 in
  let client () =
    let fd = ref (Wire.connect socket) in
    let rec loop () =
      let idx = Atomic.fetch_and_add next 1 in
      if more idx then begin
        let name = Printf.sprintf "%s-%d" prefix idx in
        let st = Span.now () in
        let reconnect m =
          (try Unix.close !fd with Unix.Unix_error _ -> ());
          fd := Wire.connect socket;
          Error ("connection lost: " ^ m)
        in
        let result =
          try drive !fd ~name ~tr:pool.(idx mod n) ~submit_rtt ~advance_rtt with
          | Transport m -> reconnect m
          | Unix.Unix_error (e, f, _) -> reconnect (f ^ ": " ^ Unix.error_message e)
        in
        record idx ~start:st ~stop:(Span.now ()) result;
        (* A refused session comes back at once: back off a little
           rather than spin through the pool. *)
        if Result.is_error result then Unix.sleepf 0.05;
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> try Unix.close !fd with Unix.Unix_error _ -> ()) loop
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()))

(* Two clients at once on a fresh fleet, each trace once: sessions that
   fail, and completed sessions whose makespan differs from the
   one-client run's. *)
let two_clients ~bin ~dir ~pool ~seed ~expected =
  let s, r, _ = start_fleet ~bin ~dir (Wire.setups + 1) in
  let lock = Mutex.create () in
  let failed = ref 0 and divergent = ref 0 in
  let ignore_rtt _ = () in
  drive_sessions ~socket:r.socket ~clients:2 ~pool ~prefix:(Printf.sprintf "p%d" seed)
    ~more:(fun idx -> idx < Array.length pool)
    ~submit_rtt:ignore_rtt ~advance_rtt:ignore_rtt
    ~record:(fun idx ~start:_ ~stop:_ result ->
      Mutex.lock lock;
      (match (result, expected.(idx)) with
      | Error _, _ -> incr failed
      | Ok (m, _, _), Some (m0, _, _) when Offline.bits m <> Offline.bits m0 -> incr divergent
      | Ok _, _ -> ());
      Mutex.unlock lock);
  Wire.stop r;
  Wire.stop s;
  (!failed, !divergent)

let run ~bin ~dir ~seed ~seconds ~tiny ~traced ~trace_path =
  let pool = Array.of_list (Corpus.online_traces ~tiny ~seed ~count:(pool_size ~tiny)) in
  let n = Array.length pool in
  let setups =
    List.init Wire.setups (fun k ->
        let s, r, t = start_fleet ~bin ~dir k in
        Wire.stop r;
        Wire.stop s;
        t)
  in
  let s, r, last = start_fleet ~bin ~dir Wire.setups in
  let setup = Stat.median (last :: setups) in
  let spans = Span.create () in
  (* Router hop on the idle fleet: the same cheap request (SEQ on a
     5-task graph, so the solve does not drown the hop), alternately
     through the router and straight to the daemon. *)
  let hop =
    if not traced then 0.
    else
      let req =
        P.Request.Schedule
          {
            id = J.Null;
            req =
              P.Request.schedule ~platform:pool.(0).platform_name ~model:pool.(0).trace_model
                ~algorithm:"seq"
                ~ptg:(Emts_ptg.Serial.to_string (Emts_daggen.Fft.generate ~points:2))
                ();
          }
      in
      Wire.with_conn r.socket @@ fun via ->
      Wire.with_conn s.socket @@ fun direct ->
      let pairs = List.init 20 (fun _ -> (Wire.rtt_p50 via ~n:10 req, Wire.rtt_p50 direct ~n:10 req)) in
      Stat.median (List.map fst pairs) -. Stat.median (List.map snd pairs)
  in
  let sessions = ref [] and submit_rtts = ref [] and advance_rtts = ref [] in
  let done_ = Array.make n false and rss = ref Float.nan in
  let t0 = Span.now () in
  let more _ =
    let el = Span.now () -. t0 in
    el < seconds || (el < 4. *. seconds && Array.exists not done_)
  in
  let pace = Pace.create () in
  drive_sessions ~socket:r.socket ~clients:1 ~pool ~prefix:(Printf.sprintf "s%d" seed) ~more
    ~submit_rtt:(fun dt -> submit_rtts := dt :: !submit_rtts)
    ~advance_rtt:(fun dt -> advance_rtts := dt :: !advance_rtts)
    ~record:(fun idx ~start ~stop result ->
      if traced then ignore (Span.add spans ~name:"session" ~parent:Span.none ~op:idx ~start ~stop);
      if Result.is_ok result then begin
        done_.(idx mod n) <- true;
        (* The registry keeps every session (defect a), so the daemon
           grows with the session count, which the run length and the
           machine's speed set: read its peak after a fixed amount of
           work, the first pass over the pool. *)
        if Float.is_nan !rss && Array.for_all Fun.id done_ then rss := Report.peak_rss_mb (Some s.pid)
      end;
      sessions := { trace = idx mod n; wall = stop -. start; result } :: !sessions;
      (* The fleet idles between two sessions of a closed loop. *)
      Pace.sample_n pace 2);
  let load_wall = Span.now () -. t0 in
  let rss = !rss in
  Wire.stop r;
  Wire.stop s;
  let sessions = List.rev !sessions in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let first = Array.make n None in
  let failed = ref 0 and walls = ref [] and divergent = ref 0 in
  List.iter
    (fun se ->
      match se.result with
      | Error m ->
        incr failed;
        if !failed <= 3 then Printf.eprintf "perfbench: session failed: %s\n%!" m
      | Ok ((m, bound, replans) as got) ->
        walls := se.wall :: !walls;
        if not (m /. bound >= 1.) then
          violate "trace %d: online ratio %.17g below 1 (makespan %.17g, bound %.17g)" se.trace
            (m /. bound) m bound;
        (match first.(se.trace) with
        | None -> first.(se.trace) <- Some got
        | Some (m0, _, r0) ->
          if Offline.bits m0 <> Offline.bits m || r0 <> replans then incr divergent))
    sessions;
  Array.iteri (fun i f -> if f = None then violate "trace %d never completed" i) first;
  let firsts = Array.to_list first |> List.filter_map Fun.id in
  let ratio = Stat.geomean (List.map (fun (m, b, _) -> m /. b) firsts) in
  let ok = List.length !walls in
  let slow = Pace.slowdown pace in
  let retries = float_of_int (Atomic.get unavailable_retries) in
  let attempted = List.length sessions in
  let warn_divergent () =
    if !divergent > 0 then
      Printf.eprintf "perfbench: %d session(s) diverged from an earlier run of their trace\n%!"
        !divergent
  in
  if not traced then begin
    warn_divergent ();
    let r = Report.row in
    {
      Report.violations = List.rev !violations;
      attempted;
      failed = !failed;
      rows =
        [
          r "setup_s" "s" setup (Wire.setups + 1);
          r "session_s.p50" "s" (Stat.median !walls) ok;
          r "session_s.p90" "s" (Stat.quantile !walls 0.9) ok;
          r "session_s.gmean" "s" (Stat.geomean !walls) ok;
          r "sessions_per_s" "1/s" (float_of_int ok /. load_wall) ok;
          r "failed_share" "ratio" (float_of_int !failed /. float_of_int attempted) attempted;
          r "online_ratio" "ratio" ratio (List.length firsts);
          r "peak_rss_mb" "MB" rss 1;
          r "online.divergent_sessions" "count" (float_of_int !divergent) ok;
          r "pace.slowdown" "ratio" slow (Pace.count pace);
          r "online.unavailable_retries" "count" retries attempted;
        ];
      metrics =
        [
          ("setup_s", setup);
          ("op_s.gmean", Stat.geomean !walls /. slow);
          ("ops_per_s", float_of_int ok /. load_wall *. slow);
          ("quality_ratio", ratio);
          ("peak_rss_mb", rss);
        ];
    }
  end
  else begin
    let wire_spans = Span.count spans in
    let replans = ref 0 and committed = ref 0 and bytes = ref 0 in
    Array.iteri
      (fun i tr ->
        let t = replay ~spans ~op:i tr in
        replans := !replans + Online.replans t;
        committed := !committed + Online.committed_count t;
        bytes := !bytes + List.fold_left (fun n p -> n + String.length p) 0 tr.Corpus.dags;
        match (first.(i), Online.makespan t) with
        | Some (m, _, r), Some m' when Offline.bits m = Offline.bits m' && r = Online.replans t -> ()
        | Some _, _ -> incr divergent
        | None, _ -> ())
      pool;
    warn_divergent ();
    let two_failed, two_divergent = two_clients ~bin ~dir ~pool ~seed ~expected:first in
    if two_failed + two_divergent > 0 then
      Printf.eprintf
        "perfbench: with two clients, %d of %d sessions failed and %d diverged\n%!"
        two_failed n two_divergent;
    Span.write spans ~path:trace_path;
    let tbl = Span.totals spans in
    let layers =
      [
        ("ptg.parse.calls", float_of_int (Span.calls tbl "ptg.parse"));
        ("ptg.parse.s", Span.total tbl "ptg.parse");
        ("ptg.parse.mb_per_s", float_of_int !bytes /. Span.total tbl "ptg.parse" /. 1e6);
        ("online.submit_s.p50", Stat.median !submit_rtts);
        ("online.advance_s.p50", Stat.median !advance_rtts);
        ("online.submit.s", Span.total tbl "online.submit");
        ("online.advance.s", Span.total tbl "online.advance");
        ("online.replans", float_of_int !replans);
        ("online.committed", float_of_int !committed);
        ("online.divergent_sessions", float_of_int !divergent);
        ("online.two_clients.failed", float_of_int two_failed);
        ("online.two_clients.divergent", float_of_int two_divergent);
        ("online.unavailable_retries", retries);
        ("router.hop_s.p50", hop);
        ("trace.overhead_share", float_of_int wire_spans *. Wire.span_cost () /. load_wall);
      ]
    in
    let rows =
      List.map
        (fun name ->
          Report.row name (Report.unit_of Report.per_layer name) (List.assoc name layers) n)
        [ "online.submit_s.p50"; "online.submit.s"; "online.advance_s.p50"; "online.advance.s";
          "online.replans"; "online.committed"; "online.divergent_sessions";
          "online.two_clients.failed"; "online.two_clients.divergent"; "router.hop_s.p50" ]
    in
    {
      Report.violations = List.rev !violations;
      attempted;
      failed = !failed;
      rows;
      metrics = Report.layers layers;
    }
  end
