(* Tests for Emts_obs (clock, trace sink, span contexts, metrics
   registry, OpenMetrics exposition, flight recorder) and the
   observer-only guarantee: enabling telemetry must not change any
   scheduling result. *)

module Obs = Emts_obs
module J = Emts_resilience.Json

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some l -> go (l :: acc)
      in
      go [])

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- clock ----------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_ns () in
    if Int64.compare t !prev < 0 then Alcotest.fail "clock went backwards";
    prev := t
  done;
  let t0 = Obs.Clock.now () in
  ignore (Sys.opaque_identity (Array.init 1000 Fun.id));
  Alcotest.(check bool) "elapsed >= 0" true (Obs.Clock.elapsed ~since:t0 >= 0.)

(* --- tracing --------------------------------------------------------- *)

let test_span_disabled () =
  Obs.Trace.stop ();
  Alcotest.(check bool) "inactive" false (Obs.Trace.active ());
  Alcotest.(check int) "span returns value" 42 (Obs.Trace.span "x" (fun () -> 42));
  Obs.Trace.instant "nothing";
  Obs.Trace.counter "nothing" [ ("v", 1.) ]

let test_trace_wellformed () =
  let path = Filename.temp_file "emts_obs" ".jsonl" in
  Obs.Trace.start ~path ();
  Alcotest.(check bool) "active" true (Obs.Trace.active ());
  Obs.Trace.span "outer" ~args:[ ("k", Obs.Trace.Str "v\"quoted\"") ]
    (fun () -> Obs.Trace.span "inner" (fun () -> ()));
  Obs.Trace.instant "marker" ~args:[ ("n", Obs.Trace.Int 3) ];
  Obs.Trace.counter "series" [ ("a", 1.5); ("b", 2.5) ];
  (* concurrent emission from worker domains, one pinned lane each *)
  let workers =
    List.init 2 (fun w ->
        Domain.spawn (fun () ->
            Obs.Trace.span "worker" ~tid:(100 + w) (fun () -> ())))
  in
  List.iter Domain.join workers;
  (* spans survive exceptions *)
  (try Obs.Trace.span "raising" (fun () -> failwith "boom")
   with Failure _ -> ());
  Obs.Trace.stop ();
  let lines = read_lines path in
  Alcotest.(check bool) "non-empty" true (List.length lines > 5);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object per line" true
        (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}');
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "%s has %s" l key)
            true
            (contains ~needle:(Printf.sprintf "\"%s\":" key) l))
        [ "ph"; "ts"; "name"; "pid"; "tid" ])
    lines;
  let count needle =
    List.length (List.filter (fun l -> contains ~needle l) lines)
  in
  Alcotest.(check int) "outer span" 1 (count "\"name\":\"outer\"");
  Alcotest.(check int) "inner span" 1 (count "\"name\":\"inner\"");
  Alcotest.(check int) "worker spans" 2 (count "\"name\":\"worker\"");
  Alcotest.(check int) "raising span recorded" 1 (count "\"name\":\"raising\"");
  Alcotest.(check int) "instant" 1 (count "\"ph\":\"i\"");
  Alcotest.(check int) "counter event" 1 (count "\"ph\":\"C\"");
  Alcotest.(check bool) "escaped quote" true
    (count "v\\\"quoted\\\"" = 1);
  Alcotest.(check bool) "thread metadata" true
    (count "\"name\":\"thread_name\"" >= 3);
  Sys.remove path

(* --- spans ----------------------------------------------------------- *)

let event_named lines name =
  match
    List.find_opt
      (fun l -> contains ~needle:(Printf.sprintf "\"name\":\"%s\"" name) l)
      lines
  with
  | Some l -> l
  | None -> Alcotest.fail (Printf.sprintf "no %s event in trace" name)

let event_arg line key =
  match J.of_string line with
  | Error m -> Alcotest.fail (Printf.sprintf "unparseable event %s: %s" line m)
  | Ok j -> Option.bind (J.member "args" j) (J.member key)

let arg_int line key =
  match event_arg line key with
  | Some (J.Num n) -> int_of_float n
  | _ -> Alcotest.fail (Printf.sprintf "no integer arg %s in %s" key line)

let test_span_ids () =
  Alcotest.(check bool) "make_trace_id valid" true
    (Obs.Span.valid_trace_id (Obs.Span.make_trace_id ()));
  Alcotest.(check bool) "fresh ids" true
    (Obs.Span.make_trace_id () <> Obs.Span.make_trace_id ());
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "%S valid" id) true
        (Obs.Span.valid_trace_id id))
    [ "a"; "t1f-2.B_x"; String.make Obs.Span.max_trace_id_len 'z' ];
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "%S invalid" id) false
        (Obs.Span.valid_trace_id id))
    [
      "";
      "has space";
      "non\xc3\xa9ascii";
      String.make (Obs.Span.max_trace_id_len + 1) 'z';
    ]

(* Nesting: an inner span closes (and is written) before its enclosing
   span, carries the shared trace_id, and points at the outer span
   through parent_id; an instant emitted inside a span inherits the
   span as its parent. *)
let test_span_nesting () =
  let path = Filename.temp_file "emts_obs_span" ".jsonl" in
  Obs.Trace.start ~path ();
  Obs.Span.with_trace ~trace_id:"tNEST-1" (fun () ->
      Obs.Trace.span "outer" (fun () ->
          Obs.Trace.span "inner" (fun () -> ());
          Obs.Trace.instant "mark"));
  Obs.Trace.stop ();
  let lines = read_lines path in
  let outer = event_named lines "outer" in
  let inner = event_named lines "inner" in
  let mark = event_named lines "mark" in
  List.iter
    (fun l ->
      Alcotest.(check bool) "shared trace_id" true
        (event_arg l "trace_id" = Some (J.Str "tNEST-1")))
    [ outer; inner; mark ];
  let index_of l =
    let rec go i = function
      | [] -> Alcotest.fail "event vanished"
      | x :: rest -> if x = l then i else go (i + 1) rest
    in
    go 0 lines
  in
  Alcotest.(check bool) "inner written before outer" true
    (index_of inner < index_of outer);
  let outer_id = arg_int outer "span_id" in
  Alcotest.(check int) "inner.parent = outer" outer_id
    (arg_int inner "parent_id");
  Alcotest.(check int) "mark.parent = outer" outer_id
    (arg_int mark "parent_id");
  Alcotest.(check bool) "outer is a root" true
    (event_arg outer "parent_id" = None);
  (* an explicit ctx does not leak into the ambient slot *)
  Alcotest.(check bool) "ambient clear" true (Obs.Span.current () = None);
  Sys.remove path

(* --- flight recorder -------------------------------------------------- *)

let test_flight_recorder () =
  Obs.Trace.stop ();
  Obs.Metrics.reset ();
  Obs.Flight.configure ~capacity:4 ();
  Alcotest.(check bool) "enabled" true (Obs.Flight.enabled ());
  (* trace events reach the ring even with no trace sink open *)
  for i = 1 to 10 do
    Obs.Trace.instant (Printf.sprintf "ev%d" i)
  done;
  let path = Filename.temp_file "emts_flight" ".jsonl" in
  (match Obs.Flight.dump ~path with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* an unwritable path is a clean error, never an exception *)
  (match Obs.Flight.dump ~path:"/nonexistent-dir/flight.jsonl" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "dump to an unwritable path succeeded");
  Obs.Flight.disable ();
  Alcotest.(check bool) "disabled" false (Obs.Flight.enabled ());
  let lines = read_lines path in
  (* header + the 4 retained events + metrics snapshot *)
  Alcotest.(check int) "line count" 6 (List.length lines);
  let header = List.hd lines in
  Alcotest.(check bool) "header" true
    (contains ~needle:"{\"flight\":\"emts\"" header
    && contains ~needle:"\"events\":4" header
    && contains ~needle:"\"dropped\":6" header);
  (* ring keeps the newest events, oldest first in the dump *)
  List.iteri
    (fun i l ->
      if i >= 1 && i <= 4 then
        Alcotest.(check bool)
          (Printf.sprintf "slot %d is ev%d" i (i + 6))
          true
          (contains ~needle:(Printf.sprintf "\"name\":\"ev%d\"" (i + 6)) l))
    lines;
  let last = List.nth lines 5 in
  Alcotest.(check bool) "metrics snapshot" true
    (contains ~needle:"{\"metrics\":{" last);
  Sys.remove path

(* --- metrics --------------------------------------------------------- *)

let test_counters_multidomain () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let c = Obs.Metrics.counter "test.multidomain" in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Obs.Metrics.incr c
            done))
  in
  List.iter Domain.join workers;
  Obs.Metrics.set_enabled false;
  Alcotest.(check int) "atomic count" 40_000 (Obs.Metrics.counter_value c);
  Alcotest.(check (option int))
    "find_counter" (Some 40_000)
    (Obs.Metrics.find_counter "test.multidomain")

let test_metrics_disabled_noop () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled false;
  let c = Obs.Metrics.counter "test.disabled" in
  let h = Obs.Metrics.histogram "test.disabled_hist" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 10;
  Obs.Metrics.observe h 1.;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "histogram untouched" true
    (Obs.Metrics.histogram_value h = None)

let test_histogram_instrument () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let h = Obs.Metrics.histogram "test.hist" in
  List.iter (Obs.Metrics.observe h) [ 1.; 2.; 3.; 4. ];
  Obs.Metrics.set_enabled false;
  (match Obs.Metrics.histogram_value h with
  | None -> Alcotest.fail "expected observations"
  | Some d ->
    Alcotest.(check int) "count" 4 d.Obs.Metrics.count;
    Alcotest.(check (float 1e-9)) "mean" 2.5 d.Obs.Metrics.mean;
    Alcotest.(check (float 1e-9)) "min" 1. d.Obs.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 4. d.Obs.Metrics.max;
    Alcotest.(check (float 1e-9)) "total" 10. d.Obs.Metrics.total);
  (* same name returns the same instrument; other kind is rejected *)
  List.iter (Obs.Metrics.observe (Obs.Metrics.histogram "test.hist")) [];
  Alcotest.(check bool) "kind clash rejected" true
    (try
       ignore (Obs.Metrics.counter "test.hist");
       false
     with Invalid_argument _ -> true)

let test_render_and_json () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let c = Obs.Metrics.counter "test.render_counter" in
  Obs.Metrics.add c 7;
  let g = Obs.Metrics.gauge "test.render_gauge" in
  Obs.Metrics.set_gauge g 1.25;
  let h = Obs.Metrics.histogram "test.render_hist" in
  Obs.Metrics.observe h 2.;
  Obs.Metrics.set_enabled false;
  let text = Obs.Metrics.render_openmetrics () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("openmetrics has " ^ needle) true
        (contains ~needle text))
    [
      "\nemts_test_render_counter_total 7\n";
      "\nemts_test_render_gauge 1.25\n";
      "\nemts_test_render_hist_count 1\n";
      "\nemts_test_render_hist_sum 2\n";
    ];
  let json = Obs.Metrics.to_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json has " ^ needle) true
        (contains ~needle json))
    [
      "\"counters\":{"; "\"gauges\":{"; "\"histograms\":{";
      "\"test.render_counter\":7"; "\"count\":1";
    ];
  (* reset zeroes but keeps instrument identity *)
  Obs.Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check bool) "reset clears histogram" true
    (Obs.Metrics.histogram_value h = None)

(* Every emitted JSON artifact must parse back, including non-finite
   values: a NaN gauge serialises as [null] (a bare [nan] token is not
   JSON and broke downstream parsers), infinities as parseable
   strings. *)
let test_json_round_trip_nonfinite () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "test.rt_nan_gauge") Float.nan;
  Obs.Metrics.set_gauge (Obs.Metrics.gauge "test.rt_inf_gauge") infinity;
  ignore (Obs.Metrics.histogram "test.rt_empty_hist");
  Obs.Metrics.set_enabled false;
  let json = Obs.Metrics.to_json () in
  Alcotest.(check bool) "no bare nan token" false (contains ~needle:":nan" json);
  (match Emts_resilience.Json.of_string json with
  | Error e -> Alcotest.failf "metrics json does not parse back: %s" e
  | Ok v -> (
    match Emts_resilience.Json.(member "gauges" v) with
    | Some (Emts_resilience.Json.Obj gauges) ->
      Alcotest.(check bool) "nan gauge is null" true
        (List.assoc_opt "test.rt_nan_gauge" gauges
        = Some Emts_resilience.Json.Null);
      Alcotest.(check bool) "inf gauge survives" true
        (List.assoc_opt "test.rt_inf_gauge" gauges
        = Some (Emts_resilience.Json.Str "inf"))
    | _ -> Alcotest.fail "gauges object missing"));
  (* the resilience serialiser makes the same guarantee for raw [Num] *)
  let raw =
    Emts_resilience.Json.(
      to_string (Obj [ ("x", Num Float.nan); ("y", Num infinity) ]))
  in
  match Emts_resilience.Json.of_string raw with
  | Error e -> Alcotest.failf "raw Num json does not parse back: %s" e
  | Ok v ->
    Alcotest.(check bool) "raw NaN is null" true
      (Emts_resilience.Json.member "x" v = Some Emts_resilience.Json.Null);
    Alcotest.(check bool) "raw inf round-trips" true
      (match Emts_resilience.Json.member "y" v with
      | Some j -> Emts_resilience.Json.to_float j = Ok infinity
      | None -> false)

(* --- OpenMetrics exposition ------------------------------------------ *)

(* Golden-file comparison, same protocol as test_golden.ml: regenerate
   with EMTS_GOLDEN_UPDATE=1 dune runtest test --force. *)
let update_mode = Sys.getenv_opt "EMTS_GOLDEN_UPDATE" <> None

let golden_source_dir =
  match Sys.getenv_opt "DUNE_SOURCEROOT" with
  | Some root -> Filename.concat (Filename.concat root "test") "golden"
  | None -> "golden"

let check_golden name actual =
  let sandbox_path = Filename.concat "golden" (name ^ ".expected") in
  if update_mode then begin
    let path = Filename.concat golden_source_dir (name ^ ".expected") in
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

(* The registry is global to the test binary, so the golden file keeps
   only this test's uniquely-prefixed om.* instruments (every other
   name in this binary starts with test. or gc.) plus the terminator. *)
let filter_exposition body =
  String.split_on_char '\n' body
  |> List.filter (fun l -> contains ~needle:"emts_om_" l || l = "# EOF")
  |> fun ls -> String.concat "\n" ls ^ "\n"

let test_openmetrics_golden () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let c =
    Obs.Metrics.counter
      ~help:"Total \"om\" requests — first line\nsecond \\ line."
      "om.requests.total"
  in
  Obs.Metrics.add c 7;
  (* a counter whose name does not end in _total gets the suffix added
     on its sample line only *)
  let hits = Obs.Metrics.counter ~help:"Cache hits." "om.hits" in
  Obs.Metrics.incr hits;
  let g = Obs.Metrics.gauge ~help:"Queue depth." "om.queue_depth" in
  Obs.Metrics.set_gauge g (-2.5);
  let h = Obs.Metrics.histogram ~help:"Solve latency." "om.latency_s" in
  (* 0.0 exercises the le="0" bucket for nonpositive observations *)
  List.iter (Obs.Metrics.observe h) [ 0.; 0.001; 0.001; 0.25 ];
  (* registered but never observed: still exposed, with empty buckets *)
  ignore (Obs.Metrics.histogram ~help:"Never observed." "om.empty_s");
  Obs.Metrics.set_enabled false;
  let body = Obs.Metrics.render_openmetrics () in
  let n = String.length body in
  Alcotest.(check bool) "terminated" true
    (n >= 6 && String.sub body (n - 6) 6 = "# EOF\n");
  check_golden "openmetrics" (filter_exposition body)

(* --- observer-only guarantee ----------------------------------------- *)

let emts_result ~seed () =
  let rng = Emts_prng.create ~seed:7 () in
  let graph = Testutil.random_triangular_dag rng ~n:40 ~p:0.15 in
  let ctx =
    Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic
      ~platform:Emts_platform.chti ~graph
  in
  let config =
    { Emts.Algorithm.emts5 with domains = 2 }
  in
  Emts.Algorithm.run_ctx ~rng:(Emts_prng.create ~seed ()) ~config ~ctx ()

let test_determinism_tracing () =
  (* identical PRNG stream and results with every sink off vs. on *)
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled false;
  Obs.Trace.stop ();
  let plain = emts_result ~seed:99 () in
  let path = Filename.temp_file "emts_obs_det" ".jsonl" in
  Obs.Metrics.set_enabled true;
  Obs.Trace.start ~path ();
  let observed = emts_result ~seed:99 () in
  Obs.Trace.stop ();
  Obs.Metrics.set_enabled false;
  Alcotest.(check (float 0.)) "best_fitness identical" plain.Emts.Algorithm.makespan
    observed.Emts.Algorithm.makespan;
  Alcotest.(check (array int)) "allocation identical"
    plain.Emts.Algorithm.alloc observed.Emts.Algorithm.alloc;
  Alcotest.(check int) "evaluation counts identical"
    plain.Emts.Algorithm.ea.Emts_ea.evaluations
    observed.Emts.Algorithm.ea.Emts_ea.evaluations;
  (* the trace actually recorded the generations *)
  let lines = read_lines path in
  let gen_spans =
    List.length
      (List.filter (fun l -> contains ~needle:"\"name\":\"ea.generation\"" l) lines)
  in
  Alcotest.(check int) "one span per generation" 5 gen_spans;
  Alcotest.(check bool) "worker lanes present" true
    (List.exists (fun l -> contains ~needle:"\"name\":\"worker 1\"" l) lines
    && List.exists (fun l -> contains ~needle:"\"name\":\"worker 2\"" l) lines);
  Sys.remove path

let test_counters_match_result () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let result = emts_result ~seed:123 () in
  Obs.Metrics.set_enabled false;
  Alcotest.(check (option int))
    "ea.evaluations matches result.evaluations"
    (Some result.Emts.Algorithm.ea.Emts_ea.evaluations)
    (Obs.Metrics.find_counter "ea.evaluations");
  let hits =
    Option.value ~default:0 (Obs.Metrics.find_counter "ea.early_reject.hits")
  in
  let misses =
    Option.value ~default:0
      (Obs.Metrics.find_counter "ea.early_reject.misses")
  in
  (* every fitness call, the seeds' included, counts one hit or one
     miss, so hits + misses accounts for every evaluation *)
  Alcotest.(check int) "hits + misses = evaluations"
    result.Emts.Algorithm.ea.Emts_ea.evaluations (hits + misses);
  Alcotest.(check bool) "early reject fired" true (hits > 0)

(* The online re-planner's EA rejects too, and the counts come from the
   EA: one hit or one miss per fitness call. *)
let test_online_counts_rejections () =
  let module Online = Emts_serve.Online in
  let rng = Emts_prng.create ~seed:23 () in
  let g1 = Testutil.costed_daggen rng ~n:30 in
  let g2 = Testutil.costed_daggen rng ~n:30 in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
  let t =
    Online.create
      (Online.config
         ~replanner:(Online.Emts { mu = 5; lambda = 25; generations = 5 })
         ~seed:23 ~platform:Emts_platform.chti ~model:Emts_model.synthetic ())
  in
  List.iteri
    (fun k graph ->
      match Online.submit t ~graph ~at:(float_of_int k) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("online submit: " ^ m))
    [ g1; g2 ];
  (match Online.advance t with
  | Ok r when r.Online.complete -> ()
  | Ok _ -> Alcotest.fail "online session did not complete"
  | Error m -> Alcotest.fail ("online advance: " ^ m));
  let count name = Option.value ~default:0 (Obs.Metrics.find_counter name) in
  let hits = count "ea.early_reject.hits" in
  Alcotest.(check bool) "re-planned with the EA" true (Online.replans t > 0);
  Alcotest.(check int) "hits + misses = evaluations"
    (count "ea.evaluations")
    (hits + count "ea.early_reject.misses");
  Alcotest.(check bool) "early reject fired" true (hits > 0)

let test_determinism_early_reject_metrics () =
  (* metrics collection on the early-reject path must not change results *)
  Obs.Metrics.set_enabled false;
  let plain = emts_result ~seed:5 () in
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled true;
  let observed = emts_result ~seed:5 () in
  Obs.Metrics.set_enabled false;
  Alcotest.(check (float 0.)) "makespan identical" plain.Emts.Algorithm.makespan
    observed.Emts.Algorithm.makespan;
  Alcotest.(check (array int)) "allocation identical"
    plain.Emts.Algorithm.alloc observed.Emts.Algorithm.alloc

(* Every telemetry sink at once — trace, metrics, GC profiling, flight
   recorder — against all of them off: bit-identical results. *)
let test_determinism_full_telemetry () =
  Obs.Metrics.reset ();
  Obs.Metrics.set_enabled false;
  Obs.Trace.stop ();
  let plain = emts_result ~seed:31 () in
  let path = Filename.temp_file "emts_obs_full" ".jsonl" in
  Obs.Trace.start ~path ();
  Obs.Metrics.set_enabled true;
  Obs.Gcprof.set_enabled true;
  Obs.Flight.configure ~capacity:256 ();
  let observed = emts_result ~seed:31 () in
  Obs.Gcprof.set_enabled false;
  Obs.Metrics.set_enabled false;
  Obs.Flight.disable ();
  Obs.Trace.stop ();
  Alcotest.(check (float 0.)) "makespan identical" plain.Emts.Algorithm.makespan
    observed.Emts.Algorithm.makespan;
  Alcotest.(check (array int)) "allocation identical"
    plain.Emts.Algorithm.alloc observed.Emts.Algorithm.alloc;
  Alcotest.(check int) "evaluation counts identical"
    plain.Emts.Algorithm.ea.Emts_ea.evaluations
    observed.Emts.Algorithm.ea.Emts_ea.evaluations;
  (* the GC profiler measured every evaluation into the registry *)
  (match Obs.Metrics.histogram_value (Obs.Metrics.histogram "gc.eval.alloc_bytes") with
  | Some d ->
    Alcotest.(check bool) "per-eval allocation recorded" true
      (d.Obs.Metrics.count >= observed.Emts.Algorithm.ea.Emts_ea.evaluations
      && d.Obs.Metrics.total > 0.)
  | None -> Alcotest.fail "gc.eval.alloc_bytes is empty");
  Sys.remove path

let () =
  Alcotest.run "obs"
    [
      ("clock", [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ]);
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_span_disabled;
          Alcotest.test_case "JSONL well-formed" `Quick test_trace_wellformed;
        ] );
      ( "spans",
        [
          Alcotest.test_case "trace ids" `Quick test_span_ids;
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
        ] );
      ( "flight",
        [ Alcotest.test_case "ring, dump, bounds" `Quick test_flight_recorder ] );
      ( "metrics",
        [
          Alcotest.test_case "multi-domain counters" `Quick
            test_counters_multidomain;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_metrics_disabled_noop;
          Alcotest.test_case "histogram instrument" `Quick
            test_histogram_instrument;
          Alcotest.test_case "render and json" `Quick test_render_and_json;
          Alcotest.test_case "json round-trips non-finite values" `Quick
            test_json_round_trip_nonfinite;
          Alcotest.test_case "openmetrics golden" `Quick
            test_openmetrics_golden;
        ] );
      ( "observer-only",
        [
          Alcotest.test_case "tracing preserves determinism" `Slow
            test_determinism_tracing;
          Alcotest.test_case "counters match EA result" `Slow
            test_counters_match_result;
          Alcotest.test_case "online re-planner counts rejections" `Slow
            test_online_counts_rejections;
          Alcotest.test_case "early-reject metrics preserve results" `Slow
            test_determinism_early_reject_metrics;
          Alcotest.test_case "full telemetry preserves results" `Slow
            test_determinism_full_telemetry;
        ] );
    ]
