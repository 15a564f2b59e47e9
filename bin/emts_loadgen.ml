(* emts-loadgen: client and load generator for the emts-serve daemon.

   Two roles:
   - single-shot probes for scripting and CI (--ping, --once, --stats,
     and the fault injectors --malformed / --hangup used by the cram
     robustness tests);
   - an open-loop load run (the default): requests are launched on a
     fixed arrival schedule of --rate per second regardless of how fast
     responses come back, against a corpus of daggen-style random PTGs,
     reporting throughput and p50/p95/p99 latency, optionally as JSON
     (--json).

   Fleet mode: --connect repeats.  Requests round-robin across every
   endpoint (and rotate to the next one on an overloaded retry), and
   the report gains a per-endpoint fleet summary — either a set of
   emts-serve backends driven directly, or one emts-router entry tried
   alongside its backends. *)

open Cmdliner
module Protocol = Emts_serve.Protocol
module Endpoint = Emts_serve.Endpoint
module J = Emts_resilience.Json

(* ------------------------------------------------------------------ *)
(* Transport *)

let with_conn ep f =
  let fd = Endpoint.connect_fd ep in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () ->
      f fd)

let roundtrip fd request =
  Protocol.write_frame fd (Protocol.Request.to_string request);
  match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
  | Error e -> Error (Protocol.frame_error_to_string e)
  | Ok payload -> Protocol.Response.of_string payload

(* Client-side tracing (--trace): every request gets a fresh trace_id,
   carried in the request frame and used as the context of a
   [client.request] span, so the daemon's spans for the same request
   share the id and a concatenation of both JSONL files is one merged
   Perfetto timeline.  The firing threads all share the main domain, so
   the context must be passed explicitly, never through the ambient
   per-domain slot. *)
let client_ctx () =
  if Emts_obs.Trace.active () then begin
    let trace_id = Emts_obs.Span.make_trace_id () in
    (Some trace_id, Some (Emts_obs.Span.root ~trace_id))
  end
  else (None, None)

let with_client_span ctx ~k f =
  match ctx with
  | Some c ->
    Emts_obs.Trace.span "client.request" ~ctx:c
      ~args:[ ("k", Emts_obs.Trace.Int k) ]
      f
  | None -> f ()

(* ------------------------------------------------------------------ *)
(* Corpus *)

let synth_corpus ~count ~tasks ~seed =
  List.init count (fun i ->
      let rng = Emts_prng.create ~seed:(seed + (7919 * i)) () in
      let params =
        {
          Emts_daggen.Random_dag.n = tasks;
          width = 0.5;
          regularity = 0.5;
          density = 0.5;
          jump = 1;
        }
      in
      let graph = Emts_daggen.Random_dag.generate rng params in
      let graph = Emts_daggen.Costs.assign rng graph in
      Emts_ptg.Serial.to_string graph)

let load_corpus ~files ~count ~tasks ~seed =
  match files with
  | [] -> Ok (synth_corpus ~count ~tasks ~seed)
  | files -> (
    try
      Ok
        (List.map
           (fun path ->
             let ic = open_in_bin path in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> really_input_string ic (in_channel_length ic)))
           files)
    with Sys_error m -> Error m)

(* ------------------------------------------------------------------ *)
(* Latency accounting *)

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

type tally = {
  lock : Mutex.t;
  mutable ok : int;
  mutable rejected : int;
  mutable errors : int;
  mutable retried : int;  (** retry attempts performed (not requests) *)
  mutable shed : int;
      (** [overloaded] replies carrying a [retry_after_ms] hint — the
          server's adaptive shedding, as opposed to a plain full queue *)
  mutable latencies : float list;
  per_ok : int array;  (** per-endpoint outcome counts, fleet summary *)
  per_rejected : int array;
  per_errors : int array;
}

let tally_make n =
  { lock = Mutex.create (); ok = 0; rejected = 0; errors = 0; retried = 0;
    shed = 0; latencies = []; per_ok = Array.make n 0;
    per_rejected = Array.make n 0; per_errors = Array.make n 0 }

let record t ~ep outcome latency =
  Mutex.lock t.lock;
  (match outcome with
  | `Ok ->
    t.ok <- t.ok + 1;
    t.per_ok.(ep) <- t.per_ok.(ep) + 1;
    t.latencies <- latency :: t.latencies
  | `Rejected ->
    t.rejected <- t.rejected + 1;
    t.per_rejected.(ep) <- t.per_rejected.(ep) + 1
  | `Error ->
    t.errors <- t.errors + 1;
    t.per_errors.(ep) <- t.per_errors.(ep) + 1);
  Mutex.unlock t.lock

let count_retry t = Mutex.lock t.lock; t.retried <- t.retried + 1; Mutex.unlock t.lock
let count_shed t = Mutex.lock t.lock; t.shed <- t.shed + 1; Mutex.unlock t.lock

(* Capped exponential backoff with deterministic jitter.  The server's
   [retry_after_ms] hint, when present, acts as a floor: the daemon
   computed it from its own queue-wait percentiles, so sleeping less
   just earns another shed. *)
type retry_policy = { max_retries : int; base_s : float; cap_s : float }

let backoff_delay policy rng ~attempt ~retry_after_ms =
  let exp_s =
    Float.min policy.cap_s
      (policy.base_s *. Float.pow 2. (float_of_int attempt))
  in
  let jitter = Emts_prng.float_in rng 0. (0.5 *. exp_s) in
  let floor_s =
    match retry_after_ms with
    | Some ms -> float_of_int ms /. 1000.
    | None -> 0.
  in
  Float.max floor_s (exp_s +. jitter)

(* ------------------------------------------------------------------ *)
(* Single-shot probes *)

let request_of ?(islands = 1) ?(migration_interval = 5)
    ?(migration_count = 1) ~trace_id ~ptg ~platform ~model ~algorithm ~seed
    ~deadline_s ~budget_s () =
  Protocol.Request.Schedule
    {
      id = J.Str "loadgen";
      req =
        Protocol.Request.schedule ~platform ~model ~algorithm ~seed
          ?deadline_s ?budget_s ?trace_id ~islands ~migration_interval
          ~migration_count ~ptg ();
    }

let print_schedule_result (r : Protocol.Response.schedule_result) =
  Printf.printf
    "algorithm=%s makespan=%.6f tasks=%d procs=%d utilization=%.2f%% \
     deadline_hit=%b generations=%d evaluations=%d\n"
    r.Protocol.Response.algorithm r.makespan r.tasks r.procs r.utilization
    r.deadline_hit r.generations_done r.evaluations

let run_once ?islands ~ep ~corpus ~platform ~model ~algorithm ~seed
    ~deadline_s ~budget_s () =
  let ptg = List.hd corpus in
  let trace_id, ctx = client_ctx () in
  with_client_span ctx ~k:0 (fun () ->
      with_conn ep (fun fd ->
          match
            roundtrip fd
              (request_of ?islands ~trace_id ~ptg ~platform ~model ~algorithm
                 ~seed ~deadline_s ~budget_s ())
          with
          | Ok (Protocol.Response.Schedule_result r) ->
            print_schedule_result r;
            Ok ()
          | Ok (Protocol.Response.Error { code; message; _ }) ->
            Error (Printf.sprintf "server error [%s]: %s" code message)
          | Ok _ -> Error "unexpected response verb"
          | Error m -> Error m))

let run_ping ~ep =
  with_conn ep (fun fd ->
      match roundtrip fd (Protocol.Request.Ping { id = J.Str "loadgen" }) with
      | Ok (Protocol.Response.Pong { server; _ }) ->
        Printf.printf "pong from %s\n" server;
        Ok ()
      | Ok _ -> Error "unexpected response verb"
      | Error m -> Error m)

let run_stats ~ep =
  with_conn ep (fun fd ->
      match roundtrip fd (Protocol.Request.Stats { id = J.Str "loadgen" }) with
      | Ok (Protocol.Response.Stats { stats; _ }) ->
        print_endline (J.to_string stats);
        Ok ()
      | Ok _ -> Error "unexpected response verb"
      | Error m -> Error m)

let run_health ~ep =
  with_conn ep (fun fd ->
      match roundtrip fd (Protocol.Request.Health { id = J.Str "loadgen" }) with
      | Ok
          (Protocol.Response.Health { live; ready; draining; backends_live; _ })
        ->
        Printf.printf "live=%b ready=%b draining=%b%s\n" live ready draining
          (match backends_live with
          | None -> ""
          | Some n -> Printf.sprintf " backends_live=%d" n);
        Ok ()
      | Ok _ -> Error "unexpected response verb"
      | Error m -> Error m)

let run_metrics ~ep =
  with_conn ep (fun fd ->
      match
        roundtrip fd (Protocol.Request.Metrics { id = J.Str "loadgen" })
      with
      | Ok (Protocol.Response.Metrics { body; _ }) ->
        print_string body;
        Ok ()
      | Ok _ -> Error "unexpected response verb"
      | Error m -> Error m)

(* Fault injector: a frame with the wrong magic.  A correct server
   answers [malformed_frame] and closes only this connection. *)
let run_malformed ~ep =
  with_conn ep (fun fd ->
      let junk = "XXXX\x00\x00\x00\x04junk" in
      let _ = Unix.write_substring fd junk 0 (String.length junk) in
      match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
      | Ok payload -> (
        match Protocol.Response.of_string payload with
        | Ok (Protocol.Response.Error { code; _ }) ->
          Printf.printf "rejected with code=%s\n" code;
          Ok ()
        | Ok _ -> Error "server accepted a malformed frame"
        | Error m -> Error m)
      | Error Protocol.Closed -> Printf.printf "connection closed\n"; Ok ()
      | Error e -> Error (Protocol.frame_error_to_string e))

(* Fault injector: send a real request, then hang up without reading
   the reply.  The server must absorb the failed write and keep
   serving everyone else. *)
let run_hangup ~ep ~corpus ~platform ~model ~algorithm ~seed =
  let ptg = List.hd corpus in
  with_conn ep (fun fd ->
      Protocol.write_frame fd
        (Protocol.Request.to_string
           (request_of ~trace_id:None ~ptg ~platform ~model ~algorithm ~seed
              ~deadline_s:None ~budget_s:None ()));
      Printf.printf "hung up after sending request\n";
      Ok ())

(* ------------------------------------------------------------------ *)
(* Online arrival run *)

(* Open-loop multi-DAG arrival mode: DAG k of the corpus arrives at
   virtual time k·gap in a named online session; the session then runs
   to completion and reports its realised makespan against the server's
   clairvoyant lower bound.  Two sessions are driven per run — the
   baseline re-planner (every task at its fastest processor count) and
   the requested EMTS one — so the report (and its --json form) carries
   both online/clairvoyant ratios side by side. *)

let online_default_gap ~corpus ~platform ~model =
  let ( let* ) = Result.bind in
  let* graph =
    Result.map_error (fun m -> "ptg: " ^ m)
      (Emts_ptg.Serial.of_string (List.hd corpus))
  in
  let* platform = Emts_serve.Engine.resolve_platform platform in
  let* model = Emts_serve.Engine.resolve_model model in
  let ctx = Emts_alloc.Common.make_ctx ~model ~platform ~graph in
  (* half the first DAG's single-processor critical path: arrivals
     overlap with running work without degenerating to a batch *)
  Ok
    (0.5
    *. Emts_ptg.Analysis.critical_path_length graph ~time:(fun v ->
           ctx.Emts_alloc.Common.tables.(v).(0)))

type online_outcome = {
  o_algorithm : string;
  o_makespan : float;
  o_bound : float;
  o_ratio : float;
  o_replans : int;
  o_drifts : int;
}

let drive_online_session fd ~session ~corpus ~platform ~model ~algorithm
    ~seed ~dags ~gap =
  let ( let* ) = Result.bind in
  let corpus = Array.of_list corpus in
  let* () =
    List.fold_left
      (fun acc k ->
        let* () = acc in
        let at = float_of_int k *. gap in
        match
          roundtrip fd
            (Protocol.Request.Submit
               {
                 id = J.Str "loadgen";
                 session;
                 ptg = corpus.(k mod Array.length corpus);
                 at;
                 platform;
                 model;
                 algorithm;
                 seed;
                 islands = 1;
                 migration_interval = 5;
                 migration_count = 1;
               })
        with
        | Ok (Protocol.Response.Submit_result _) -> Ok ()
        | Ok (Protocol.Response.Error { code; message; _ }) ->
          Error (Printf.sprintf "submit %d rejected [%s]: %s" k code message)
        | Ok _ -> Error "unexpected response verb to submit"
        | Error m -> Error m)
      (Ok ())
      (List.init dags Fun.id)
  in
  match
    roundtrip fd
      (Protocol.Request.Advance { id = J.Str "loadgen"; session; to_ = None })
  with
  | Ok
      (Protocol.Response.Advance_result
         { complete; makespan; bound; replans; drifts; _ }) ->
    if not complete then Error "advance left the session incomplete"
    else begin
      match makespan with
      | None -> Error "complete session reported no makespan"
      | Some m ->
        let ratio = if bound > 0. then m /. bound else 1. in
        Ok
          {
            o_algorithm = algorithm;
            o_makespan = m;
            o_bound = bound;
            o_ratio = ratio;
            o_replans = replans;
            o_drifts = drifts;
          }
    end
  | Ok (Protocol.Response.Error { code; message; _ }) ->
    Error (Printf.sprintf "advance rejected [%s]: %s" code message)
  | Ok _ -> Error "unexpected response verb to advance"
  | Error m -> Error m

let check_ratios_finite outcomes =
  List.fold_left
    (fun acc o ->
      match acc with
      | Error _ as e -> e
      | Ok () ->
        if not (Float.is_finite o.o_ratio) then
          Error (Printf.sprintf "online %s ratio is not finite" o.o_algorithm)
        else if o.o_ratio < 1. -. 1e-9 then
          Error
            (Printf.sprintf "online %s ratio %.17g beats the clairvoyant bound"
               o.o_algorithm o.o_ratio)
        else Ok ())
    (Ok ()) outcomes

let run_online ~ep ~corpus ~platform ~model ~algorithm ~seed ~dags
    ~arrival_gap ~json () =
  let ( let* ) = Result.bind in
  let* () = if dags < 1 then Error "--dags must be >= 1" else Ok () in
  let* gap =
    match arrival_gap with
    | Some g when Float.is_nan g || g < 0. ->
      Error "--arrival-gap must be >= 0"
    | Some g -> Ok g
    | None -> online_default_gap ~corpus ~platform ~model
  in
  let algorithm = if algorithm = "baseline" then "emts5" else algorithm in
  let* outcomes =
    with_conn ep (fun fd ->
        let* base =
          drive_online_session fd
            ~session:(Printf.sprintf "loadgen-baseline-%d" seed)
            ~corpus ~platform ~model ~algorithm:"baseline" ~seed ~dags ~gap
        in
        let* emts =
          drive_online_session fd
            ~session:(Printf.sprintf "loadgen-%s-%d" algorithm seed)
            ~corpus ~platform ~model ~algorithm ~seed ~dags ~gap
        in
        Ok [ base; emts ])
  in
  List.iter
    (fun o ->
      Printf.printf
        "online %s makespan=%.6f bound=%.6f ratio=%.4f replans=%d drifts=%d\n"
        o.o_algorithm o.o_makespan o.o_bound o.o_ratio o.o_replans o.o_drifts)
    outcomes;
  let* () = check_ratios_finite outcomes in
  (match json with
  | None -> ()
  | Some path ->
    let doc =
      J.Obj
        [
          ("mode", J.Str "online");
          ("dags", J.Num (float_of_int dags));
          ("arrival_gap", J.float gap);
          ( "sessions",
            J.List
              (List.map
                 (fun o ->
                   J.Obj
                     [
                       ("algorithm", J.Str o.o_algorithm);
                       ("makespan", J.float o.o_makespan);
                       ("bound", J.float o.o_bound);
                       ("ratio", J.float o.o_ratio);
                       ("replans", J.Num (float_of_int o.o_replans));
                       ("drifts", J.Num (float_of_int o.o_drifts));
                     ])
                 outcomes) );
        ]
    in
    Emts_resilience.write_string ~path (J.to_string doc));
  Ok ()

(* ------------------------------------------------------------------ *)
(* Open-loop load run *)

(* Server-side phase breakdown: after a load run, pull the daemon's
   phase histograms through the stats verb so the report splits the
   observed client latency into queue wait, solve and encode time.
   Best-effort — an unreachable server or one without the histograms
   just omits the section.  Fleet runs pull from the first endpoint
   (a router aggregates its backends there). *)
let phase_metrics =
  [
    ("queue_wait", "serve.queue_wait_s");
    ("solve", "serve.solve_s");
    ("encode", "serve.encode_s");
  ]

let fetch_stats ~ep =
  match
    with_conn ep (fun fd ->
        roundtrip fd (Protocol.Request.Stats { id = J.Str "loadgen" }))
  with
  | Ok (Protocol.Response.Stats { stats; _ }) -> Some stats
  | Ok _ | Error _ -> None
  | exception _ -> None

let server_phases stats =
  let hists = J.member "histograms" stats in
  List.filter_map
    (fun (label, metric) ->
      match Option.bind hists (J.member metric) with
      | None -> None
      | Some h ->
        let f k =
          match Option.map J.to_float (J.member k h) with
          | Some (Ok v) -> v
          | _ -> Float.nan
        in
        Some (label, f "p50", f "p95", f "p99"))
    phase_metrics

let run_load ?islands ~endpoints ~corpus ~platform ~model ~algorithm ~seed
    ~rate ~requests ~deadline_s ~budget_s ~retry ~json () =
  if rate <= 0. then Error "--rate must be positive"
  else begin
    let corpus = Array.of_list corpus in
    let endpoints = Array.of_list endpoints in
    let n_eps = Array.length endpoints in
    let tally = tally_make n_eps in
    let start = Emts_obs.Clock.now () in
    let fire k =
      let ptg = corpus.(k mod Array.length corpus) in
      let rng = Emts_prng.create ~seed:(seed + (104729 * k)) () in
      let sent = Emts_obs.Clock.now () in
      (* Latency of a retried request spans all its attempts, backoff
         included: that is what the caller of a self-retrying client
         experiences.  A retry rotates to the next endpoint, so one
         overloaded backend sheds its excess onto its neighbours. *)
      let rec attempt n =
        let ep_idx = (k + n) mod n_eps in
        let ep = endpoints.(ep_idx) in
        let trace_id, ctx = client_ctx () in
        match
          with_client_span ctx ~k (fun () ->
              with_conn ep (fun fd ->
                  roundtrip fd
                    (request_of ?islands ~trace_id ~ptg ~platform ~model
                       ~algorithm ~seed:(seed + k) ~deadline_s ~budget_s ())))
        with
        | Ok (Protocol.Response.Schedule_result _) ->
          record tally ~ep:ep_idx `Ok (Emts_obs.Clock.now () -. sent)
        | Ok (Protocol.Response.Error { code; retry_after_ms; _ })
          when code = Protocol.Error_code.overloaded ->
          if retry_after_ms <> None then count_shed tally;
          if n < retry.max_retries then begin
            count_retry tally;
            Thread.delay (backoff_delay retry rng ~attempt:n ~retry_after_ms);
            attempt (n + 1)
          end
          else record tally ~ep:ep_idx `Rejected 0.
        | Ok (Protocol.Response.Error { code; _ })
          when code = Protocol.Error_code.draining ->
          (* The server is going away; retrying against it is noise. *)
          record tally ~ep:ep_idx `Rejected 0.
        | Ok _ | Error _ -> record tally ~ep:ep_idx `Error 0.
        | exception _ -> record tally ~ep:ep_idx `Error 0.
      in
      attempt 0
    in
    (* Open loop: launch request [k] at [start + k/rate] whether or not
       earlier requests have completed. *)
    let threads =
      List.init requests (fun k ->
          let due = start +. (float_of_int k /. rate) in
          let delay = due -. Emts_obs.Clock.now () in
          if delay > 0. then Thread.delay delay;
          Thread.create fire k)
    in
    List.iter Thread.join threads;
    let wall = Emts_obs.Clock.now () -. start in
    let latencies =
      let a = Array.of_list tally.latencies in
      Array.sort compare a;
      a
    in
    let quant q =
      if Array.length latencies = 0 then 0. else percentile latencies q
    in
    let throughput = if wall > 0. then float_of_int tally.ok /. wall else 0. in
    Printf.printf
      "requests=%d ok=%d rejected=%d errors=%d retried=%d shed=%d \
       wall_s=%.3f\n"
      requests tally.ok tally.rejected tally.errors tally.retried tally.shed
      wall;
    Printf.printf "throughput=%.2f req/s\n" throughput;
    Printf.printf "latency_s p50=%.6f p95=%.6f p99=%.6f\n" (quant 0.5)
      (quant 0.95) (quant 0.99);
    if n_eps > 1 then
      Array.iteri
        (fun i ep ->
          Printf.printf "fleet %s ok=%d rejected=%d errors=%d\n"
            (Endpoint.to_string ep) tally.per_ok.(i) tally.per_rejected.(i)
            tally.per_errors.(i))
        endpoints;
    let stats = fetch_stats ~ep:endpoints.(0) in
    let phases = Option.fold ~none:[] ~some:server_phases stats in
    List.iter
      (fun (label, p50, p95, p99) ->
        Printf.printf "server %s_s p50=%.6f p95=%.6f p99=%.6f\n" label p50
          p95 p99)
      phases;
    (match json with
    | None -> ()
    | Some path ->
      let server_section =
        match phases with
        | [] -> []
        | ps ->
          [
            ( "server",
              J.Obj
                (List.map
                   (fun (label, p50, p95, p99) ->
                     ( label ^ "_s",
                       J.Obj
                         [
                           ("p50", J.float p50);
                           ("p95", J.float p95);
                           ("p99", J.float p99);
                         ] ))
                   ps) );
          ]
      in
      let fleet_section =
        if n_eps <= 1 then []
        else
          [
            ( "fleet",
              J.List
                (List.mapi
                   (fun i ep ->
                     J.Obj
                       [
                         ("endpoint", J.Str (Endpoint.to_string ep));
                         ("ok", J.Num (float_of_int tally.per_ok.(i)));
                         ( "rejected",
                           J.Num (float_of_int tally.per_rejected.(i)) );
                         ("errors", J.Num (float_of_int tally.per_errors.(i)));
                       ])
                   (Array.to_list endpoints)) );
          ]
      in
      let doc =
        J.Obj
          ([
             ("requests", J.Num (float_of_int requests));
             ("ok", J.Num (float_of_int tally.ok));
             ("rejected", J.Num (float_of_int tally.rejected));
             ("errors", J.Num (float_of_int tally.errors));
             ("retried", J.Num (float_of_int tally.retried));
             ("shed", J.Num (float_of_int tally.shed));
             ("rate_rps", J.float rate);
             ("wall_s", J.float wall);
             ("throughput_rps", J.float throughput);
             ( "latency_s",
               J.Obj
                 [
                   ("p50", J.float (quant 0.5));
                   ("p95", J.float (quant 0.95));
                   ("p99", J.float (quant 0.99));
                 ] );
           ]
          @ server_section @ fleet_section)
      in
      Emts_resilience.write_string ~path (J.to_string doc));
    if tally.errors > 0 then Error "some requests failed" else Ok ()
  end

(* ------------------------------------------------------------------ *)
(* CLI *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Connect to a Unix-domain socket.")

let connect_arg =
  Arg.(
    value & opt_all string []
    & info [ "connect" ] ~docv:"HOST:PORT"
        ~doc:"Connect over TCP (or to $(b,unix:)$(i,PATH)).  Repeatable: \
              a load run round-robins requests across all endpoints and \
              reports a per-endpoint fleet summary.")

let mode_arg =
  Arg.(
    value
    & vflag `Load
        [
          (`Once, info [ "once" ]
             ~doc:"Send one schedule request, print the result, exit.");
          (`Ping, info [ "ping" ] ~doc:"Health-check the server.");
          (`Stats, info [ "stats" ] ~doc:"Fetch and print server metrics.");
          (`Metrics, info [ "metrics" ]
             ~doc:"Fetch and print the server's OpenMetrics text \
                   exposition (the $(b,metrics) protocol verb).");
          (`Health, info [ "health" ]
             ~doc:"Query the $(b,health) protocol verb and print the \
                   live/ready/draining triple.");
          (`Malformed, info [ "malformed" ]
             ~doc:"Send a corrupt frame and report the server's reaction.");
          (`Hangup, info [ "hangup" ]
             ~doc:"Send a request and disconnect without reading the reply.");
          (`Online, info [ "online" ]
             ~doc:"Open-loop multi-DAG arrival run: $(b,--dags) graphs \
                   arrive $(b,--arrival-gap) apart in virtual time \
                   against a live online session, once with the \
                   baseline re-planner (every task at its fastest \
                   processor count) and once with \
                   $(b,--algorithm); reports each session's realised \
                   makespan over the server's clairvoyant lower bound.");
        ])

let ptg_arg =
  Arg.(
    value & opt_all string []
    & info [ "ptg" ] ~docv:"FILE"
        ~doc:"Use $(docv) as corpus (repeatable).  Without it a corpus \
              of daggen-style random graphs is synthesized.")

let corpus_arg =
  Arg.(
    value & opt int 4
    & info [ "corpus" ] ~docv:"N" ~doc:"Synthesized corpus size.")

let tasks_arg =
  Arg.(
    value & opt int 20
    & info [ "tasks" ] ~docv:"N" ~doc:"Tasks per synthesized graph.")

let platform_arg =
  Arg.(
    value & opt string "grelon"
    & info [ "platform" ] ~docv:"NAME" ~doc:"Platform preset.")

let model_arg =
  Arg.(
    value & opt string "amdahl"
    & info [ "model" ] ~docv:"NAME" ~doc:"Timing-model preset.")

let algorithm_arg =
  Arg.(
    value & opt string "emts5"
    & info [ "algorithm" ] ~docv:"NAME" ~doc:"Scheduling algorithm.")

let seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Base PRNG seed (request $(i,k) of a load run uses seed+k).")

let rate_arg =
  Arg.(
    value & opt float 10.
    & info [ "rate" ] ~docv:"R" ~doc:"Open-loop arrival rate, requests/s.")

let requests_arg =
  Arg.(
    value & opt int 20
    & info [ "requests" ] ~docv:"N" ~doc:"Total requests in a load run.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"S"
        ~doc:"Per-request latency deadline in seconds (queue wait \
              included); EMTS runs return their best-so-far answer when \
              it passes.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ] ~docv:"S" ~doc:"Per-request EA solve-time budget.")

let islands_arg =
  Arg.(
    value & opt int 1
    & info [ "islands" ] ~docv:"K"
        ~doc:"Island-model EA sub-populations per schedule request (EMTS \
              algorithms only; 1 = plain EA).")

let retry_max_arg =
  Arg.(
    value & opt int 0
    & info [ "retry-max" ] ~docv:"N"
        ~doc:"Retry $(b,overloaded) rejections up to $(docv) times per \
              request with capped exponential backoff and jitter, \
              honouring the server's $(b,retry_after_ms) hint as a \
              floor.  0 (the default) disables retries; rejections are \
              then terminal and counted as such.")

let retry_base_arg =
  Arg.(
    value & opt float 0.05
    & info [ "retry-base" ] ~docv:"S"
        ~doc:"Backoff before retry $(i,n) is \
              min(cap, $(docv)·2^$(i,n)) plus up to 50% jitter.")

let retry_cap_arg =
  Arg.(
    value & opt float 2.0
    & info [ "retry-cap" ] ~docv:"S" ~doc:"Backoff ceiling in seconds.")

let dags_arg =
  Arg.(
    value & opt int 3
    & info [ "dags" ] ~docv:"N"
        ~doc:"DAG arrivals per online session ($(b,--online) mode).")

let arrival_gap_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "arrival-gap" ] ~docv:"T"
        ~doc:"Virtual time between successive online DAG arrivals.  \
              Defaults to half the first graph's single-processor \
              critical path, so arrivals overlap running work.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the load-run report as JSON to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a client-side Chrome trace-event JSONL trace to $(docv).  \
           Each request gets a fresh trace_id that is sent to the server; \
           concatenating this file with the daemon's own $(b,--trace) \
           output yields a single merged Perfetto timeline in which \
           client and server spans of the same request share a \
           trace_id.")

let run mode socket connect ptg_files corpus_n tasks platform model algorithm
    seed rate requests deadline_s budget_s islands retry_max retry_base
    retry_cap dags arrival_gap json trace =
  let ( let* ) = Result.bind in
  let* connects =
    List.fold_left
      (fun acc spec ->
        let* acc = acc in
        let* ep = Endpoint.parse ~flag:"--connect" spec in
        Ok (ep :: acc))
      (Ok []) connect
  in
  let endpoints =
    (match socket with
    | Some path -> [ Endpoint.Unix_socket path ]
    | None -> [])
    @ List.rev connects
  in
  let* () =
    if endpoints = [] then
      Error "no server address (need --socket or --connect)"
    else Ok ()
  in
  let ep = List.hd endpoints in
  let* corpus = load_corpus ~files:ptg_files ~count:corpus_n ~tasks ~seed in
  let* () = if corpus = [] then Error "empty corpus" else Ok () in
  (* pid 2 marks the client lane in a merged client+server trace (the
     daemon records under pid 1); both processes stamp events with the
     machine-wide monotonic clock, so the lanes align. *)
  let* () =
    match trace with
    | None -> Ok ()
    | Some path -> (
      try
        Ok (Emts_obs.Trace.start ~pid:2 ~process_name:"emts-loadgen" ~path ())
      with Sys_error m ->
        Error (Printf.sprintf "cannot open trace file %s: %s" path m))
  in
  let finally () =
    match trace with
    | None -> ()
    | Some path ->
      Emts_obs.Trace.stop ();
      Printf.eprintf "wrote %s\n%!" path
  in
  Fun.protect ~finally (fun () ->
      try
        match mode with
        | `Ping -> run_ping ~ep
        | `Stats -> run_stats ~ep
        | `Metrics -> run_metrics ~ep
        | `Health -> run_health ~ep
        | `Malformed -> run_malformed ~ep
        | `Hangup -> run_hangup ~ep ~corpus ~platform ~model ~algorithm ~seed
        | `Once ->
          run_once ~islands ~ep ~corpus ~platform ~model ~algorithm ~seed
            ~deadline_s ~budget_s ()
        | `Online ->
          run_online ~ep ~corpus ~platform ~model ~algorithm ~seed ~dags
            ~arrival_gap ~json ()
        | `Load ->
          let retry =
            {
              max_retries = max 0 retry_max;
              base_s = Float.max 0.001 retry_base;
              cap_s = Float.max 0.001 retry_cap;
            }
          in
          run_load ~islands ~endpoints ~corpus ~platform ~model ~algorithm
            ~seed ~rate ~requests ~deadline_s ~budget_s ~retry ~json ()
      with
      | Unix.Unix_error (e, fn, arg) ->
        Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message e))
      | Failure m -> Error m)

let () =
  let info =
    Cmd.info "emts-loadgen"
      ~version:(Obs_cli.version_string "emts-loadgen")
      ~doc:"Load generator and client for the emts-serve daemon."
  in
  let term =
    Term.(
      term_result'
        (const run $ mode_arg $ socket_arg $ connect_arg $ ptg_arg
       $ corpus_arg $ tasks_arg $ platform_arg $ model_arg $ algorithm_arg
       $ seed_arg $ rate_arg $ requests_arg $ deadline_arg $ budget_arg
       $ islands_arg $ retry_max_arg $ retry_base_arg $ retry_cap_arg
       $ dags_arg $ arrival_gap_arg $ json_arg $ trace_arg))
  in
  exit (Cmd.eval (Cmd.v info term))
