(* emts-serve: the EMTS scheduling daemon.

   Listens on a Unix-domain socket (and/or TCP), speaks the
   length-prefixed JSON protocol of [Emts_serve.Protocol] (DESIGN.md
   §11), and answers schedule requests from a bounded admission queue
   drained by persistent worker domains.  SIGINT/SIGTERM drain
   gracefully: admitted work is finished and answered, then the
   process exits 0 with a final metrics dump on stderr. *)

open Cmdliner
module Server = Emts_serve.Server
module Protocol = Emts_serve.Protocol

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen on a Unix-domain socket at $(docv).  An existing \
              socket file is replaced; it is removed again on clean \
              shutdown.")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:"Also listen on TCP at $(docv), e.g. 127.0.0.1:7464.")

let workers_arg =
  Arg.(
    value & opt int Server.default.Server.workers
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains draining the admission queue.  Each holds \
              a persistent evaluation pool; the response to a request \
              does not depend on $(docv).")

let pool_domains_arg =
  Arg.(
    value & opt int Server.default.Server.pool_domains
    & info [ "pool-domains" ] ~docv:"N"
        ~doc:"Fitness-evaluation lanes in each worker's pool.")

let queue_arg =
  Arg.(
    value & opt int Server.default.Server.queue_capacity
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:"Admission queue bound.  Workers take queued requests oldest \
              first; a full queue answers $(b,overloaded) immediately \
              instead of growing latency silently.")

let max_frame_arg =
  Arg.(
    value & opt int Server.default.Server.max_frame
    & info [ "max-request-bytes" ] ~docv:"N"
        ~doc:"Refuse request frames whose payload exceeds $(docv) bytes \
              (checked before the payload is read).")

let watchdog_grace_arg =
  Arg.(
    value & opt float Server.default.Server.watchdog_grace
    & info [ "watchdog-grace" ] ~docv:"SECONDS"
        ~doc:"Answer a request $(b,deadline_exceeded) once it is $(docv) \
              seconds past its deadline with no reply yet — a solve stuck \
              inside one evaluation cannot hang its client.")

let shed_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "shed-budget" ] ~docv:"SECONDS"
        ~doc:"Adaptive load shedding: when the p95 of recent \
              admission-queue waits exceeds $(docv) seconds, refuse new \
              schedule requests with $(b,overloaded) plus a \
              $(b,retry_after_ms) hint instead of queueing them into \
              certain death.  Unset disables shedding.")

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"FILE"
        ~doc:"Arm the deterministic fault-injection plan in $(docv) \
              (single-line JSON, as produced by the chaos tooling) before \
              serving.  Testing only: injects worker crashes, stalls and \
              I/O errors at named sites to exercise the self-healing \
              paths.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Also write the final metrics snapshot as JSON to $(docv).")

let metrics_listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-listen" ] ~docv:"HOST:PORT"
        ~doc:"Serve the metrics registry as an OpenMetrics text document \
              over plain HTTP at $(docv), for Prometheus scraping.  The \
              same document is available in-band through the \
              $(b,metrics) protocol verb.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Record a Chrome trace-event JSONL trace of every request \
              to $(docv) (Perfetto-loadable).  Server-side spans carry \
              each request's trace_id; concatenating this file with a \
              loadgen --trace file yields one merged client+server \
              view.")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:"Keep a fixed-size in-memory ring of recent trace events \
              and dump it to $(docv) as JSONL on SIGQUIT (the daemon \
              keeps serving) or on an uncaught-exception crash.")

let gc_profile_arg =
  Arg.(
    value & flag
    & info [ "gc-profile" ]
        ~doc:"Record per-fitness-evaluation allocation and GC-collection \
              deltas into the gc.eval.* metrics.")

let parse_listen = Emts_serve.Endpoint.parse_hostport ~flag:"--listen"

let run socket listen metrics_listen workers pool_domains queue_capacity
    max_frame watchdog_grace shed_budget fault_plan metrics_json trace flight
    gc_profile =
  let ( let* ) = Result.bind in
  let* tcp =
    match listen with
    | None -> Ok None
    | Some spec -> Result.map Option.some (parse_listen spec)
  in
  let* metrics_tcp =
    match metrics_listen with
    | None -> Ok None
    | Some spec ->
      Result.map Option.some
        (Emts_serve.Endpoint.parse_hostport ~flag:"--metrics-listen" spec)
  in
  let config =
    {
      Server.socket;
      tcp;
      metrics_tcp;
      workers;
      pool_domains;
      queue_capacity;
      max_frame;
      watchdog_grace;
      shed_budget;
    }
  in
  let* () =
    match fault_plan with
    | None -> Ok ()
    | Some path -> (
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m ->
        Error (Printf.sprintf "cannot read fault plan: %s" m)
      | text -> (
        match Emts_fault.Plan.of_string (String.trim text) with
        | Error m -> Error (Printf.sprintf "--fault-plan %s: %s" path m)
        | Ok plan ->
          Emts_fault.arm plan;
          Printf.eprintf "fault plan armed: %d events (seed %d)\n%!"
            (List.length plan.Emts_fault.Plan.events)
            plan.Emts_fault.Plan.seed;
          Ok ()))
  in
  Emts_resilience.Shutdown.install ();
  let* () =
    match trace with
    | None -> Ok ()
    | Some path -> (
      try
        Emts_obs.Trace.start ~path ();
        Ok ()
      with Sys_error m ->
        Error (Printf.sprintf "cannot open trace file %s: %s" path m))
  in
  (match flight with
  | Some path -> Emts_obs.Flight.install ~path ()
  | None -> ());
  if gc_profile then Emts_obs.Gcprof.set_enabled true;
  match Server.run config with
  | Error msg -> Error msg
  | Ok () ->
    (* Final metrics dump: the drain is complete, every admitted
       request has been answered.  Stopping the trace closes (and
       therefore flushes) the sink, so a drained daemon never leaves a
       truncated trace behind. *)
    (match trace with
    | Some path ->
      Emts_obs.Trace.stop ();
      Printf.eprintf "wrote %s\n%!" path
    | None -> ());
    prerr_string (Emts_obs.Metrics.render_openmetrics ());
    let* () =
      match metrics_json with
      | None -> Ok ()
      | Some path -> (
        try
          Emts_resilience.write_string ~path (Emts_obs.Metrics.to_json ());
          Ok ()
        with
        | Sys_error m ->
          Error (Printf.sprintf "cannot write metrics JSON to %s: %s" path m)
        | Unix.Unix_error (e, _, _) ->
          Error
            (Printf.sprintf "cannot write metrics JSON to %s: %s" path
               (Unix.error_message e)))
    in
    Ok ()

let () =
  let info =
    Cmd.info "emts-serve"
      ~version:(Obs_cli.version_string "emts-serve")
      ~doc:"EMTS scheduling service daemon."
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Serves schedule requests over a length-prefixed JSON protocol \
             on a Unix-domain socket and/or TCP.  See DESIGN.md §11 for \
             the frame format, verbs, error codes and backpressure \
             semantics; use emts-loadgen to drive it.";
        ]
  in
  let term =
    Term.(
      term_result'
        (const run $ socket_arg $ listen_arg $ metrics_listen_arg
       $ workers_arg $ pool_domains_arg $ queue_arg $ max_frame_arg
       $ watchdog_grace_arg $ shed_budget_arg $ fault_plan_arg
       $ metrics_json_arg $ trace_arg $ flight_arg $ gc_profile_arg))
  in
  exit (Cmd.eval (Cmd.v info term))
