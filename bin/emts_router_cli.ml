(* emts-router: front-end daemon for a fleet of emts-serve backends.

   Speaks the length-prefixed EMTS/JSON frame protocol on both sides:
   clients connect here exactly as they would to a single daemon, and
   schedule and migrate requests are sharded over the --backend list by
   rendezvous hashing of the scheduling instance, so migrants offered
   for an instance wait on the backend that solves it next.  Dead
   backends are detected (hangup or
   failed health probe) and routed around; SIGINT/SIGTERM drain
   gracefully.  See DESIGN.md §16. *)

open Cmdliner
module Router = Emts_router.Router
module Endpoint = Emts_serve.Endpoint

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Listen for clients on a Unix-domain socket at $(docv).")

let listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:"Also listen for clients on TCP at $(docv).")

let backend_arg =
  Arg.(
    value & opt_all string []
    & info [ "backend" ] ~docv:"ADDR"
        ~doc:"A backend emts-serve address (repeatable): HOST:PORT, \
              unix:PATH, or a bare socket path containing '/'.  The \
              fleet is static; backends may come and go at runtime and \
              are probed back to life automatically.")

let max_frame_arg =
  Arg.(
    value & opt int Router.default.Router.max_frame
    & info [ "max-request-bytes" ] ~docv:"N"
        ~doc:"Refuse frames whose payload exceeds $(docv) bytes, both \
              from clients and from backends.")

let probe_interval_arg =
  Arg.(
    value & opt float Router.default.Router.probe_interval
    & info [ "probe-interval" ] ~docv:"SECONDS"
        ~doc:"Seconds between background health sweeps of the fleet.")

let probe_timeout_arg =
  Arg.(
    value & opt float Router.default.Router.probe_timeout
    & info [ "probe-timeout" ] ~docv:"SECONDS"
        ~doc:"Socket timeout of one health probe.")

let retries_arg =
  Arg.(
    value & opt int Router.default.Router.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:"Additional backends tried after the first choice fails \
              or reports draining; when every candidate is exhausted \
              the client gets a typed $(b,unavailable) error.")

let migrate_relay_arg =
  Arg.(
    value & flag
    & info [ "migrate-relay" ]
        ~doc:"Gossip island-mode winners around the fleet: after an \
              islands > 1 schedule result, forward the winning \
              allocation as a $(b,migrate) frame to the next ready \
              backend, seeding its future solves of that instance.")

let metrics_listen_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-listen" ] ~docv:"HOST:PORT"
        ~doc:"Serve the router's metrics registry (emts_router_* \
              series, including emts_router_backends_live) as \
              OpenMetrics over plain HTTP at $(docv), plus /healthz.")

let run socket listen backends max_frame probe_interval probe_timeout retries
    migrate_relay metrics_listen =
  let ( let* ) = Result.bind in
  let* tcp =
    match listen with
    | None -> Ok None
    | Some spec ->
      Result.map Option.some
        (Endpoint.parse_hostport ~flag:"--listen" spec)
  in
  let* metrics_tcp =
    match metrics_listen with
    | None -> Ok None
    | Some spec ->
      Result.map Option.some
        (Endpoint.parse_hostport ~flag:"--metrics-listen" spec)
  in
  let* backends =
    List.fold_left
      (fun acc spec ->
        let* acc = acc in
        let* ep = Endpoint.parse ~flag:"--backend" spec in
        Ok (ep :: acc))
      (Ok []) backends
    |> Result.map List.rev
  in
  Emts_resilience.Shutdown.install ();
  let config =
    {
      Router.socket;
      tcp;
      metrics_tcp;
      backends;
      max_frame;
      probe_interval;
      probe_timeout;
      retries;
      migrate_relay;
    }
  in
  match Router.run config with
  | Error msg -> Error msg
  | Ok () ->
    prerr_string (Emts_obs.Metrics.render_openmetrics ());
    Ok ()

let () =
  let info =
    Cmd.info "emts-router"
      ~version:(Obs_cli.version_string "emts-router")
      ~doc:"EMTS fleet router: shard scheduling over emts-serve backends."
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Front-end for a fleet of emts-serve daemons.  Clients speak \
             the ordinary EMTS frame protocol; schedule requests are \
             sharded by rendezvous hash of (ptg, platform, model) so each \
             instance has a stable home backend, stats are aggregated \
             across the fleet, and dead backends are detected and routed \
             around.  See DESIGN.md §16.";
        ]
  in
  let term =
    Term.(
      term_result'
        (const run $ socket_arg $ listen_arg $ backend_arg $ max_frame_arg
       $ probe_interval_arg $ probe_timeout_arg $ retries_arg
       $ migrate_relay_arg $ metrics_listen_arg))
  in
  exit (Cmd.eval (Cmd.v info term))
