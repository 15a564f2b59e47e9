(** Plain-HTTP observability sidecar shared by the daemons.

    Serves two paths over HTTP/1.0 with [Connection: close]:
    - [/healthz] — a JSON liveness/readiness document, [503] while
      draining so load balancers stop routing before the drain ends;
    - anything else — the process-wide metrics registry as an
      OpenMetrics text exposition ({!Emts_obs.Metrics.render_openmetrics}).

    One blocking accept loop, intended to run on its own systhread;
    both [emts-serve] and [emts-router] mount it on their
    [--metrics-listen] socket. *)

val loop :
  ?health_extra:(unit -> (string * Emts_resilience.Json.t) list) ->
  finished:(unit -> bool) ->
  draining:(unit -> bool) ->
  Unix.file_descr ->
  unit
(** [loop ~finished ~draining lfd] accepts and answers until
    [finished ()] — which is {e not} the drain flag: [/healthz] must
    keep reporting [draining] while admitted work is still being
    answered, so the caller flips [finished] only after the drain
    completes.  [health_extra ()] appends fields to the [/healthz]
    body (the router adds [backends_live]).  [lfd] is closed on
    return. *)
