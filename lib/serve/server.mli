(** The scheduling daemon: listeners, admission queue, worker domains.

    Anatomy of a request.  Connection reader threads (one per accepted
    client) decode frames and admit [schedule] jobs into one bounded
    FIFO queue; a fixed set of worker domains drains it oldest first,
    each holding a persistent {!Engine} (worker pool + shared migrant
    buffer) across requests, so a backlog is answered in arrival order
    (DESIGN.md §11).  [ping] and [stats] are answered directly by the
    reader thread, so health checks and metrics bypass the queue and
    stay responsive under load.

    Robustness contract:
    - a full queue answers [overloaded] immediately (backpressure is
      explicit, never silent latency);
    - frames larger than [max_frame] are refused before the payload is
      read;
    - a malformed frame poisons only its own connection: the client
      gets a [malformed_frame] / [too_large] error and the connection
      closes, while every other connection and all queued work proceed;
    - a client that disconnects mid-request costs the server one wasted
      computation and one failed write, nothing more;
    - when [stop] becomes true (default: {!Emts_resilience.Shutdown}),
      the server stops accepting, rejects new work with [draining],
      finishes everything admitted, answers it, joins its workers,
      flushes any open trace sink (so the last request's spans are on
      disk, not in a stdio buffer) and returns — a clean SIGTERM drain
      exits 0.

    Telemetry: each admitted request gets a span context — the client's
    [trace_id] when supplied (echoed in the response), else one minted
    by the server while tracing or flight recording is on — which rides
    from the reader thread through the queue into the worker domain,
    the engine, the EA and the pool workers, so one request is one
    correlated span tree.  The [serve.queue_wait_s] / [serve.solve_s] /
    [serve.encode_s] histograms break the request latency into phases;
    the [metrics] verb and the optional [metrics_tcp] HTTP endpoint
    expose the registry in OpenMetrics text form. *)

type config = {
  socket : string option;  (** Unix-domain socket path *)
  tcp : (string * int) option;  (** TCP listen address (host, port) *)
  metrics_tcp : (string * int) option;
      (** optional plain-HTTP listen address serving the OpenMetrics
          exposition on every path, for Prometheus scraping *)
  workers : int;  (** worker domains draining the queue, [>= 1] *)
  pool_domains : int;
      (** fitness-evaluation lanes per worker's persistent pool *)
  queue_capacity : int;  (** admission queue bound, [>= 1] *)
  max_frame : int;  (** request frame payload cap in bytes *)
  watchdog_grace : float;
      (** seconds past a request's deadline before the watchdog
          answers it [deadline_exceeded] (the EA normally returns
          best-so-far at a generation boundary well before that; the
          watchdog covers solves stuck {e inside} an evaluation and
          jobs stranded in the queue); [>= 0] *)
  shed_budget : float option;
      (** adaptive load shedding: when the p95 of recent queue waits
          exceeds this many seconds and the queue is non-empty, new
          schedule requests are refused with [overloaded] and a
          [retry_after_ms] hint instead of queueing into certain
          death; [None] disables shedding *)
}

val default : config
(** No listeners (callers must set at least one), 2 workers, 1 pool
    domain, queue of 64, {!Protocol.default_max_frame}, 0.5 s watchdog
    grace, no shedding. *)

val server_id : string
(** ["emts-serve <version>"], echoed in [ping] responses. *)

val run : ?stop:(unit -> bool) -> config -> (unit, string) result
(** Run the daemon until [stop] returns true (polled a few times per
    second; default {!Emts_resilience.Shutdown.requested}), then drain
    and return.  Enables metrics collection, binds the configured
    listeners (an existing Unix socket path is replaced) and, once every
    bind has succeeded, prints one [listening on ...] line per listener
    to stderr so wrappers can wait for readiness.  The socket file is
    removed when the listeners close at the start of the drain, and
    after a failed bind.  [Error] on configuration or bind problems
    only; per-connection failures never surface here. *)
