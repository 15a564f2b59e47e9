(** The EMTS fleet router: a front-end daemon that speaks the
    {!Emts_serve.Protocol} frame protocol on both sides, spreading
    schedule work over a static set of [emts-serve] backends.
    DESIGN.md §16 specifies the routing, failover and aggregation
    semantics.

    {b Sharding.}  [schedule] and [migrate] requests are routed by
    {e rendezvous (highest-random-weight) hashing} of the scheduling
    instance key — the verbatim (ptg, platform, model) triple — over
    the currently-ready backends: each instance has a stable home
    backend, so migrants offered for an instance wait on the backend
    that solves it next, and removing one backend reassigns only that
    backend's instances.

    {b Failover.}  A transport failure marks the backend dead and the
    request is retried on the next backend in the instance's
    preference order (capped by [retries]); a [draining] reply routes
    on the same way without killing the backend.  When no backend is
    left the client gets a typed [unavailable] error.  A background
    prober health-checks every backend each [probe_interval] seconds,
    reviving recovered ones; the [router.backends_live] gauge tracks
    the result.

    {b Aggregation.}  [stats] fans out to all live backends and merges
    the registries (counters and gauges summed, histograms merged with
    quantiles as max-over-backends upper bounds) together with the
    router's own metrics; per-backend snapshots ride along under
    ["backends"].  [ping], [health] and [metrics] are answered by the
    router itself — [health] carries [backends_live], and the metrics
    exposition is the router's registry ([emts_router_*] series).

    {b Relay.}  With [migrate_relay] on, every island-mode
    ([islands > 1]) schedule result is forwarded — best-effort — as a
    [migrate] frame to the next ready backend on the ring, seeding its
    future solves of the same instance with this one's winner. *)

type config = {
  socket : string option;  (** client-facing Unix socket path *)
  tcp : (string * int) option;  (** client-facing TCP listener *)
  metrics_tcp : (string * int) option;
      (** plain-HTTP OpenMetrics + /healthz sidecar *)
  backends : Emts_serve.Endpoint.t list;  (** static fleet, non-empty *)
  max_frame : int;  (** payload cap, both directions *)
  probe_interval : float;  (** seconds between health sweeps *)
  probe_timeout : float;  (** per-probe socket timeout, seconds *)
  retries : int;
      (** additional backends tried after the first choice fails *)
  migrate_relay : bool;  (** gossip island winners around the ring *)
}

val default : config
(** No listeners, no backends (both must be set), 4 MiB frames, 1 s
    probes with 2 s timeout, 2 retries, relay off. *)

val server_id : string
(** The [ping] identity, ["emts-router 1.0.0"]. *)

(** Pure routing/aggregation internals, exposed for the test-suite.
    Not part of the stable API. *)
module Private : sig
  val instance_key : ptg:string -> platform:string -> model:string -> string
  (** The rendezvous-hash key: the verbatim (ptg, platform, model)
      triple. *)

  val rank_backends : Backend.t list -> string -> Backend.t list
  (** Failover order for a key: descending rendezvous score, backend
      name as the tiebreak.  Deterministic across routers and
      restarts. *)

  val aggregate_stats :
    own:Emts_resilience.Json.t ->
    (string * Emts_resilience.Json.t) list ->
    Emts_resilience.Json.t
  (** Merge per-backend stats documents with the router's own:
      counters/gauges summed, histograms merged (count/total summed,
      mean recomputed, min/max exact, quantiles and stddev as
      max-over-backends upper bounds), raw snapshots under
      ["backends"]. *)
end

val run : ?stop:(unit -> bool) -> config -> (unit, string) result
(** Serve until [stop ()] (default
    {!Emts_resilience.Shutdown.requested}, so SIGTERM/SIGINT drain).
    The drain closes the listeners, lets in-flight forwards finish
    answering, then returns [Ok ()].  [Error] is a startup diagnostic
    (bad config, bind failure; a failed bind leaves no socket file) —
    backend unavailability is {e not} a startup error; the fleet may
    come up in any order.  The [routing on ...] lines go to stderr once
    every bind has succeeded. *)
