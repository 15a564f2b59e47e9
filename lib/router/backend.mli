(** One scheduling backend as seen by the router: an endpoint, a small
    pool of persistent connections, and a liveness/readiness belief.

    A backend starts out {e unknown}: presumed live, but not ready,
    because it has never answered.  A daemon started next to the router
    may not listen yet, so a failed probe leaves an unknown backend
    unknown; the router re-probes it on a short backoff and dials it
    when no ready backend is left.  The first answer — to a probe or a
    forward — makes it live.  Transport failures of a forward — refused
    dials, hangups mid-roundtrip — and failed probes of a backend that
    has answered before mark it dead and close its pooled connections;
    the router's health prober revives it once it answers probes again.
    [draining] is tracked separately from liveness: a draining backend
    still answers admitted work but must not be handed new schedules.

    Thread-safe: forwards run concurrently from client reader threads
    while the prober pokes the same handle. *)

type t

val create : Emts_serve.Endpoint.t -> t
(** No I/O happens here; the first roundtrip dials. *)

val endpoint : t -> Emts_serve.Endpoint.t

val name : t -> string
(** Canonical label ({!Emts_serve.Endpoint.to_string}) — the
    rendezvous-hash identity and the metrics/report key. *)

val is_live : t -> bool
(** Not dead: live, or unknown and so presumed live. *)

val is_unknown : t -> bool
(** Has never answered a probe or a forward. *)

val is_ready : t -> bool
(** Live (has answered) and not draining: eligible for new schedule
    forwards. *)

val mark_dead : t -> unit
(** Close pooled connections and stop routing here until a probe
    succeeds. *)

val roundtrip : t -> max_frame:int -> string -> (string, string) result
(** [roundtrip t ~max_frame payload] sends one request payload as a
    frame over a pooled (or fresh) connection and reads exactly one
    reply frame.  One outstanding request per connection, so replies
    cannot interleave.  A failure on a {e pooled} connection (the
    backend may have restarted since it was pooled) is retried once on
    a fresh dial; failure there marks the backend dead.  [Error] is a
    one-line transport diagnostic. *)

val probe : t -> timeout_s:float -> max_frame:int -> unit
(** Health-check over a dedicated short-timeout connection: a sound
    [health] reply revives the backend and refreshes [draining]; a
    malformed reply marks it dead, and so does a timeout or transport
    error unless the backend is still unknown. *)

val close : t -> unit
(** Close pooled connections (shutdown path). *)
