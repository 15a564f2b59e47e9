(** Wire protocol of the EMTS scheduling service.

    A connection carries a sequence of {e frames} in each direction.
    Every frame is a fixed 8-byte header — the ASCII magic ["EMTS"]
    followed by the payload length as a big-endian unsigned 32-bit
    integer — and then exactly [length] bytes of payload.  The payload
    is one JSON value in the {!Emts_resilience.Json} dialect: a
    {!Request} client-to-server, a {!Response} server-to-client.

    The framing is designed for untrusted input: a wrong magic or an
    oversized length is detected before any payload is read, so the
    server can answer with a structured error and drop the connection
    without ever allocating attacker-controlled amounts of memory.
    Because stream positioning is lost after a framing error, both
    sides close the connection after one; a malformed {e payload}
    inside a well-formed frame, by contrast, is answered with a
    [bad_request] error and the connection stays usable. *)

module J = Emts_resilience.Json

val magic : string
(** ["EMTS"], the 4-byte frame preamble. *)

val default_max_frame : int
(** Default cap on a frame's payload size: 4 MiB.  A daggen PTG of
    thousands of tasks is well under 1 MiB of [.ptg] text. *)

val header_size : int
(** 8: magic plus 32-bit length. *)

val openmetrics_content_type : string
(** The content type of {!Response.Metrics} bodies (also sent by the
    daemon's plain-HTTP scrape endpoint):
    ["application/openmetrics-text; version=1.0.0; charset=utf-8"]. *)

(** {1 Framing} *)

type frame_error =
  | Closed  (** clean EOF before the first header byte *)
  | Truncated  (** EOF inside a header or payload *)
  | Bad_magic  (** the first 4 bytes were not {!magic} *)
  | Too_large of int  (** declared payload length exceeds the cap *)

val frame_error_to_string : frame_error -> string

val encode_frame : string -> string
(** [encode_frame payload] is the wire form of a frame: header plus
    payload.  Raises [Invalid_argument] if the payload exceeds what a
    32-bit length can describe. *)

val read_frame :
  Unix.file_descr -> max_size:int -> (string, frame_error) result
(** Blocking read of one complete frame payload.  Retries on [EINTR];
    any other [Unix_error] propagates. *)

val write_frame : Unix.file_descr -> string -> unit
(** Blocking write of [encode_frame payload], handling short writes.
    [Unix_error] (e.g. [EPIPE] on a disconnected peer) propagates —
    callers decide whether a lost client is an error. *)

(** {1 Requests} *)

module Request : sig
  (** A [schedule] request: one scheduling instance, inline. *)
  type schedule = {
    ptg : string;  (** the task graph, in [.ptg] text form *)
    platform : string;
        (** a preset name ([chti], [grelon]) or, when it contains a
            newline, an inline platform file *)
    model : string;
        (** a preset name ([amdahl], [synthetic], ...) or an inline
            empirical timing table ("procs seconds" lines) *)
    algorithm : string;  (** [seq], [cpa], ..., [emts5], [emts10] *)
    seed : int;  (** EMTS PRNG seed; responses are a function of it *)
    deadline_s : float option;
        (** latency budget in seconds, measured from the server's
            admission of the request (queue wait counts); the EA
            returns its best-so-far allocation when it expires *)
    budget_s : float option;
        (** EA time budget in seconds, measured from solve start
            (maps to {!Emts_ea.config.time_budget}) *)
    trace_id : string option;
        (** client-chosen span-trace correlation token, validated by
            {!Emts_obs.Span.valid_trace_id} (else [bad_request]); the
            server tags its server-side spans with it and echoes it in
            the response, so a client trace and a daemon trace
            concatenate into one coherent Perfetto file *)
    islands : int;
        (** island-model sub-populations for EMTS algorithms, in
            [1, 64]; default 1 (plain EA, and the field is then omitted
            from the wire form so old and new clients emit identical
            frames).  See {!Emts_ea.config}. *)
    migration_interval : int;
        (** generations between island ring exchanges, [>= 1];
            default 5 *)
    migration_count : int;
        (** emigrants per exchange, [>= 0] (clamped to μ server-side);
            default 1 *)
  }

  val schedule :
    ?platform:string -> ?model:string -> ?algorithm:string -> ?seed:int ->
    ?deadline_s:float -> ?budget_s:float -> ?trace_id:string ->
    ?islands:int -> ?migration_interval:int -> ?migration_count:int ->
    ptg:string -> unit -> schedule

  type t =
    | Schedule of { id : J.t; req : schedule }
    | Stats of { id : J.t }  (** metrics snapshot, JSON form *)
    | Metrics of { id : J.t }  (** metrics snapshot, OpenMetrics text *)
    | Ping of { id : J.t }  (** liveness probe *)
    | Health of { id : J.t }
        (** readiness probe: answered by the reader thread (never
            queued) with live/ready/draining, so orchestrators can
            route around a draining node before its drain finishes *)
    | Migrate of {
        id : J.t;
        ptg : string;
        platform : string;
        model : string;
        migrants : int array list;
      }
        (** fleet gossip: allocation vectors another node evolved for
            the {e same} scheduling instance — keyed by
            (ptg, platform, model) — offered as extra seeds for future
            solves of that instance here.  Answered immediately by the
            reader thread with {!Response.Migrate_ack} (never queued);
            vectors that do not fit the instance are dropped at solve
            time, so a confused peer degrades to a no-op. *)
    | Submit of {
        id : J.t;
        session : string;  (** online session name, 1..128 chars *)
        ptg : string;  (** the arriving task graph, [.ptg] text *)
        at : float;  (** virtual arrival time, [>= 0], monotone within
            a session; the cluster is advanced to [at] first *)
        platform : string;
        model : string;
        algorithm : string;
            (** re-planner: ["baseline"] (fastest allotment) or
                ["emts1"]/["emts5"]/["emts10"]; with platform, model and
                seed, fixed by the {e first} submit of a session and
                ignored afterwards *)
        seed : int;
        islands : int;
        migration_interval : int;
        migration_count : int;
      }
        (** online mode: admit a DAG into a named session's live
            cluster state and re-plan the unstarted workload.  Answered
            by the reader thread; rejected with [draining] once the
            server drains ({!Advance} is still allowed, so admitted
            work can finish). *)
    | Advance of { id : J.t; session : string; to_ : float option }
        (** advance a session's virtual clock to [to_] (absent: run the
            admitted workload to completion), committing tasks and
            re-planning on drift *)

  val verbs : string list
  (** Every verb {!of_json} accepts.  Tests and harnesses must
      enumerate this list (not a hard-coded copy) so a new verb cannot
      silently skip coverage. *)

  val id : t -> J.t
  (** The client-chosen correlation id (any JSON value; defaults to
      [Null]), echoed verbatim in the response. *)

  val to_json : t -> J.t
  val of_json : J.t -> (t, string) result
  val to_string : t -> string
  val of_string : string -> (t, string) result
end

(** {1 Responses} *)

(** Machine-readable error codes:
    - [bad_request] — unparseable or invalid request payload;
    - [overloaded] — admission queue full, retry later;
    - [too_large] — frame exceeded the size cap;
    - [malformed_frame] — framing lost, connection closed;
    - [draining] — server is shutting down;
    - [internal] — unexpected server-side failure (worker exception);
      the worker lane is respawned, the daemon keeps serving;
    - [deadline_exceeded] — the request's deadline (plus the server's
      watchdog grace) passed without a reply; the watchdog answered so
      the client is not left hanging on a stuck solve;
    - [unavailable] — a fleet router found no live backend to serve
      the request (every backend dead or draining); retry later or
      against a backend directly.

    [overloaded] responses may carry a [retry_after_ms] hint when the
    server is shedding load adaptively (observed queue-wait p95 over
    budget): honor it before retrying. *)
module Error_code : sig
  val bad_request : string
  val overloaded : string
  val too_large : string
  val malformed_frame : string
  val draining : string
  val internal : string
  val deadline_exceeded : string
  val unavailable : string
end

module Response : sig
  type schedule_result = {
    id : J.t;
    algorithm : string;  (** canonical label, e.g. ["EMTS5"] *)
    makespan : float;
    alloc : int array;  (** processors per task, task-id order *)
    tasks : int;
    procs : int;
    utilization : float;  (** percent *)
    platform : string;
    queue_s : float;  (** admission -> taken by a worker *)
    solve_s : float;  (** parse + allocate + schedule *)
    total_s : float;  (** admission -> response written *)
    deadline_hit : bool;
        (** the EA stopped early on the request deadline; [makespan] /
            [alloc] are the best found so far *)
    generations_done : int;  (** EA generations completed (0 for
            heuristic algorithms) *)
    evaluations : int;  (** fitness evaluations spent *)
    trace_id : string option;
        (** the request's trace id (client-supplied, or minted by the
            server when it is tracing), echoed for correlation *)
  }

  type t =
    | Schedule_result of schedule_result
    | Stats of { id : J.t; stats : J.t }
    | Metrics of { id : J.t; body : string }
        (** [body] is the OpenMetrics text exposition
            ({!Emts_obs.Metrics.render_openmetrics}) *)
    | Pong of { id : J.t; server : string }
    | Health of {
        id : J.t;
        live : bool;
        ready : bool;
        draining : bool;
        backends_live : int option;
      }
        (** [ready] is false exactly when [draining] is true: the
            process still answers admitted work but admits nothing
            new.  [backends_live] is set by the fleet router (count of
            live backends, [ready] iff at least one); single daemons
            omit it *)
    | Migrate_ack of { id : J.t; accepted : int }
        (** [accepted] migrants were buffered for their instance *)
    | Submit_result of {
        id : J.t;
        session : string;
        dag : int;  (** index of the admitted DAG within the session *)
        tasks : int;  (** session-total admitted tasks *)
        now : float;  (** session virtual clock after admission *)
        replans : int;  (** session-lifetime re-plan count *)
      }
    | Advance_result of {
        id : J.t;
        session : string;
        now : float;
        committed : int;  (** commitments made by this call *)
        drifts : int;  (** drifting commitments (each re-planned) *)
        replans : int;
        complete : bool;
        makespan : float option;  (** realised makespan once complete *)
        bound : float;
            (** clairvoyant lower bound on the offline optimum of the
                merged workload ({!Emts_serve.Online.clairvoyant_bound});
                clients report [makespan /. bound] as the online /
                clairvoyant ratio *)
      }
    | Error of {
        id : J.t;
        code : string;
        message : string;
        retry_after_ms : int option;
            (** backoff hint on shed ([overloaded]) responses *)
      }

  val to_json : t -> J.t
  val of_json : J.t -> (t, string) result
  val to_string : t -> string
  val of_string : string -> (t, string) result
end
