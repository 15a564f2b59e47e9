(** Observability substrate: monotonic clock, request-scoped span
    contexts, Chrome trace-event sink, crash flight recorder, and a
    metrics registry (with OpenMetrics exposition) shared by the whole
    EMTS stack.

    The layer is strictly observer-only: none of the facilities below
    touch the PRNG or alter control flow, so enabling them cannot change
    any scheduling result (enforced by the determinism regression tests
    in [test/test_obs.ml] and the telemetry leg of the determinism
    matrix in [test/test_emts.ml]).  With sinks disabled every entry
    point reduces to one atomic-bool load, so instrumented hot paths
    stay essentially free. *)

(** {1 Monotonic clock}

    All timing in the library goes through this module rather than
    [Unix.gettimeofday], which is wall-clock time and jumps when NTP or
    an operator adjusts the system clock mid-run. *)
module Clock : sig
  val now_ns : unit -> int64
  (** Monotonic time in nanoseconds from an arbitrary origin
      ([CLOCK_MONOTONIC]). *)

  val now : unit -> float
  (** Monotonic time in seconds from an arbitrary origin.  Only
      differences are meaningful. *)

  val elapsed : since:float -> float
  (** [elapsed ~since:t0] is [now () -. t0]. *)
end

(** {1 Span contexts}

    A request-scoped identity for trace events.  A context pairs a
    [trace_id] — a short token that crosses the wire, so client and
    server lanes of one request correlate in a merged trace — with the
    id of the innermost enclosing span, giving explicit parent/child
    nesting independent of lane and process.

    The current context is {e ambient per domain}: worker domains carry
    the context of the request they are serving, and {!Trace.span}
    installs the child context around its body so nesting is automatic.
    Threads that share a domain (connection readers, load-generator
    firers) race on the domain-local slot and must pass [?ctx]
    explicitly to the {!Trace} entry points instead. *)
module Span : sig
  type ctx = private { trace_id : string; parent : int }
  (** [parent = 0] means "root of the request". *)

  val make_trace_id : unit -> string
  (** A fresh process-unique trace id.  Never drawn from [Emts_prng] —
      generating one cannot perturb scheduling results. *)

  val max_trace_id_len : int
  (** 64: the wire protocol's cap on client-supplied trace ids. *)

  val valid_trace_id : string -> bool
  (** 1..{!max_trace_id_len} characters from [[A-Za-z0-9._-]].  The
      serve layer rejects anything else with [bad_request]. *)

  val root : trace_id:string -> ctx
  val current : unit -> ctx option
  val current_trace_id : unit -> string option

  val set_current : ctx option -> unit
  (** Install [c] as the calling domain's ambient context.  Prefer
      {!with_ctx}, which restores the previous value. *)

  val with_ctx : ctx option -> (unit -> 'a) -> 'a
  (** Run the thunk with the given ambient context, restoring the
      previous one afterwards (also on exceptions). *)

  val with_trace : trace_id:string -> (unit -> 'a) -> 'a
  (** [with_ctx (Some (root ~trace_id))]. *)
end

(** {1 Flight recorder}

    A fixed-size in-memory ring of the most recent trace events
    (pre-rendered JSONL lines).  When enabled, every event {!Trace}
    emits is also recorded here — whether or not a trace sink is open —
    and {!Flight.dump} writes the ring through
    {!Emts_resilience.write_file} for a durable postmortem.
    {!Flight.install} arranges dumps on SIGQUIT (the daemon keeps
    running — probe a wedged process without killing it) and on an
    uncaught exception crash. *)
module Flight : sig
  val configure : ?capacity:int -> unit -> unit
  (** Enable recording into a fresh ring of [capacity] events
      (default 1024; [Invalid_argument] if [< 1]). *)

  val enabled : unit -> bool
  val disable : unit -> unit

  val record : string -> unit
  (** Append one pre-rendered JSON object line (no newline).  No-op
      when disabled.  {!Trace} calls this internally; exposed for
      out-of-band breadcrumbs. *)

  val dump : path:string -> (unit, string) result
  (** Write the ring to [path] as JSONL, oldest event first: a header
      line ([{"flight":"emts",...}]), the events (Perfetto-compatible
      trace-event objects), and a closing [{"metrics":...}] registry
      snapshot.  Safe to call from signal handlers: if the ring lock is
      contended the snapshot is taken lock-free rather than
      deadlocking. *)

  val install : ?capacity:int -> path:string -> unit -> unit
  (** {!configure} (if not already enabled), then register a SIGQUIT
      handler and an uncaught-exception hook that both dump to [path]
      (the crash hook chains to the previous handler so the exception
      still reports and exits nonzero). *)
end

(** {1 Tracing}

    A global trace sink in Chrome trace-event format, one JSON object
    per line (JSONL).  Load the file in {{:https://ui.perfetto.dev}
    Perfetto} directly, or wrap the lines in [\[...\]] for
    [chrome://tracing].  Events carry the emitting domain's id as their
    [tid], so parallel fitness evaluation shows up as concurrent lanes.

    Timestamps are raw [CLOCK_MONOTONIC] microseconds — shared by every
    process on the machine, so concatenating a daemon trace and a
    loadgen trace yields one file whose lanes line up on a common time
    axis.  When a {!Span} context is in scope, events additionally
    carry [trace_id] / [span_id] / [parent_id] args. *)
module Trace : sig
  type arg = Str of string | Int of int | Float of float

  val start : ?pid:int -> ?process_name:string -> path:string -> unit -> unit
  (** Open [path] and start recording.  Any previously open sink is
      closed first; the sink is closed automatically at exit.  [pid]
      (default 1) labels every event, letting merged multi-process
      traces keep distinct process groups — the loadgen records its
      client lanes under [pid 2] / [process_name "emts-loadgen"]. *)

  val stop : unit -> unit
  (** Flush and close the sink; no-op when inactive. *)

  val flush : unit -> unit
  (** Push buffered events to the OS; no-op when inactive.  Campaign
      drivers call this at cell boundaries, and the serve layer after
      deadline-expired responses and on drain, so the trace on disk
      stays consistent after a crash or an exit. *)

  val active : unit -> bool

  val span : ?tid:int -> ?ctx:Span.ctx -> ?args:(string * arg) list ->
    string -> (unit -> 'a) -> 'a
  (** [span name f] runs [f] and emits a complete ("X") event covering
      its execution, even when [f] raises.  Nested spans stack in the
      viewer.  When both the sink and the flight recorder are off this
      is just [f ()].  [tid] overrides the lane (default: current
      domain id).  With a span context in scope (ambient, or [?ctx] for
      threads sharing a domain) the event carries [trace_id] /
      [span_id] / [parent_id], and — for ambient contexts — the child
      context is installed around [f] so nesting is recorded
      explicitly. *)

  val complete : ?tid:int -> ?ctx:Span.ctx -> ?args:(string * arg) list ->
    start_ns:int64 -> string -> unit
  (** Retroactive span: emit an "X" event covering [start_ns] (from
      {!Clock.now_ns}) to now.  For intervals whose start is only known
      in hindsight, like a job's queue wait measured at dequeue. *)

  val instant : ?tid:int -> ?ctx:Span.ctx -> ?args:(string * arg) list ->
    string -> unit
  (** Zero-duration marker ("i") event. *)

  val counter : string -> (string * float) list -> unit
  (** Counter ("C") event: a named set of series values at the current
      time, rendered as a stacked area chart by trace viewers. *)

  val set_thread_name : ?tid:int -> string -> unit
  (** Label a lane (default: the current domain's). *)
end

(** {1 Metrics}

    A process-global registry of named instruments.  Instruments are
    interned by name: [counter "x"] returns the same counter wherever it
    is called.  Counters and gauges are atomics and may be bumped from
    worker domains; histograms take a per-instrument mutex.  Collection
    is disabled by default; when disabled, updates are dropped. *)
module Metrics : sig
  val set_enabled : bool -> unit
  (** Toggle collection ([false] initially).  Reads are always
      allowed. *)

  val enabled : unit -> bool

  type counter

  val counter : ?help:string -> string -> counter
  (** Find or create the counter [name].  Raises [Invalid_argument] if
      the name is already registered as another instrument kind.
      [help] (first writer wins) becomes the [# HELP] line of the
      OpenMetrics exposition. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val counter_value : counter -> int

  type gauge

  val gauge : ?help:string -> string -> gauge
  val set_gauge : gauge -> float -> unit
  val gauge_value : gauge -> float

  type histogram
  (** Distribution instrument built on {!Emts_stats.Acc}: streaming
      count/mean/variance/min/max of observed values. *)

  val histogram : ?help:string -> string -> histogram
  val observe : histogram -> float -> unit

  type distribution = {
    count : int;
    total : float;
    mean : float;
    stddev : float;
    min : float;
    max : float;
  }

  val histogram_value : histogram -> distribution option
  (** [None] until the first observation. *)

  val quantile : histogram -> float -> float option
  (** [quantile h q] is an approximate [q]-quantile ([0 <= q <= 1],
      else [Invalid_argument]) of the observed values, estimated from
      geometric buckets of ~4% relative width and clamped to the exact
      observed [min, max] — so single-valued distributions answer
      exactly and any estimate is within ~2% of the true value.
      [None] until the first observation.  The serve layer's
      p50/p95/p99 latency figures come from here; {!render} and
      {!to_json} include all three for every histogram. *)

  val find_counter : string -> int option
  (** Current value of the counter registered under [name], if any. *)

  val reset : unit -> unit
  (** Zero every registered instrument (instrument identities are
      preserved — modules hold them in top-level bindings). *)

  val render : unit -> string
  (** Human-readable summary table of all non-empty instruments, sorted
      by name. *)

  val to_json : unit -> string
  (** Machine-readable snapshot:
      [{"counters":{...},"gauges":{...},"histograms":{...}}]. *)

  val render_openmetrics : unit -> string
  (** OpenMetrics text exposition of the whole registry, sorted by
      name and terminated by [# EOF].  Names are prefixed [emts_] with
      dots mapped to underscores; counters expose [<name>_total]
      samples; histograms expose cumulative [_bucket{le="..."}] series
      over the registry's geometric buckets plus [+Inf], [_sum] and
      [_count].  Served by the daemon's [metrics] verb and its
      [--metrics-listen] HTTP endpoint for Prometheus scraping. *)
end

(** {1 GC profiling}

    Per-fitness-evaluation allocation and collection profiling, the
    baseline instrument for the allocation-free hot path work (roadmap
    item 2).  {!Gcprof.measure} wraps one evaluation and records the
    words it allocated (minor words plus words allocated directly in the
    major heap, reported as bytes: words × [Sys.word_size / 8]) and its
    minor/major collection counts into the registry ([gc.eval.*]),
    aggregated overall and per worker lane.
    Kept separate from {!Metrics.enabled} so the extra [Gc.quick_stat]
    calls only happen when profiling is explicitly requested
    ([--gc-profile]); enabling it implies enabling metrics. *)
module Gcprof : sig
  val set_enabled : bool -> unit
  val enabled : unit -> bool

  val measure : lane:int -> (unit -> 'a) -> 'a
  (** [measure ~lane f] runs [f]; when enabled, records the bytes [f]
      allocated, exactly, into [gc.eval.alloc_bytes] (and the per-lane
      [gc.eval.alloc_bytes.w<lane>] counter) and its minor/major
      collection deltas.  When disabled this is one atomic load and
      [f ()].  Must run on the domain evaluating [f]: the GC counters
      are domain-local. *)
end

(** {1 Progress}

    Lightweight progress reporting to stderr, enabled by the [--progress]
    CLI flag.  [report] takes a thunk so that disabled reporting costs
    one atomic load and no formatting. *)
module Progress : sig
  val set_enabled : bool -> unit
  val enabled : unit -> bool

  val report : (unit -> string) -> unit
  (** Print ["[obs] <message>"] to stderr when enabled. *)
end
