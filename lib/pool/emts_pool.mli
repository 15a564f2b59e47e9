(** Persistent worker-domain pool.

    The EA spends essentially all of its runtime in fitness evaluation
    (one list schedule per offspring).  This module is the throughput
    layer underneath {!Emts_ea}: a pool of worker domains created once
    per run instead of once per generation, fed by dynamic chunked work
    distribution (an atomic claim index), with results landing by item
    index so the outcome is bit-identical to sequential evaluation
    regardless of worker count or scheduling.

    The pool may only change how fast a result is obtained, never which
    result.  Observability: it bumps the [pool.jobs] / [pool.chunks] /
    [pool.steals] counters and emits one trace span per worker per job
    on a stable per-worker-slot lane ([tid = slot + 1]). *)

type t
(** A pool handle.  Owned by the domain that created it: only that
    domain may call {!run} or {!shutdown}. *)

val create : domains:int -> t
(** [create ~domains] spawns [domains] worker domains ([domains >= 1];
    with [domains = 1] no domain is spawned and {!run} executes
    inline).  Workers sleep on a condition variable between jobs.
    Raises [Invalid_argument] on [domains < 1]. *)

val domains : t -> int
(** The configured lane count (the [domains] given to {!create}). *)

val run : t -> n:int -> (int -> unit) -> unit
(** [run t ~n f] executes [f 0 .. f (n-1)], splitting the index space
    across the pool's workers in dynamically claimed chunks.  [f] must
    be safe to call from any domain and must not assume any particular
    index order; making [f i] write its result into slot [i] of a
    pre-sized array yields results independent of scheduling.

    If any [f i] raises, the workers stop claiming further chunks, the
    job still quiesces (every worker returns to its waiting state — no
    domain is leaked), and the first recorded exception is re-raised
    with its backtrace.  The pool remains usable afterwards.

    Telemetry rides along transparently: the submitter's ambient
    {!Emts_obs.Span} context is captured at submission and installed in
    each worker domain for the duration of the job, and when
    {!Emts_obs.Gcprof} is enabled every [f i] is measured as one
    fitness evaluation (per-lane allocation and GC-collection deltas).
    Both are observer-only and change no result.

    Raises [Invalid_argument] if [n < 0] or the pool was shut down. *)

val shutdown : t -> unit
(** Wake and join every worker domain.  Idempotent.  All workers are
    joined even if one join raises; the first such exception is
    re-raised afterwards. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises (exception-safe: workers
    are joined before the exception propagates). *)

(** Per-worker-domain storage for evaluation scratch.

    A pool worker is a long-lived domain: scratch state stored here is
    created once per domain and survives across jobs, runs and serving
    requests, so a steady-state fitness evaluation touches only
    preallocated buffers.  Keys wrap [Domain.DLS] and therefore must be
    created at toplevel (a DLS slot is never reclaimed; a key minted per
    run would leak a slot per run).  Values are domain-local and need no
    locking — but they are only safe if at most one evaluation runs per
    domain at a time, which holds for the pool (one job item at a time
    per worker) and for inline execution on the submitting domain. *)
module Local : sig
  type 'a key

  val key : (unit -> 'a) -> 'a key
  (** [key init] mints a new storage slot; [init ()] runs on first
      {!get} from each domain.  Call at toplevel only. *)

  val get : 'a key -> 'a
  (** This domain's value, creating it with [init] if absent. *)
end
