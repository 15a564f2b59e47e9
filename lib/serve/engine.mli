(** Request execution engine: the state a server worker keeps {e warm}
    across requests, and the pure request → outcome computation.

    One engine belongs to one worker domain (it owns an {!Emts_pool}
    whose owner is the creating domain); all engines of a server share
    one {!caches} — a pool of fitness-memoization caches keyed by
    scheduling instance, so repeated requests for the same (PTG,
    platform, model) triple reuse each other's evaluations.  Both are
    outcome-preserving: a response is a function of the request alone
    (property-tested by the serve determinism matrix). *)

(** {1 Shared cross-request cache pool} *)

type caches

val caches : capacity:int -> max_instances:int -> caches
(** [caches ~capacity ~max_instances] provides one
    {!Emts_pool.Cache} of [capacity] entries per distinct scheduling
    instance, holding at most [max_instances] instances (inserting
    beyond the bound flushes the pool, mirroring the cache's own
    flush-on-full policy).  [capacity = 0] disables caching entirely.
    Domain-safe.  Raises [Invalid_argument] on negative values or
    [max_instances = 0] with a positive capacity. *)

val cache_instances : caches -> int
(** Number of instance caches currently held. *)

(** {1 Migrant buffers (fleet gossip)}

    Allocation vectors offered by fleet peers through the [migrate]
    verb are buffered per scheduling instance and drained — as extra
    seeds ranked alongside the heuristic ones — by the next solve of
    that instance.  Bounded: at most 64 vectors per instance (newest
    kept) and 64 buffered instances (flush-on-full).  Vectors that do
    not fit the instance are dropped at solve time
    ({!Emts.Algorithm.run_ctx}), so garbage from a confused peer is a
    no-op.  Domain-safe (same lock as the cache pool). *)

val offer_migrants :
  caches ->
  ptg:string -> platform:string -> model:string ->
  int array list -> int
(** [offer_migrants c ~ptg ~platform ~model vectors] buffers migrants
    for the instance keyed by the verbatim request fields, returning
    how many were kept after the per-instance bound was applied. *)

val take_migrants : caches -> Protocol.Request.schedule -> int array list
(** Drain (return and clear) the migrants buffered for [req]'s
    instance. *)

(** {1 Request-field resolvers}

    Shared by the offline [schedule] path and the online [submit]
    path, so both verbs accept the same platform/model spellings. *)

val resolve_platform : string -> (Emts_platform.t, string) result
(** A preset name ([chti], [grelon]) or, when the spec contains a
    newline, an inline platform file. *)

val resolve_model : string -> (Emts_model.t, string) result
(** A preset name ([amdahl], ...) or an inline empirical table. *)

(** {1 Engine} *)

type t

val create :
  ?pool_domains:int -> ?delta_fitness:bool -> caches:caches -> unit -> t
(** [create ~caches ()] builds an engine with a persistent worker pool
    of [pool_domains] lanes (default 1 — no domains spawned).  Must be
    called from the domain that will call {!handle}.

    [delta_fitness] (default [true]) routes EMTS fitness through the
    per-worker-domain {!Emts_sched.Evaluator}; the scratch
    buffers live in domain-local storage, so they are reused across
    requests handled by the same worker — bit-identical responses
    either way (covered by the serve determinism tests). *)

val shutdown : t -> unit
(** Join the engine's pool.  Idempotent. *)

type outcome = {
  algorithm : string;  (** canonical label, e.g. ["EMTS5"] or ["MCPA"] *)
  makespan : float;
  alloc : int array;
  tasks : int;
  procs : int;
  utilization : float;  (** percent *)
  platform : string;
  deadline_hit : bool;
  generations_done : int;
  evaluations : int;
}

val handle :
  t ->
  Protocol.Request.schedule ->
  deadline:float option ->
  (outcome, string) result
(** [handle t req ~deadline] parses the inline instance, resolves
    platform / model / algorithm, and schedules.  [deadline] is an
    absolute instant on {!Emts_obs.Clock.now}; when it passes, an EMTS
    run stops at the next generation boundary and the outcome carries
    the best-so-far allocation with [deadline_hit = true].  [Error] is
    a one-line client-fault diagnostic ([bad_request] material);
    genuine server faults escape as exceptions.

    EMTS algorithms ([emts1], [emts5], [emts10]) honour the request's
    island fields ([islands] / [migration_interval] /
    [migration_count], the count clamped to the strategy's μ) and
    drain any buffered migrants for the instance into the seed pool —
    so a response is a function of (request, migrants previously
    offered for its instance); with no [migrate] traffic it remains a
    function of the request alone. *)
