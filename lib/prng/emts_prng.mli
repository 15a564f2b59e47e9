(** Deterministic pseudo-random number generation for EMTS experiments.

    Every source of randomness in the library (DAG generation, task-cost
    assignment, evolutionary mutation) flows through this module so that a
    whole experiment campaign is reproducible from a single integer seed —
    the paper relies on this property ("the random generator uses the same
    (random) seed for all experiments", Section V-B).

    The generator is xoshiro256** (Blackman & Vigna), seeded through
    splitmix64.  It is small, fast, and passes BigCrush; we implement it
    here rather than relying on [Stdlib.Random] so that results do not
    depend on the OCaml compiler version.

    {b Allocation.}  The state is 32 unboxed bytes.  A draw that returns
    an [int] or a [bool] ({!int}, {!int_in}, {!bool}, {!bernoulli})
    allocates nothing; a float draw ({!float}, {!float_in}, {!normal},
    {!log_uniform}, {!exponential}) allocates only its boxed result (2
    words); {!bits64} only its boxed [int64] (3 words).  Float arguments
    passed in from another module are boxed by the caller. *)

type t
(** A mutable generator state: four 64-bit words, stored unboxed. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a fresh generator.  The default seed is the
    campaign-wide default [0x5EED_CA11]; two generators created with the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state:
    it will produce the same future stream as [t] without affecting it. *)

val state : t -> int64 array
(** [state t] is the generator's full 256-bit state as 4 words, for
    checkpointing: [of_state (state t)] produces a generator whose
    future stream is identical to [t]'s.  The array is a snapshot;
    mutating it does not affect [t]. *)

val of_state : int64 array -> t
(** Rebuild a generator from {!state}.  Raises [Invalid_argument]
    unless given exactly 4 words that are not all zero (the all-zero
    state is a fixed point of the generator). *)

val split : t -> t
(** [split t] derives a statistically independent generator from [t],
    advancing [t].  Use one split stream per experimental unit (one per
    PTG instance, one per EMTS run) so that adding experiments does not
    perturb the randomness of existing ones. *)

val seed_of_label : string -> int
(** [seed_of_label s] hashes an arbitrary label (e.g. ["fig4/fft/chti/17"])
    into a seed, for content-addressed experiment streams. *)

(** {1 Raw draws} *)

val bits64 : t -> int64
(** Next raw 64-bit output of xoshiro256**. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound-1].  [bound] must be
    positive.  Uses rejection sampling, so the result is exactly uniform. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws uniformly from the inclusive range [lo, hi].
    Requires [lo <= hi] and [hi - lo < max_int]: the range holds at most
    [max_int] values, so [int_in t 0 max_int] raises [Invalid_argument]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound) with 53-bit
    resolution.  [bound] must be positive and finite. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] draws uniformly from [lo, hi), never [hi]: a draw
    that rounds up to [hi] (possible when [hi - lo] is a few ulps of
    [hi]) returns the largest float below [hi].  Requires [lo < hi] and
    a finite [hi -. lo], so [float_in t (-.max_float) max_float] raises
    [Invalid_argument]. *)

val bool : t -> bool
(** Fair coin flip. *)

(** {1 Distributions} *)

val bernoulli : t -> p:float -> bool
(** [bernoulli t ~p] is [true] with probability [p] (clamped to [0,1];
    [nan] counts as 0).  Every call takes one draw, whatever [p]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian draw via the Marsaglia polar method: [u] then [v] uniform
    on [-1, 1) until [0 < u² + v² < 1]; the spare deviate is discarded.
    [sigma >= 0]; [sigma = 0] returns [mu] without drawing. *)

val log_uniform : t -> lo:float -> hi:float -> float
(** Draw whose logarithm is uniform on [log lo, log hi]; used for the
    task iteration factor [a] in [2^6, 2^9].  Requires [0 < lo < hi]. *)

val exponential : t -> lambda:float -> float
(** Exponential draw with rate [lambda > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_without_replacement : t -> k:int -> n:int -> int array
(** [sample_without_replacement t ~k ~n] draws [k] distinct indices from
    [0, n-1], in random order.  Requires [0 <= k <= n]. *)

val choose : t -> 'a array -> 'a
(** Uniform draw from a non-empty array. *)
