(* xoshiro256** with splitmix64 seeding.  Reference: Blackman & Vigna,
   "Scrambled linear pseudorandom number generators", 2018.

   The 256-bit state is 32 bytes holding the words s0..s3 at offsets 0,
   8, 16 and 24, read and written with the unboxed 64-bit bytes
   primitives.  [next], the one copy of the xoshiro step, is inlined into
   every draw, so the words stay in registers: a draw that returns an
   [int] or a [bool] ([int], [int_in], [bool], [bernoulli]) allocates
   nothing, a float draw only its boxed result (2 words) and [bits64]
   only its boxed [int64] (3 words).  A record of [mutable int64] fields
   boxes on every store instead: 21 words per [bits64]. *)

type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let default_seed = 0x5EED_CA11

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  t

(* splitmix64: used to expand one 64-bit seed into the 256-bit state, and
   to derive split streams.  Guarantees the state is never all-zero. *)
let splitmix64_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed64 =
  let st = ref seed64 in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  of_words s0 s1 s2 s3

let create ?(seed = default_seed) () = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let state t = [| get t 0; get t 8; get t 16; get t 24 |]

let of_state a =
  if Array.length a <> 4 then
    invalid_arg "Emts_prng.of_state: state must have exactly 4 words";
  if Array.for_all (fun w -> Int64.equal w 0L) a then
    invalid_arg "Emts_prng.of_state: all-zero state is invalid for xoshiro256**";
  of_words a.(0) a.(1) a.(2) a.(3)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: advances the state, returns the output. *)
let[@inline] next t =
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let s2 = Int64.logxor s2 s0 and s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 8 (Int64.logxor s1 s2);
  set t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 24 (rotl s3 45);
  Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

let bits64 t = next t

let split t = of_seed64 (next t)

let seed_of_label label =
  (* FNV-1a over the label bytes, folded to a non-negative OCaml int. *)
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  Int64.to_int (Int64.shift_right_logical !h 2)

(* Uniform int in [0, bound) by rejection on the top 62 bits, which fit an
   OCaml int exactly: draws below [limit] are accepted. *)
let rec int_below t bound limit =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  if v >= limit then int_below t bound limit else v mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Emts_prng.int: bound must be positive";
  int_below t bound (max_int - (max_int mod bound))

let int_in t lo hi =
  if lo > hi then invalid_arg "Emts_prng.int_in: lo > hi";
  let span = hi - lo + 1 in
  (* [span] wraps to a non-positive int exactly when hi - lo >= max_int. *)
  if span <= 0 then
    invalid_arg "Emts_prng.int_in: hi - lo must be below max_int";
  lo + int t span

(* 53-bit mantissa uniform in [0,1). *)
let[@inline] unit_float t =
  let bits53 = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int bits53 *. 0x1.0p-53

let float t bound =
  if not (bound > 0.) || bound = infinity then
    invalid_arg "Emts_prng.float: bound must be positive and finite";
  unit_float t *. bound

(* [lo + u·(hi − lo)] can round up to [hi] when [hi − lo] is a few ulps
   of [hi]; that draw becomes the largest float below [hi], so every
   call still takes one draw. *)
let[@inline] float_in t lo hi =
  if not (lo < hi) then invalid_arg "Emts_prng.float_in: requires lo < hi";
  let span = hi -. lo in
  if not (Float.is_finite span) then
    invalid_arg "Emts_prng.float_in: hi - lo must be finite";
  let x = lo +. (unit_float t *. span) in
  if x < hi then x else Float.pred hi

let bool t = Int64.logand (next t) 1L = 1L

(* With u in [0, 1), [u < p] is false for p <= 0 or nan and true for
   p >= 1: the clamp of [p] to [0, 1] needs no code. *)
let bernoulli t ~p = unit_float t < p

(* Marsaglia polar method: u, then v, uniform on [-1, 1) until
   0 < u² + v² < 1.  The spare deviate is discarded to keep the stream
   position independent of call history. *)
let rec polar t mu sigma =
  let u = float_in t (-1.) 1. in
  let v = float_in t (-1.) 1. in
  let s = (u *. u) +. (v *. v) in
  if s >= 1. || s = 0. then polar t mu sigma
  else mu +. (sigma *. (u *. sqrt (-2. *. log s /. s)))

let normal t ~mu ~sigma =
  if sigma < 0. then invalid_arg "Emts_prng.normal: sigma must be >= 0";
  if sigma = 0. then mu else polar t mu sigma

let log_uniform t ~lo ~hi =
  if not (0. < lo && lo < hi) then
    invalid_arg "Emts_prng.log_uniform: requires 0 < lo < hi";
  exp (float_in t (log lo) (log hi))

let exponential t ~lambda =
  if not (lambda > 0.) then
    invalid_arg "Emts_prng.exponential: lambda must be > 0";
  -.log1p (-.unit_float t) /. lambda

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~k ~n =
  if k < 0 || k > n then
    invalid_arg "Emts_prng.sample_without_replacement: requires 0 <= k <= n";
  (* Partial Fisher–Yates over [0..n-1]: O(n) space, O(n + k) time, exact. *)
  let a = Array.make n 0 in
  for i = 1 to n - 1 do
    a.(i) <- i
  done;
  for i = 0 to k - 1 do
    let j = int_in t i (n - 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.sub a 0 k

let choose t a =
  if Array.length a = 0 then invalid_arg "Emts_prng.choose: empty array";
  a.(int t (Array.length a))
