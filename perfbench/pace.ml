(* Machine pace.

   On a shared VM the speed of the same code drifts by 20% or more
   within a minute, because neighbours compete for the host.  Run-to-run
   spread from that drift would swamp the change a later commit makes, so
   the benchmark measures the drift and divides it out: a fixed probe,
   owned by the benchmark and never changed with the program, runs
   interleaved with the measured work, and the timing metrics are
   reported at the pace of a machine on which the probe takes [nominal]
   seconds.  The raw figures are printed alongside.

   The probe is a list-scheduling loop of the same shape as the
   program's hot paths — a fixed 600-task graph placed on 64 processors
   by earliest-available selection — written allocation-free, so the
   program's heap cannot change its speed. *)

let tasks = 600
let procs = 64
let preds = Array.init tasks (fun v -> if v < 20 then [||] else [| v - 20; v * 7 mod (v - 19) |])
let duration = Array.init tasks (fun v -> 1. +. float_of_int (v * 7919 mod 97))
let width = Array.init tasks (fun v -> 1 + (v * 31 mod 16))
let finish = Array.make tasks 0.
let free = Array.make procs 0.
let order = Array.make procs 0

(* Float scratch in a flat array: a float ref could box on update. *)
let cell = [| 0. |]

let place v =
  let ps = preds.(v) in
  cell.(0) <- 0.;
  for k = 0 to Array.length ps - 1 do
    cell.(0) <- Float.max cell.(0) finish.(ps.(k))
  done;
  for i = 0 to procs - 1 do
    order.(i) <- i
  done;
  let q = width.(v) in
  for i = 0 to q - 1 do
    let best = ref i in
    for j = i + 1 to procs - 1 do
      if free.(order.(j)) < free.(order.(!best)) then best := j
    done;
    let t = order.(i) in
    order.(i) <- order.(!best);
    order.(!best) <- t;
    cell.(0) <- Float.max cell.(0) free.(order.(i))
  done;
  let f = cell.(0) +. (duration.(v) /. float_of_int q) in
  for i = 0 to q - 1 do
    free.(order.(i)) <- f
  done;
  finish.(v) <- f

(* Seconds one probe takes now: short, so it can run often. *)
let probe () =
  let t = Span.now () in
  for _ = 1 to 2 do
    Array.fill free 0 procs 0.;
    for v = 0 to tasks - 1 do
      place v
    done
  done;
  ignore (Sys.opaque_identity finish.(tasks - 1));
  Span.now () -. t

(* The probe's time on the machine the figures are scaled to (a 2-vCPU
   2.1 GHz VM at a quiet moment); it only sets the scale. *)
let nominal = 0.002

(* Seconds of measured work between two probes when they interleave
   with it: about 5% of the run goes to probing.  Speed swings last
   from a fraction of a second to tens of seconds, so dense short
   probes track them better than sparse long ones.  Probes only run
   while the program is idle, so its own load never slows them. *)
let every = 0.05

type t = { mutable samples : float list }

let create () = { samples = [] }
let sample t = t.samples <- probe () :: t.samples

let sample_n t n =
  for _ = 1 to n do
    sample t
  done

(* How much slower than nominal the machine ran: the median probe
   time over [nominal].  Divide a time by it, multiply a rate by it. *)
let slowdown t = Stat.median t.samples /. nominal
let count t = List.length t.samples
