(* In-memory spans recorded by the benchmark around its calls into each
   layer's public functions.  Nothing is written while a run measures:
   spans go to preallocated growable arrays and are flushed once, as
   Chrome trace events (one JSON object per line, the format of the
   daemon's --trace output), when the run ends.

   A span has a name, a start, an end, a parent span and the id of the
   solve or request it belongs to.  A span's self time is its duration
   minus the time its children cover; children never overlap because
   each parent's children are recorded by one thread, one after the
   other. *)

type t = {
  lock : Mutex.t;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable ops : int array;
  mutable tids : int array;
  mutable len : int;
}

let none = -1

let create () =
  let cap = 4096 in
  {
    lock = Mutex.create ();
    names = Array.make cap "";
    starts = Array.make cap 0.;
    stops = Array.make cap 0.;
    parents = Array.make cap none;
    ops = Array.make cap 0;
    tids = Array.make cap 0;
    len = 0;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.;
  t.parents <- extend t.parents none;
  t.ops <- extend t.ops 0;
  t.tids <- extend t.tids 0

let now = Emts_obs.Clock.now

(* Record a finished span; returns its index, usable as a parent. *)
let add t ~name ~parent ~op ~start ~stop =
  Mutex.lock t.lock;
  if t.len = Array.length t.names then grow t;
  let i = t.len in
  t.names.(i) <- name;
  t.starts.(i) <- start;
  t.stops.(i) <- stop;
  t.parents.(i) <- parent;
  t.ops.(i) <- op;
  t.tids.(i) <- Thread.id (Thread.self ());
  t.len <- i + 1;
  Mutex.unlock t.lock;
  i

(* Open a span whose end is not known yet; close it with [finish]. *)
let open_ t ~name ~parent ~op = add t ~name ~parent ~op ~start:(now ()) ~stop:0.

let finish t i =
  let stop = now () in
  Mutex.lock t.lock;
  t.stops.(i) <- stop;
  Mutex.unlock t.lock

let within t ~name ~parent ~op f =
  let i = open_ t ~name ~parent ~op in
  Fun.protect ~finally:(fun () -> finish t i) (fun () -> f i)

let count t = t.len
let duration t i = t.stops.(i) -. t.starts.(i)

(* Per-name totals: (calls, total duration, total self time). *)
let totals t =
  let child = Array.make t.len 0. in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p <> none then child.(p) <- child.(p) +. duration t i
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    let n, d, s =
      Option.value (Hashtbl.find_opt tbl t.names.(i)) ~default:(0, 0., 0.)
    in
    let dur = duration t i in
    Hashtbl.replace tbl t.names.(i) (n + 1, d +. dur, s +. (dur -. child.(i)))
  done;
  tbl

let calls tbl name =
  match Hashtbl.find_opt tbl name with Some (n, _, _) -> n | None -> 0

let total tbl name =
  match Hashtbl.find_opt tbl name with Some (_, d, _) -> d | None -> 0.

let self tbl name =
  match Hashtbl.find_opt tbl name with Some (_, _, s) -> s | None -> 0.

let write t ~path =
  let origin = if t.len = 0 then 0. else t.starts.(0) in
  let us x = (x -. origin) *. 1e6 in
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"ph\":\"X\",\"pid\":2,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"name\":%S,\"args\":{\"span\":%d,\"parent\":%d,\"op\":%d}}\n"
          t.tids.(i) (us t.starts.(i))
          (us t.stops.(i) -. us t.starts.(i))
          t.names.(i) i t.parents.(i) t.ops.(i)
      done)
