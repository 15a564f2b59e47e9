type entry = { task : int; start : float; finish : float; procs : int array }
type t = { entries : entry array; platform_procs : int }

let eps = 1e-9

let make ~platform_procs entries =
  if platform_procs < 1 then
    invalid_arg "Schedule.make: platform_procs must be >= 1";
  Array.iteri
    (fun v e ->
      if e.task <> v then
        invalid_arg
          (Printf.sprintf "Schedule.make: entry %d carries task id %d" v e.task);
      if Float.is_nan e.start || Float.is_nan e.finish then
        invalid_arg "Schedule.make: NaN time";
      if e.finish < e.start -. eps then
        invalid_arg
          (Printf.sprintf "Schedule.make: task %d finishes before it starts" v);
      if Array.length e.procs = 0 then
        invalid_arg (Printf.sprintf "Schedule.make: task %d uses no processor" v);
      (* Order over the whole set first, then range and repeats in one
         ascending pass: a set breaking two rules reports "not sorted"
         if it is unsorted, else its first offending id. *)
      let ps = e.procs in
      for k = 1 to Array.length ps - 1 do
        if ps.(k - 1) > ps.(k) then
          invalid_arg
            (Printf.sprintf "Schedule.make: task %d processor set not sorted" v)
      done;
      Array.iteri
        (fun k p ->
          if p < 0 || p >= platform_procs then
            invalid_arg
              (Printf.sprintf "Schedule.make: task %d uses unknown proc %d" v p);
          if k > 0 && ps.(k - 1) = p then
            invalid_arg
              (Printf.sprintf "Schedule.make: task %d repeats proc %d" v p))
        ps)
    entries;
  { entries; platform_procs }

let entry t v =
  if v < 0 || v >= Array.length t.entries then
    invalid_arg "Schedule.entry: task id out of range";
  t.entries.(v)

let entries t = Array.copy t.entries
let task_count t = Array.length t.entries
let platform_procs t = t.platform_procs

let makespan t =
  Array.fold_left (fun acc e -> Float.max acc e.finish) 0. t.entries

let total_busy_time t =
  Array.fold_left
    (fun acc e ->
      acc +. ((e.finish -. e.start) *. float_of_int (Array.length e.procs)))
    0. t.entries

let utilization t =
  let span = makespan t in
  if span <= 0. then 0.
  else total_busy_time t /. (span *. float_of_int t.platform_procs)

let allocation t = Array.map (fun e -> Array.length e.procs) t.entries

type violation =
  | Precedence of { src : int; dst : int }
  | Overlap of { proc : int; first : int; second : int }
  | Allocation_mismatch of { task : int; expected : int; actual : int }
  | Invalid_time of { task : int }

let pp_violation ppf = function
  | Precedence { src; dst } ->
    Format.fprintf ppf "task %d starts before its predecessor %d finishes" dst
      src
  | Overlap { proc; first; second } ->
    Format.fprintf ppf "tasks %d and %d overlap on processor %d" first second
      proc
  | Allocation_mismatch { task; expected; actual } ->
    Format.fprintf ppf "task %d uses %d processors, allocation says %d" task
      actual expected
  | Invalid_time { task } ->
    Format.fprintf ppf "task %d has a NaN start or finish time" task

(* Interval ordering for the per-processor sweep.  Explicit
   [Float.compare]/[Int.compare], not the polymorphic [compare]:
   structural comparison is not a total order on floats containing NaN
   (NaN-tainted intervals could land anywhere in the sorted list and
   the sweep would silently skip real overlaps behind them), and the
   monomorphic comparators are also what keeps the sort's behaviour
   independent of the runtime's polymorphic-compare float handling. *)
let compare_interval (s1, f1, t1) (s2, f2, t2) =
  let c = Float.compare s1 s2 in
  if c <> 0 then c
  else
    let c = Float.compare f1 f2 in
    if c <> 0 then c else Int.compare t1 t2

let validate ?alloc t ~graph =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  let n = Array.length t.entries in
  if Emts_ptg.Graph.task_count graph <> n then
    invalid_arg "Schedule.validate: graph size does not match schedule";
  (* NaN times are their own violation: [make] rejects them, but
     [validate] must not depend on how the schedule was built — and the
     precedence/overlap sweeps below cannot be trusted on NaN input
     (every comparison against NaN is false), so flag them explicitly. *)
  Array.iteri
    (fun v e ->
      if Float.is_nan e.start || Float.is_nan e.finish then
        push (Invalid_time { task = v }))
    t.entries;
  (* precedence *)
  List.iter
    (fun (src, dst) ->
      if t.entries.(dst).start < t.entries.(src).finish -. eps then
        push (Precedence { src; dst }))
    (Emts_ptg.Graph.edges graph);
  (* per-processor overlap: sweep each processor's interval list *)
  let by_proc = Array.make t.platform_procs [] in
  Array.iter
    (fun e ->
      Array.iter
        (fun p -> by_proc.(p) <- (e.start, e.finish, e.task) :: by_proc.(p))
        e.procs)
    t.entries;
  Array.iteri
    (fun p intervals ->
      let sorted = List.sort compare_interval intervals in
      let rec sweep = function
        | (s1, f1, t1) :: ((s2, _, t2) :: _ as rest) ->
          ignore s1;
          if s2 < f1 -. eps then
            push (Overlap { proc = p; first = t1; second = t2 });
          sweep rest
        | [ _ ] | [] -> ()
      in
      sweep sorted)
    by_proc;
  (* allocation match *)
  (match alloc with
  | None -> ()
  | Some alloc ->
    if Array.length alloc <> n then
      invalid_arg "Schedule.validate: allocation size does not match schedule";
    Array.iteri
      (fun v e ->
        let actual = Array.length e.procs in
        if actual <> alloc.(v) then
          push (Allocation_mismatch { task = v; expected = alloc.(v); actual }))
      t.entries);
  match List.rev !violations with [] -> Ok () | vs -> Error vs

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "task,start,finish,procs\n";
  Array.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%.9g,%.9g,%s\n" e.task e.start e.finish
           (String.concat "|"
              (Array.to_list (Array.map string_of_int e.procs)))))
    t.entries;
  Buffer.contents buf
