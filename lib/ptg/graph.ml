type t = {
  tasks : Task.t array;
  succ : int array array;
  pred : int array array;
  n_edges : int;
  (* Caches computed at build time; cheap and used constantly. *)
  topo : int array;
  level : int array;
  n_levels : int;
}

exception Cycle of int list

(* Kahn's algorithm with a min-id priority choice so the order is unique
   for a given graph: the ready nodes sit in a binary min-heap of ids.
   Returns the topological order or raises Cycle. *)
let topo_sort ~n ~succ ~pred =
  let indeg = Array.init n (fun i -> Array.length pred.(i)) in
  (* Each node enters the heap once, so [n] slots suffice. *)
  let heap = Array.make n 0 and size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > v do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) and i = ref 0 and sifting = ref true in
    while !sifting do
      let c = (2 * !i) + 1 in
      let c = if c + 1 < !size && heap.(c + 1) < heap.(c) then c + 1 else c in
      if c < !size && heap.(c) < last then begin
        heap.(!i) <- heap.(c);
        i := c
      end
      else sifting := false
    done;
    heap.(!i) <- last;
    top
  in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then push i
  done;
  let order = Array.make n (-1) in
  let k = ref 0 in
  while !size > 0 do
    let v = pop () in
    order.(!k) <- v;
    incr k;
    Array.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then push w)
      succ.(v)
  done;
  if !k < n then begin
    (* Some nodes remain on a cycle; report them for diagnostics. *)
    let stuck = ref [] in
    for i = n - 1 downto 0 do
      if indeg.(i) > 0 then stuck := i :: !stuck
    done;
    raise (Cycle !stuck)
  end;
  order

let compute_levels ~n ~pred ~topo =
  let level = Array.make n 0 in
  let n_levels = ref (if n = 0 then 0 else 1) in
  Array.iter
    (fun v ->
      let lv =
        Array.fold_left (fun acc p -> max acc (level.(p) + 1)) 0 pred.(v)
      in
      level.(v) <- lv;
      if lv + 1 > !n_levels then n_levels := lv + 1)
    topo;
  (level, !n_levels)

(* Predecessor lists of ascending successor lists: visiting the sources
   in id order fills every list ascending. *)
let preds_of_succs succ =
  let n = Array.length succ in
  let fill = Array.make n 0 in
  Array.iter (Array.iter (fun w -> fill.(w) <- fill.(w) + 1)) succ;
  let pred = Array.map (fun d -> Array.make d 0) fill in
  Array.fill fill 0 n 0;
  Array.iteri
    (fun v out ->
      Array.iter
        (fun w ->
          pred.(w).(fill.(w)) <- v;
          fill.(w) <- fill.(w) + 1)
        out)
    succ;
  pred

let count_edges succ =
  Array.fold_left (fun acc out -> acc + Array.length out) 0 succ

(* Freezes the [m] edges stored as [pairs.(2k) -> pairs.(2k+1)], in any
   order and with duplicates: bucket them by source, then sort and
   dedupe each bucket. *)
let freeze tasks pairs m =
  let n = Array.length tasks in
  let start = Array.make (n + 1) 0 in
  for k = 0 to m - 1 do
    let s = pairs.(2 * k) in
    start.(s + 1) <- start.(s + 1) + 1
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let next = Array.sub start 0 n and flat = Array.make m 0 in
  for k = 0 to m - 1 do
    let s = pairs.(2 * k) in
    flat.(next.(s)) <- pairs.((2 * k) + 1);
    next.(s) <- next.(s) + 1
  done;
  let succ =
    Array.init n (fun v ->
        let out = Array.sub flat start.(v) (start.(v + 1) - start.(v)) in
        Array.sort Int.compare out;
        let len = ref 0 in
        for j = 0 to Array.length out - 1 do
          if !len = 0 || out.(!len - 1) <> out.(j) then begin
            out.(!len) <- out.(j);
            incr len
          end
        done;
        if !len = Array.length out then out else Array.sub out 0 !len)
  in
  let pred = preds_of_succs succ in
  let topo = topo_sort ~n ~succ ~pred in
  let level, n_levels = compute_levels ~n ~pred ~topo in
  { tasks; succ; pred; n_edges = count_edges succ; topo; level; n_levels }

module Builder = struct
  type t = {
    mutable rev_tasks : Task.t list;
    mutable n : int;
    (* Edge k is [pairs.(2k) -> pairs.(2k+1)]; duplicates are kept until
       [build]. *)
    mutable pairs : int array;
    mutable m : int;
  }

  let create () = { rev_tasks = []; n = 0; pairs = Array.make 64 0; m = 0 }

  let add_task ?name ?data_size ?alpha ?pattern ~flop b =
    let id = b.n in
    let task = Task.make ?name ?data_size ?alpha ?pattern ~id ~flop () in
    b.rev_tasks <- task :: b.rev_tasks;
    b.n <- b.n + 1;
    id

  let add_edge b ~src ~dst =
    if src < 0 || src >= b.n then invalid_arg "Builder.add_edge: unknown src";
    if dst < 0 || dst >= b.n then invalid_arg "Builder.add_edge: unknown dst";
    if src = dst then invalid_arg "Builder.add_edge: self-loop";
    if 2 * b.m = Array.length b.pairs then begin
      let grown = Array.make (4 * b.m) 0 in
      Array.blit b.pairs 0 grown 0 (2 * b.m);
      b.pairs <- grown
    end;
    b.pairs.(2 * b.m) <- src;
    b.pairs.((2 * b.m) + 1) <- dst;
    b.m <- b.m + 1

  let task_count b = b.n

  let build b = freeze (Array.of_list (List.rev b.rev_tasks)) b.pairs b.m
end

let of_tasks_and_edges tasks edges =
  Array.iteri
    (fun i (task : Task.t) ->
      if task.id <> i then
        invalid_arg "Graph.of_tasks_and_edges: task ids must be dense")
    tasks;
  let b = Builder.create () in
  Array.iter
    (fun (task : Task.t) ->
      ignore
        (Builder.add_task ~name:task.name ~data_size:task.data_size
           ~alpha:task.alpha ~pattern:task.pattern ~flop:task.flop b))
    tasks;
  List.iter (fun (src, dst) -> Builder.add_edge b ~src ~dst) edges;
  Builder.build b

let task_count g = Array.length g.tasks
let edge_count g = g.n_edges

let task g i =
  if i < 0 || i >= Array.length g.tasks then
    invalid_arg "Graph.task: id out of range";
  g.tasks.(i)

let tasks g = Array.copy g.tasks

let succs g i =
  if i < 0 || i >= Array.length g.succ then
    invalid_arg "Graph.succs: id out of range";
  g.succ.(i)

let preds g i =
  if i < 0 || i >= Array.length g.pred then
    invalid_arg "Graph.preds: id out of range";
  g.pred.(i)

let edges g =
  let acc = ref [] in
  for src = Array.length g.succ - 1 downto 0 do
    let out = g.succ.(src) in
    for k = Array.length out - 1 downto 0 do
      acc := (src, out.(k)) :: !acc
    done
  done;
  !acc

let has_edge g ~src ~dst =
  src >= 0
  && src < Array.length g.succ
  && Array.exists (fun w -> w = dst) g.succ.(src)

let in_degree g i = Array.length (preds g i)
let out_degree g i = Array.length (succs g i)

let sources g =
  List.filter (fun v -> in_degree g v = 0)
    (List.init (task_count g) Fun.id)

let sinks g =
  List.filter (fun v -> out_degree g v = 0)
    (List.init (task_count g) Fun.id)

let topological_order g = Array.copy g.topo
let precedence_level g = Array.copy g.level
let level_count g = g.n_levels

let nodes_at_level g lv =
  if lv < 0 || lv >= max 1 g.n_levels then
    invalid_arg "Graph.nodes_at_level: level out of range";
  List.filter (fun v -> g.level.(v) = lv) (List.init (task_count g) Fun.id)

let max_level_width g =
  if task_count g = 0 then 0
  else begin
    let widths = Array.make g.n_levels 0 in
    Array.iter (fun lv -> widths.(lv) <- widths.(lv) + 1) g.level;
    Array.fold_left max 0 widths
  end

let reachable g v =
  let n = task_count g in
  if v < 0 || v >= n then invalid_arg "Graph.reachable: id out of range";
  let seen = Array.make n false in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Array.iter visit g.succ.(u)
    end
  in
  visit v;
  seen

let is_edge_transitive g ~src ~dst =
  if not (has_edge g ~src ~dst) then
    invalid_arg "Graph.is_edge_transitive: no such edge";
  (* Path src -> ... -> dst of length >= 2: from some other successor. *)
  Array.exists
    (fun mid -> mid <> dst && (reachable g mid).(dst))
    g.succ.(src)

(* Strict descendants are bitsets over topological positions, one row
   per node, built from the sinks up: an edge [u -> w] is transitive iff
   [w] already descends from some successor of [u].  Rows hold one block
   of at most [reduction_words] words of columns at a time, so memory
   stays within V * [reduction_words] words whatever V is. *)
let reduction_words = 64

let transitive_reduction g =
  let n = task_count g and bits = Sys.int_size in
  let pos = Array.make n 0 in
  Array.iteri (fun k v -> pos.(v) <- k) g.topo;
  let words = min reduction_words ((n + bits - 1) / bits) in
  let desc = Array.make (n * words) 0 in
  let keep = Array.map (fun out -> Array.make (Array.length out) true) g.succ in
  let lo = ref 0 in
  while !lo < n do
    (* Columns [lo, hi): the descendants and edge heads decided now. *)
    let hi = min n (!lo + (words * bits)) in
    let width = hi - !lo in
    Array.fill desc 0 (n * words) 0;
    for p = hi - 1 downto 0 do
      let v = g.topo.(p) and row = p * words in
      let out = g.succ.(v) in
      (* A successor at or past [hi] has no descendant in the block. *)
      for j = 0 to Array.length out - 1 do
        let q = pos.(out.(j)) in
        if q < hi then
          for i = 0 to words - 1 do
            desc.(row + i) <- desc.(row + i) lor desc.((q * words) + i)
          done
      done;
      (* Successors are distinct, so adding one's own bit never
         decides another's edge. *)
      for j = 0 to Array.length out - 1 do
        let c = pos.(out.(j)) - !lo in
        if c >= 0 && c < width then begin
          let i = row + (c / bits) and bit = 1 lsl (c mod bits) in
          if desc.(i) land bit <> 0 then keep.(v).(j) <- false
          else desc.(i) <- desc.(i) lor bit
        end
      done
    done;
    lo := hi
  done;
  (* Same reachability, hence the same Kahn order and levels. *)
  let succ =
    Array.mapi
      (fun v out ->
        let kept = ref [] in
        for j = Array.length out - 1 downto 0 do
          if keep.(v).(j) then kept := out.(j) :: !kept
        done;
        Array.of_list !kept)
      g.succ
  in
  { g with succ; pred = preds_of_succs succ; n_edges = count_edges succ }

let map_tasks f g =
  let tasks =
    Array.mapi
      (fun i old ->
        let fresh = f old in
        if fresh.Task.id <> i then
          invalid_arg "Graph.map_tasks: transform must preserve ids";
        fresh)
      g.tasks
  in
  { g with tasks }

let total_flop g =
  Array.fold_left (fun acc (task : Task.t) -> acc +. task.flop) 0. g.tasks

let equal_structure a b =
  task_count a = task_count b && edge_count a = edge_count b
  && edges a = edges b

let pp_stats ppf g =
  Format.fprintf ppf "%d tasks, %d edges, %d levels, width %d" (task_count g)
    (edge_count g) (level_count g) (max_level_width g)
