module Graph = Emts_ptg.Graph
module Analysis = Emts_ptg.Analysis

type ctx = {
  graph : Graph.t;
  cover : Graph.t;
  procs : int;
  tables : float array array;
}

let make_ctx ~model ~platform ~graph =
  {
    graph;
    cover = Graph.transitive_reduction graph;
    procs = platform.Emts_platform.processors;
    tables = Emts_model.Memo.tabulate_graph model platform graph;
  }

let time_of ctx alloc v = ctx.tables.(v).(alloc.(v) - 1)

let times ctx alloc =
  Array.init (Graph.task_count ctx.graph) (time_of ctx alloc)

let critical_path_length ctx alloc =
  Analysis.critical_path_length ctx.graph ~time:(time_of ctx alloc)

let average_area ctx alloc =
  Analysis.average_area ctx.graph ~time:(time_of ctx alloc)
    ~alloc:(fun v -> alloc.(v))
    ~procs:ctx.procs

let critical_path ctx alloc =
  Analysis.critical_path ctx.graph ~time:(time_of ctx alloc)

type gain = Efficiency | Absolute

let[@inline] gain_value ctx alloc gain v =
  let s = alloc.(v) in
  if s >= ctx.procs then neg_infinity
  else begin
    let now = ctx.tables.(v).(s - 1) and next = ctx.tables.(v).(s) in
    match gain with
    | Efficiency -> (now /. float_of_int s) -. (next /. float_of_int (s + 1))
    | Absolute -> now -. next
  end

(* Out of line and re-reading its operands, so the hot loop never boxes
   the time it validates. *)
let invalid_time ctx alloc v =
  invalid_arg
    (Printf.sprintf "Common.growth_loop: time of task %d on %d procs is invalid (%g)"
       v alloc.(v) ctx.tables.(v).(alloc.(v) - 1))

(* Incremental form of the loop spelled out in common.mli: a step
   recomputes only the bottom levels a grow can move — the grown task,
   then, walking the topological order down from it, each ancestor a
   moved successor marked dirty.  Every value is the float of the
   recurrence of [Analysis.bottom_levels] ([tv +. fold Float.max 0.]
   over the successors), [T_A] is summed in task order and the critical
   path is walked with the same tie rules, so every float, and hence
   every allocation, is bit-identical to the from-scratch loop.  Bottom
   levels read and dirty only covering edges ([ctx.cover]): a transitive
   edge [u -> w] through [x] has [bl x >= bl w], so it never sets the
   max (DESIGN.md §5).  The source scan, [T_A] and the path walk stay on
   the full graph, where a rounding tie [bl x = bl w] can pick another
   path.  Floats cross basic blocks only through [fs] (DESIGN.md §14),
   so a step allocates nothing. *)
let growth_loop ?(level_budget = max_int) ~gain ctx =
  let graph = ctx.graph and cover = ctx.cover in
  let tables = ctx.tables and procs = ctx.procs in
  let n = Graph.task_count graph in
  let alloc = Array.make n 1 in
  if n > 0 then begin
    let topo = Graph.topological_order graph in
    let pos = Array.make n 0 in
    Array.iteri (fun k v -> pos.(v) <- k) topo;
    let sources = Array.of_list (Graph.sources graph) in
    let level = Graph.precedence_level graph in
    let level_total = Array.make (Graph.level_count graph) 0 in
    Array.iter (fun l -> level_total.(l) <- level_total.(l) + 1) level;
    let bl = Array.make n 0. in
    let dirty = Array.make n false and pending = ref 0 in
    (* fs.(0): a bottom level before its update, then the running sum
       of T_A; fs.(1): a candidate's gain; fs.(2): the best gain;
       fs.(3): the largest bottom level of a task's successors. *)
    let fs = Array.make 4 0. in
    (* Recompute [bl.(v)]; mark the predecessors dirty when it moved.
       Bottom levels are never NaN nor -0. (times are validated, the
       max starts at +0.), so a bare [>] takes the max [Float.max]
       would, and float [<>] is a bitwise change test. *)
    let refresh v =
      let tv = tables.(v).(alloc.(v) - 1) in
      if not (tv >= 0.) then invalid_time ctx alloc v;
      fs.(0) <- bl.(v);
      let succs = Graph.succs cover v in
      fs.(3) <- 0.;
      for j = 0 to Array.length succs - 1 do
        if bl.(succs.(j)) > fs.(3) then fs.(3) <- bl.(succs.(j))
      done;
      bl.(v) <- tables.(v).(alloc.(v) - 1) +. fs.(3);
      if bl.(v) <> fs.(0) then begin
        let preds = Graph.preds cover v in
        for j = 0 to Array.length preds - 1 do
          if not dirty.(preds.(j)) then begin
            dirty.(preds.(j)) <- true;
            incr pending
          end
        done
      end
    in
    for k = n - 1 downto 0 do
      refresh topo.(k)
    done;
    Array.fill dirty 0 n false;
    pending := 0;
    let grow v =
      alloc.(v) <- alloc.(v) + 1;
      level_total.(level.(v)) <- level_total.(level.(v)) + 1;
      refresh v;
      (* Dirty tasks are ancestors of [v], so they precede it in
         topological order; walking down from [v] refreshes every
         successor before its predecessors. *)
      let k = ref (pos.(v) - 1) in
      while !pending > 0 do
        let u = topo.(!k) in
        if dirty.(u) then begin
          dirty.(u) <- false;
          decr pending;
          refresh u
        end;
        decr k
      done
    in
    let growing = ref true in
    while !growing do
      (* T_CP is the largest bottom level, reached at a source; the
         first such source (ascending id) starts the critical path. *)
      let start = ref sources.(0) in
      for i = 1 to Array.length sources - 1 do
        if bl.(sources.(i)) > bl.(!start) then start := sources.(i)
      done;
      fs.(0) <- 0.;
      for v = 0 to n - 1 do
        fs.(0) <-
          fs.(0) +. (tables.(v).(alloc.(v) - 1) *. float_of_int alloc.(v))
      done;
      if bl.(!start) <= fs.(0) /. float_of_int procs then growing := false
      else begin
        (* Walk the critical path from its source, following the first
           successor of largest bottom level; keep the first task with
           the best gain among those the level budget admits.
           [not (>=)], not [<]: a NaN gain displaces the best, as in the
           from-scratch loop the tests keep as reference. *)
        let best = ref (-1) and v = ref !start in
        while !v >= 0 do
          let u = !v in
          if level_total.(level.(u)) < level_budget then begin
            fs.(1) <- gain_value ctx alloc gain u;
            if (!best < 0 || not (fs.(2) >= fs.(1))) && fs.(1) <> neg_infinity
            then begin
              best := u;
              fs.(2) <- fs.(1)
            end
          end;
          let succs = Graph.succs graph u in
          v := -1;
          for j = 0 to Array.length succs - 1 do
            if !v < 0 || bl.(succs.(j)) > bl.(!v) then v := succs.(j)
          done
        done;
        if !best >= 0 && fs.(2) > 0. then grow !best else growing := false
      end
    done
  end;
  alloc
