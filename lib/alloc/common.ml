module Graph = Emts_ptg.Graph
module Analysis = Emts_ptg.Analysis

type ctx = {
  graph : Graph.t;
  cover : Graph.t;
  procs : int;
  tables : float array array;
  release : float array option;
  avail : float array option;
}

let make_ctx ~model ~platform ~graph =
  {
    graph;
    cover = Graph.transitive_reduction graph;
    procs = platform.Emts_platform.processors;
    tables = Emts_model.Memo.tabulate_graph model platform graph;
    release = None;
    avail = None;
  }

let sub_ctx ~cover ~tables ~procs ~release ~avail =
  { graph = cover; cover; procs; tables; release = Some release;
    avail = Some avail }

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

let m_steps =
  Emts_obs.Metrics.counter ~help:"processors added by the CPA-family growth loop"
    "alloc.growth.steps"

let m_exact_folds =
  Emts_obs.Metrics.counter
    ~help:
      "growth-loop stop tests the running T_A sum could not decide, so the \
       task-order fold decided them"
    "alloc.growth.exact_folds"

(* [off, adj] with [adj.(off.(v)) .. adj.(off.(v+1) - 1)] = [nbrs v]. *)
let flatten n nbrs =
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length (nbrs v)
  done;
  let adj = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    Array.blit (nbrs v) 0 adj off.(v) (Array.length (nbrs v))
  done;
  (off, adj)

(* Incremental form of the loop spelled out in common.mli: a grow
   rewrites only the grown task's state.
   - Each task's current time and gain sit in the flat float arrays
     [time] and [gains], set (and the time validated) when its
     allocation changes.
   - A step recomputes only the bottom levels a grow can move: the grown
     task, then, walking the topological order down from it, each
     ancestor a moved successor marked dirty.  Every value is the float
     of the recurrence of [Analysis.bottom_levels] ([tv +. fold
     Float.max 0.] over the successors).  Bottom levels read and dirty
     only covering edges ([ctx.cover], flattened once per call): a
     transitive edge [u -> w] through [x] has [bl x >= bl w], so it
     never sets the max (DESIGN.md §5).
   - [T_A]'s sum is kept running: a grow subtracts the task's old area
     and adds its new one.  Its distance from the task-order fold the
     reference loop takes is bounded rigorously (the slack below), and the
     fold runs only when [bl(start)] falls within that bound of the
     stop threshold; it then resets the running sum.
   The source scan and the path walk stay on the full graph, where a
   rounding tie [bl x = bl w] can pick another path, with the same tie
   rules, so every decision, and hence every allocation, is
   bit-identical to the from-scratch loop.  Floats cross basic blocks
   only through [fs] (DESIGN.md §14), so a step allocates nothing. *)
let growth_loop ?(level_budget = max_int) ~gain ctx =
  let graph = ctx.graph and tables = ctx.tables and procs = ctx.procs in
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
    let succ_off, succ_adj = flatten n (Graph.succs ctx.cover)
    and pred_off, pred_adj = flatten n (Graph.preds ctx.cover) in
    let time = Array.make n 0. and gains = Array.make n 0. in
    let bl = Array.make n 0. in
    let dirty = Array.make n false and pending = ref 0 in
    (* fs.(0): a bottom level before its update; fs.(1): the running
       sum of T_A's areas; fs.(2): the best gain; fs.(3): the largest
       bottom level of a task's successors; fs.(4): the error weight W
       of the running sum; fs.(5): its slack against the fold. *)
    let fs = Array.make 6 0. in
    let set_time v =
      time.(v) <- tables.(v).(alloc.(v) - 1);
      if not (time.(v) >= 0.) then invalid_time ctx alloc v;
      gains.(v) <- gain_value ctx alloc gain v
    in
    (* Recompute [bl.(v)]; mark the predecessors dirty when it moved.
       Bottom levels are never NaN nor -0. (times are validated, the
       max starts at +0.), so a bare [>] takes the max [Float.max]
       would, and float [<>] is a bitwise change test. *)
    let refresh v =
      fs.(0) <- bl.(v);
      fs.(3) <- 0.;
      for j = succ_off.(v) to succ_off.(v + 1) - 1 do
        if bl.(succ_adj.(j)) > fs.(3) then fs.(3) <- bl.(succ_adj.(j))
      done;
      bl.(v) <- time.(v) +. fs.(3);
      if bl.(v) <> fs.(0) then
        for j = pred_off.(v) to pred_off.(v + 1) - 1 do
          if not dirty.(pred_adj.(j)) then begin
            dirty.(pred_adj.(j)) <- true;
            incr pending
          end
        done
    in
    (* The task-order fold of the reference's [T_A] sum.  It is off the
       exact sum by at most 2nu times itself, so W restarts at 4n times
       it: twice what that needs, to cover the rounding of W's own
       sums. *)
    let fold () =
      fs.(1) <- 0.;
      for v = 0 to n - 1 do
        fs.(1) <- fs.(1) +. (time.(v) *. float_of_int alloc.(v))
      done;
      fs.(4) <- float_of_int (4 * n) *. fs.(1)
    in
    for v = 0 to n - 1 do
      set_time v
    done;
    for k = n - 1 downto 0 do
      refresh topo.(k)
    done;
    Array.fill dirty 0 n false;
    pending := 0;
    fold ();
    let grow v =
      (* Each rounded add or subtract of the running sum is off by at
         most u times its result; W sums those results. *)
      fs.(1) <- fs.(1) -. (time.(v) *. float_of_int alloc.(v));
      fs.(4) <- fs.(4) +. Float.abs fs.(1);
      alloc.(v) <- alloc.(v) + 1;
      level_total.(level.(v)) <- level_total.(level.(v)) + 1;
      set_time v;
      fs.(1) <- fs.(1) +. (time.(v) *. float_of_int alloc.(v));
      fs.(4) <- fs.(4) +. Float.abs fs.(1);
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
    let pf = float_of_int procs in
    let steps = ref 0 and folds = ref 0 in
    let growing = ref true in
    while !growing do
      (* T_CP is the largest bottom level, reached at a source; the
         first such source (ascending id) starts the critical path. *)
      let start = ref sources.(0) in
      for i = 1 to Array.length sources - 1 do
        if bl.(sources.(i)) > bl.(!start) then start := sources.(i)
      done;
      (* The reference stops when bl(start) <= fold /. P.  With
         u = 2^-53, S is within u*W of the exact area sum and the fold
         within 2nu of it, so |fold - S| <= u*(2n*|S| + 4W); the slack
         is 8 times that, plus a normal float, to absorb its own
         rounding and that of S -/+ slack (DESIGN.md §5).  Rounded
         division is monotone, so a comparison against
         (S -/+ slack) /. P that already decides is the fold's; in
         between, fold. *)
      fs.(5) <-
        ((float_of_int (2 * n) *. Float.abs fs.(1)) +. (4. *. fs.(4)))
        *. (4. *. epsilon_float)
        +. Float.min_float;
      let stop =
        if bl.(!start) <= (fs.(1) -. fs.(5)) /. pf then true
        else if bl.(!start) > (fs.(1) +. fs.(5)) /. pf then false
        else begin
          incr folds;
          fold ();
          bl.(!start) <= fs.(1) /. pf
        end
      in
      if stop then growing := false
      else begin
        (* Walk the critical path from its source, following the first
           successor of largest bottom level; keep the first task with
           the best gain among those the level budget admits.
           [not (>=)], not [<]: a NaN gain displaces the best, as in the
           from-scratch loop the tests keep as reference. *)
        let best = ref (-1) and v = ref !start in
        while !v >= 0 do
          let u = !v in
          if level_total.(level.(u)) < level_budget
             && (!best < 0 || not (fs.(2) >= gains.(u)))
             && gains.(u) <> neg_infinity
          then begin
            best := u;
            fs.(2) <- gains.(u)
          end;
          let succs = Graph.succs graph u in
          v := -1;
          for j = 0 to Array.length succs - 1 do
            if !v < 0 || bl.(succs.(j)) > bl.(!v) then v := succs.(j)
          done
        done;
        if !best >= 0 && fs.(2) > 0. then begin
          grow !best;
          incr steps
        end
        else growing := false
      end
    done;
    Emts_obs.Metrics.add m_steps !steps;
    Emts_obs.Metrics.add m_exact_folds !folds
  end;
  alloc
