module Graph = Emts_ptg.Graph

(* Incremental (delta) fitness evaluation with an allocation-free hot
   path.

   The baseline fitness path rebuilds everything from scratch for every
   candidate: a fresh times array, fresh bottom levels, a fresh heap, a
   schedule loop full of short-lived arrays.  This evaluator keeps all
   of that in preallocated buffers, plus a {e snapshot} of the last
   successfully evaluated genome (times, bottom levels, the full
   pop-step trace of its schedule); for the next candidate it
   recomputes only from the earliest scheduling step the change can
   influence, reusing the snapshot's prefix verbatim.  That pays on
   single-allele chains; an EA offspring differs from the previously
   evaluated genome in about a third of its alleles, so an EA batch
   reuses almost no steps and gains only from the lean loop.

   {b Processors as values.}  A makespan depends only on the multiset
   of processor availabilities, never on which ids a task gets, so
   [avail] holds just the values, ascending: a task on [s] processors
   starts at [max dr avail.(s-1)], the s-th smallest value, whichever
   equal-valued processor supplies it.  Data-ready times are [>= 0], so
   a zero [avail.(s-1)] of either sign yields the start [dr].  The
   makespan is therefore bit-identical to the id-tracking
   [List_scheduler]'s (the full argument is in DESIGN.md §14).

   {b Equivalence of the reused prefix.}  The list scheduler releases
   successors when a task is {e popped}, not when it finishes, so the
   pop sequence is driven purely by heap content: (bottom level, id)
   priorities plus the graph structure.  Let [push(v)] be the step at
   which [v] enters the ready heap in the reference run (0 for sources,
   else 1 + the last predecessor's pop step), and let [B] be the set of
   tasks whose allocation, execution time or bottom level differs
   between reference and candidate.  For every step [t < k = min over B
   of push(v)], the heap holds only tasks outside [B] with
   bitwise-equal priorities, so the pop, the processor claim, the
   start/finish times and all state updates are bitwise identical to
   the reference — by induction the two runs coincide on the whole
   prefix [0, k).  The evaluator therefore replays the reference prefix
   from the snapshot (re-running each step's claim at its recorded
   finish time rebuilds the availability values; the ready set,
   in-degrees and data-ready times follow from the pop trace) and runs
   the normal loop for the suffix.  The result is {b bit-identical} to
   a from-scratch run — property-tested in [test_evaluator] and
   cross-checked by the fuzz differential oracle.

   {b Allocation discipline.}  Steady state (same graph/tables/procs
   binding, capacities warm) must allocate nothing: every buffer is
   preallocated and owned by this record, the loop uses no closures,
   options, tuples or [Array.sub], float accumulators that must survive
   a loop iteration live in dedicated unboxed records ([facc]) or float
   arrays rather than [ref] cells (a [ref 0.] is a heap block even in
   native code), and int accumulators live in [iacc] (immediates —
   stores never allocate).  The [--gc-profile] histogram
   ([gc.eval.alloc_bytes]) is the measurement tool and the bench
   allocation gate pins the budget.

   Three boxing traps the code below works around (without flambda, a
   float [let] is unboxed only if {e every} use is a float context in
   the same loop nest):
   - a use inside a nested loop, or in a cold error branch that feeds
     [Printf.sprintf], boxes the float at its binding on every
     iteration — hence the [fs] scratch cell and the out-of-line
     raisers that re-read their operands;
   - floats passed as function arguments are boxed at the call — hence
     the heap push reads its priority from an array by index, and
     [claim] reads the finish time from [fs];
   - [Array.sort] raises internal exceptions (an allocation each) —
     hence [avail0] is sorted once per binding, in [rebind], and never
     during an evaluation. *)

(* Shared default for the optional release / initial-availability
   bindings: physical identity against this sentinel distinguishes "no
   constraint" from an explicit all-zero array without a per-call
   length check. *)
let no_floats : float array = [||]

let m_full = Emts_obs.Metrics.counter "sched.delta.full_runs"
let m_incr = Emts_obs.Metrics.counter "sched.delta.incremental_runs"
let m_reused = Emts_obs.Metrics.counter "sched.delta.reused_steps"
let m_scheduled = Emts_obs.Metrics.counter "sched.delta.scheduled_steps"
let m_rejections = Emts_obs.Metrics.counter "sched.delta.cutoff_rejections"

(* Loop-carried mutable state.  All-int record: fields are immediates,
   so stores never allocate.  [fa] is all-float: such records are
   stored flat, so float stores don't box either. *)
type iacc = {
  mutable hsize : int;  (* ready-heap size *)
  mutable finished : int;  (* pop steps completed so far *)
  mutable min_step : int;  (* divergence-step accumulator *)
  mutable tmp : int;  (* per-task push-step accumulator *)
  mutable rejected : bool;  (* current evaluation hit the cutoff *)
}

type facc = { mutable mk : float  (* running makespan *) }

type t = {
  (* instance binding; rebound on physical identity change *)
  mutable graph : Graph.t option;
  mutable tables : float array array;
  mutable procs : int;
  (* online re-planning constraints, part of the instance binding:
     [release] seeds [data_ready] and [avail0] seeds [avail_init]
     ([no_floats] means all-zero — the offline case) *)
  mutable release : float array;
  mutable avail0 : float array;
  mutable avail_init : float array;  (* [avail0] sorted ascending *)
  mutable n : int;
  mutable topo : int array;
  mutable base_indeg : int array;
  (* candidate vs reference, double-buffered: [times]/[bl] hold the
     candidate being evaluated, [times_snap]/[bl_snap] the reference;
     the pointers swap when the candidate completes *)
  mutable times : float array;
  mutable times_snap : float array;
  mutable bl : float array;
  mutable bl_snap : float array;
  mutable alloc_snap : int array;
  mutable snap_valid : bool;
  (* the reference run's pop trace *)
  mutable pop_order : int array;  (* step -> task *)
  mutable pos : int array;  (* task -> step *)
  mutable finish_ : float array;  (* task -> finish time *)
  mutable prefix_max : float array;  (* step -> max finish on [0, step] *)
  (* schedule-loop scratch *)
  mutable indeg : int array;
  mutable data_ready : float array;
  mutable avail : float array;  (* processor availabilities, ascending *)
  mutable hprio : float array;
  mutable hids : int array;
  fs : float array;  (* scratch cell for floats crossing a nested loop *)
  ia : iacc;
  fa : facc;
  mutable last_rejected : bool;
  (* lifetime statistics, exposed for tests and the bench report *)
  mutable full_runs : int;
  mutable incremental_runs : int;
  mutable reused_steps : int;
  mutable scheduled_steps : int;
}

type stats = {
  full_runs : int;
  incremental_runs : int;
  reused_steps : int;
  scheduled_steps : int;
}

let create () =
  {
    graph = None;
    tables = [||];
    procs = 0;
    release = no_floats;
    avail0 = no_floats;
    avail_init = [||];
    n = 0;
    topo = [||];
    base_indeg = [||];
    times = [||];
    times_snap = [||];
    bl = [||];
    bl_snap = [||];
    alloc_snap = [||];
    snap_valid = false;
    pop_order = [||];
    pos = [||];
    finish_ = [||];
    prefix_max = [||];
    indeg = [||];
    data_ready = [||];
    avail = [||];
    hprio = [||];
    hids = [||];
    fs = Array.make 1 0.;
    ia = { hsize = 0; finished = 0; min_step = 0; tmp = 0; rejected = false };
    fa = { mk = 0. };
    last_rejected = false;
    full_runs = 0;
    incremental_runs = 0;
    reused_steps = 0;
    scheduled_steps = 0;
  }

let stats (t : t) : stats =
  {
    full_runs = t.full_runs;
    incremental_runs = t.incremental_runs;
    reused_steps = t.reused_steps;
    scheduled_steps = t.scheduled_steps;
  }

let last_rejected t = t.last_rejected

let rebind t ~graph ~tables ~procs ~release ~avail0 =
  let n = Graph.task_count graph in
  if Array.length tables <> n then
    invalid_arg "Evaluator: tables length does not match task count";
  if procs < 1 then invalid_arg "Evaluator: procs must be >= 1";
  (* Validated once per binding (they are constant across candidates,
     like [tables]); callers must not mutate them while bound. *)
  if release != no_floats then begin
    if Array.length release <> n then
      invalid_arg "Evaluator: release length does not match task count";
    Array.iteri
      (fun v r ->
        if r <> r || r < 0. then
          invalid_arg
            (Printf.sprintf "Evaluator: task %d has invalid release %g" v r))
      release
  end;
  if avail0 != no_floats then begin
    if Array.length avail0 <> procs then
      invalid_arg "Evaluator: avail0 length does not match procs";
    Array.iteri
      (fun p a ->
        if a <> a || a < 0. then
          invalid_arg
            (Printf.sprintf "Evaluator: processor %d has invalid avail %g" p a))
      avail0
  end;
  t.graph <- Some graph;
  t.tables <- tables;
  t.procs <- procs;
  t.release <- release;
  t.avail0 <- avail0;
  (* exactly [procs] long, so sorting it wholesale sorts [avail0] *)
  if Array.length t.avail_init <> procs then
    t.avail_init <- Array.make procs 0.;
  if avail0 == no_floats then Array.fill t.avail_init 0 procs 0.
  else begin
    Array.blit avail0 0 t.avail_init 0 procs;
    Array.sort Float.compare t.avail_init
  end;
  t.n <- n;
  t.topo <- Graph.topological_order graph;
  (* Capacities grow and stick: rebinding to a smaller instance reuses
     the larger buffers (loops index by [t.n] and [procs], not array
     length). *)
  if Array.length t.times < n then begin
    t.times <- Array.make n 0.;
    t.times_snap <- Array.make n 0.;
    t.bl <- Array.make n 0.;
    t.bl_snap <- Array.make n 0.;
    t.alloc_snap <- Array.make n 0;
    t.pop_order <- Array.make n 0;
    t.pos <- Array.make n 0;
    t.finish_ <- Array.make n 0.;
    t.prefix_max <- Array.make n 0.;
    t.indeg <- Array.make n 0;
    t.data_ready <- Array.make n 0.;
    t.hprio <- Array.make n 0.;
    t.hids <- Array.make n 0;
    t.base_indeg <- Array.make n 0
  end;
  for v = 0 to n - 1 do
    t.base_indeg.(v) <- Array.length (Graph.preds graph v)
  done;
  if Array.length t.avail < procs then t.avail <- Array.make procs 0.;
  t.snap_valid <- false

(* Ready heap over parallel (priority, id) arrays; same total order as
   [List_scheduler.Heap.before]: larger bottom level first,
   [Float.compare] (not [>]) so the order is total, smaller id on ties.
   The pop sequence depends only on the multiset of pushed elements —
   the internal layout is irrelevant — which is what lets the delta
   path seed the heap in task-id order rather than the reference run's
   push order. *)
let heap_before (hp : float array) (hi : int array) i j =
  (* primitive [>] / [=], not [Float.compare]: same total order on this
     NaN-free, -0-free value domain (bottom levels are sums of
     non-negative times), and the primitives compile to bare [comisd]
     where the intrinsic's int result forces boxed floats *)
  let a = hp.(i) and b = hp.(j) in
  a > b || (a = b && hi.(i) < hi.(j))

(* Annotated: without the types nothing here constrains [hp], the
   function generalizes, and the generic array read boxes every float. *)
let heap_swap (hp : float array) (hi : int array) i j =
  let p = hp.(i) and v = hi.(i) in
  hp.(i) <- hp.(j);
  hi.(i) <- hi.(j);
  hp.(j) <- p;
  hi.(j) <- v

let rec heap_up hp hi i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_before hp hi i parent then begin
      heap_swap hp hi i parent;
      heap_up hp hi parent
    end
  end

let rec heap_down hp hi size i =
  let l = (2 * i) + 1 in
  if l < size then begin
    let best = if heap_before hp hi l i then l else i in
    let r = l + 1 in
    let best = if r < size && heap_before hp hi r best then r else best in
    if best <> i then begin
      heap_swap hp hi i best;
      heap_down hp hi size best
    end
  end

(* The priority is read from [prios] by index rather than passed as a
   float argument: a float crossing a call boundary is boxed. *)
let heap_push hp hi ia prios v =
  hp.(ia.hsize) <- prios.(v);
  hi.(ia.hsize) <- v;
  heap_up hp hi ia.hsize;
  ia.hsize <- ia.hsize + 1

(* A task claims the [s] earliest-available of the [procs] processors
   until [fs.(0)].  [avail] holds their availabilities ascending: drop
   the first [s], slide the values up to the finish (found by binary
   search) down over them and write [s] copies of the finish behind
   them.  The finish is >= [avail.(s-1)], so the array stays sorted. *)
let claim (avail : float array) procs s (fs : float array) =
  let lo = ref s and hi = ref procs in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if avail.(mid) > fs.(0) then hi := mid else lo := mid + 1
  done;
  Array.blit avail s avail 0 (!lo - s);
  for q = !lo - s to !lo - 1 do
    avail.(q) <- fs.(0)
  done

(* Out of line so the hot loop never mentions a float in a non-float
   context (a [Printf.sprintf "%g" tv] in a cold branch is enough to box
   [tv] on every iteration); the offending time is re-read here. *)
let bad_time tables alloc v =
  invalid_arg
    (Printf.sprintf "Evaluator: task %d has invalid time %g" v
       tables.(v).(alloc.(v) - 1))

let flush_metrics ~incremental ~reused ~scheduled ~rejected =
  if Emts_obs.Metrics.enabled () then begin
    if incremental then Emts_obs.Metrics.incr m_incr
    else Emts_obs.Metrics.incr m_full;
    if reused > 0 then Emts_obs.Metrics.add m_reused reused;
    if scheduled > 0 then Emts_obs.Metrics.add m_scheduled scheduled;
    if rejected then Emts_obs.Metrics.incr m_rejections
  end

let makespan t ?(release = no_floats) ?(avail0 = no_floats) ~graph ~tables
    ~procs ~alloc ~cutoff () =
  (match t.graph with
  | Some g
    when g == graph && t.tables == tables && t.procs = procs
         && t.release == release && t.avail0 == avail0 ->
    ()
  | _ -> rebind t ~graph ~tables ~procs ~release ~avail0);
  let n = t.n in
  if Array.length alloc <> n then
    invalid_arg "Evaluator: allocation length does not match task count";
  if cutoff <> cutoff then invalid_arg "Evaluator: cutoff is NaN";
  let ia = t.ia and fa = t.fa in
  let times = t.times and bl = t.bl and tables = t.tables in
  (* Pass A: execution times + input validation (the same checks as
     [Allocation.times_of_tables] + [List_scheduler.check_inputs]). *)
  for v = 0 to n - 1 do
    let s = alloc.(v) in
    if s < 1 || s > procs then
      invalid_arg
        (Printf.sprintf "Evaluator: task %d allocated %d procs (1..%d)" v s
           procs);
    let row = tables.(v) in
    if s > Array.length row then
      invalid_arg
        (Printf.sprintf
           "Evaluator: task %d allocated %d procs, table holds 1..%d" v s
           (Array.length row));
    let tv = row.(s - 1) in
    if tv <> tv || tv < 0. then bad_time tables alloc v;
    times.(v) <- tv
  done;
  (* Pass B: bottom levels, same recurrence as [Analysis.bottom_levels]
     ([tv +. fold Float.max 0.]) so the values are bit-identical to the
     from-scratch path.  Times are validated non-NaN and non-negative,
     so the running max over [bl] (all >= +0.) matches [Float.max]. *)
  let topo = t.topo in
  for k = n - 1 downto 0 do
    let v = topo.(k) in
    let succs = Graph.succs graph v in
    let ns = Array.length succs in
    bl.(v) <- 0.;
    for j = 0 to ns - 1 do
      let b = bl.(succs.(j)) in
      if b > bl.(v) then bl.(v) <- b
    done;
    bl.(v) <- times.(v) +. bl.(v)
  done;
  (* Pass C: earliest step the reference schedule can diverge at.  A
     task is "changed" if its allocation, time or bottom level differs
     from the snapshot — allocation is compared too because two
     allocations can share a bitwise-equal time (equal adjacent table
     entries) yet claim different processor counts.  Float [=] is a
     sound change detector here: NaN is impossible past validation, and
     a +0/-0 flip is genuinely no change (both behave identically in
     every downstream sum and comparison of this non-negative value
     domain).  Step 0 (a changed source) ends the scan early. *)
  let pos = t.pos
  and alloc_snap = t.alloc_snap
  and times_snap = t.times_snap
  and bl_snap = t.bl_snap in
  ia.min_step <- (if t.snap_valid then n else 0);
  let v = ref 0 in
  while !v < n && ia.min_step > 0 do
    let u = !v in
    if
      alloc.(u) <> alloc_snap.(u)
      || times.(u) <> times_snap.(u)
      || bl.(u) <> bl_snap.(u)
    then begin
      (* the step at which [u] entered the reference run's ready heap *)
      let preds = Graph.preds graph u in
      let np = Array.length preds in
      ia.tmp <- 0;
      for j = 0 to np - 1 do
        let s = pos.(preds.(j)) + 1 in
        if s > ia.tmp then ia.tmp <- s
      done;
      if ia.tmp < ia.min_step then ia.min_step <- ia.tmp
    end;
    incr v
  done;
  let k = ia.min_step in
  let prefix_max = t.prefix_max
  and finish_ = t.finish_
  and pop_order = t.pop_order in
  if k > 0 && prefix_max.(k - 1) > cutoff then begin
    (* The reused prefix already exceeds the cutoff, so a from-scratch
       bounded run would have rejected inside it.  Nothing was written:
       the snapshot still describes the reference. *)
    t.last_rejected <- true;
    t.incremental_runs <- t.incremental_runs + 1;
    flush_metrics ~incremental:true ~reused:0 ~scheduled:0 ~rejected:true;
    infinity
  end
  else if k = n && n > 0 then begin
    (* Candidate bitwise identical to the reference (duplicate genome):
       the whole schedule is reused. *)
    t.last_rejected <- false;
    t.incremental_runs <- t.incremental_runs + 1;
    t.reused_steps <- t.reused_steps + n;
    flush_metrics ~incremental:true ~reused:n ~scheduled:0 ~rejected:false;
    prefix_max.(n - 1)
  end
  else begin
    (* Reconstruct the loop state as it stood at step [k] of the
       reference run ([k = 0]: a fresh run), then schedule the suffix
       with the normal loop, writing the snapshot in place. *)
    let incremental = k > 0 in
    if incremental then begin
      t.incremental_runs <- t.incremental_runs + 1;
      t.reused_steps <- t.reused_steps + k
    end
    else t.full_runs <- t.full_runs + 1;
    let indeg = t.indeg
    and base_indeg = t.base_indeg
    and data_ready = t.data_ready
    and avail = t.avail
    and fs = t.fs in
    let has_release = release != no_floats in
    for v = 0 to n - 1 do
      indeg.(v) <- base_indeg.(v);
      data_ready.(v) <- (if has_release then release.(v) else 0.)
    done;
    Array.blit t.avail_init 0 avail 0 procs;
    for step = 0 to k - 1 do
      (* the prefix tasks are unchanged, so [alloc] is the reference's
         allocation for them; [fs.(0)], not a [let f]: a float let read
         inside the nested loop below would be boxed at its binding on
         every step *)
      let v = pop_order.(step) in
      fs.(0) <- finish_.(v);
      claim avail procs alloc.(v) fs;
      let succs = Graph.succs graph v in
      let ns = Array.length succs in
      for j = 0 to ns - 1 do
        let w = succs.(j) in
        if fs.(0) > data_ready.(w) then data_ready.(w) <- fs.(0);
        indeg.(w) <- indeg.(w) - 1
      done
    done;
    let hprio = t.hprio and hids = t.hids in
    ia.hsize <- 0;
    for v = 0 to n - 1 do
      (* ready at step [k]: not popped in the prefix, all predecessors
         popped in it.  Seeding in id order is fine: pops depend only on
         heap content.  [k = 0] short-circuits before reading the
         (possibly stale) [pos]. *)
      if indeg.(v) = 0 && (k = 0 || pos.(v) >= k) then
        heap_push hprio hids ia bl v
    done;
    ia.finished <- k;
    ia.rejected <- false;
    fa.mk <- (if k > 0 then prefix_max.(k - 1) else 0.);
    while ia.hsize > 0 && not ia.rejected do
      (* pop the highest-priority ready task *)
      let v = hids.(0) in
      ia.hsize <- ia.hsize - 1;
      if ia.hsize > 0 then begin
        hprio.(0) <- hprio.(ia.hsize);
        hids.(0) <- hids.(ia.hsize);
        heap_down hprio hids ia.hsize 0
      end;
      let s = alloc.(v) in
      let a = avail.(s - 1) in
      let dr = data_ready.(v) in
      (* start = [Float.max dr a] (no NaN here, and [dr >= 0] so the
         sign of a zero [a] is irrelevant — see the module header).  The
         finish time lives in [fs.(0)], not a let — it is read inside
         the nested loop below, which would box a let-bound float once
         per scheduling step. *)
      fs.(0) <- (if dr >= a then dr else a) +. times.(v);
      if fs.(0) > cutoff then ia.rejected <- true
      else begin
        claim avail procs s fs;
        (* extend the snapshot with this step *)
        let step = ia.finished in
        pop_order.(step) <- v;
        pos.(v) <- step;
        finish_.(v) <- fs.(0);
        if fs.(0) > fa.mk then fa.mk <- fs.(0);
        prefix_max.(step) <- fa.mk;
        ia.finished <- step + 1;
        (* release successors (at pop, not finish — see module header) *)
        let succs = Graph.succs graph v in
        let ns = Array.length succs in
        for jj = 0 to ns - 1 do
          let w = succs.(jj) in
          if fs.(0) > data_ready.(w) then data_ready.(w) <- fs.(0);
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then heap_push hprio hids ia bl w
        done
      end
    done;
    t.scheduled_steps <- t.scheduled_steps + (ia.finished - k);
    flush_metrics ~incremental ~reused:k ~scheduled:(ia.finished - k)
      ~rejected:ia.rejected;
    if ia.rejected then begin
      (* The snapshot was extended past [k] before the rejection hit
         unless the very first suffix step rejected; a partially
         overwritten trace no longer describes any completed run. *)
      if ia.finished > k then t.snap_valid <- false;
      t.last_rejected <- true;
      infinity
    end
    else begin
      if ia.finished <> n then
        (* Unreachable for a validated DAG; defensive. *)
        invalid_arg "Evaluator: not all tasks were scheduled";
      (* the candidate becomes the reference: swap the double buffers *)
      let tmp = t.times in
      t.times <- t.times_snap;
      t.times_snap <- tmp;
      let tmp = t.bl in
      t.bl <- t.bl_snap;
      t.bl_snap <- tmp;
      for v = 0 to n - 1 do
        alloc_snap.(v) <- alloc.(v)
      done;
      t.snap_valid <- true;
      t.last_rejected <- false;
      fa.mk
    end
  end
