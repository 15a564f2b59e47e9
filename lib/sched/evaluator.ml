module Graph = Emts_ptg.Graph

(* The list-scheduling kernel: the paper's mapping step (Section III-A),
   the one loop in this library that pops ready tasks by priority.

   It has two modes.  The value mode computes the makespan and is the
   EA's fitness: [makespan] binds a per-domain evaluator to an instance
   and runs the loop on preallocated buffers.  The record mode builds a
   [Schedule.t] for [List_scheduler.run]: the loop records its pop order
   (one int store per pop) and [First_fit] replays that order to choose
   processor ids.  [List_scheduler]'s calls allocate their own scratch,
   so they are safe from any thread.

   {b Processors as runs of values.}  A makespan depends only on the
   multiset of processor availabilities, never on which ids a task
   gets, so the kernel keeps just that multiset, as runs: distinct
   values ascending in [rv], each with the number of processors free
   from it in [rc], the counts summing to [procs].  A task on [s]
   processors starts at [max dr a], [a] the s-th smallest value,
   whichever equal-valued processor supplies it; a walk over the runs
   from the front finds it.  Its claim drops those [s] processors (the
   runs before [a]'s whole, [a]'s whole or in part) and inserts its
   finish with count [s]: added to a run of the same value, or as a new
   run, shifting whichever side of it holds fewer runs.  The runs sit in a
   ring of at least [procs] slots, so both sides always have room.
   Float [=] merges only bitwise-equal non-zero values, or zeros of
   either sign; data-ready times are [>= 0], so a zero [a] of either
   sign yields the start [dr].  The makespan is therefore bit-identical
   to that of the id-tracking schedule the record mode builds
   (DESIGN.md §14).

   {b The pop order.}  A task becomes ready when its last predecessor
   pops, whatever the processors hold, so the order depends on the
   priorities and the graph alone.  Replaying it through [First_fit]
   gives the id-tracking schedule exactly.

   {b Certified rejection.}  With a finite cutoff a call stops at the
   first pop whose start [st] plus bottom level already proves the
   makespan exceeds the cutoff: the chain attaining [bl.(v)] starts no
   earlier than [st] and runs its tasks one after another, so the
   makespan is at least the left-to-right float sum of [st] and the
   chain's times, while [st +. bl.(v)] is the same terms summed right
   to left.  The two sums differ by less than the factor
   [1 + 4(n+2)·epsilon_float] the cutoff is padded with, so a bound
   rejection implies [makespan > cutoff], and the finish test still
   catches every other such schedule: a call rejects exactly when the
   makespan exceeds the cutoff (DESIGN.md §14).

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
     iteration — hence the [fs] scratch cells and the out-of-line
     raisers that re-read their operands;
   - floats passed as function arguments are boxed at the call — hence
     the heap push reads its priority from an array by index, and
     [claim] reads the finish time from [fs];
   - [Array.sort] raises internal exceptions (an allocation each) —
     hence [avail0] is sorted once per binding, in [rebind], and never
     during an evaluation. *)

(* Shared default for the optional release / initial-availability
   bindings: physical identity against this sentinel distinguishes "no
   constraint" from an explicit array without a per-call length check.
   A private block, so no caller's array, an empty one included, is
   mistaken for it. *)
let no_floats : float array = Array.make 1 Float.nan

(* Value mode (the EA's fitness). *)
let m_full = Emts_obs.Metrics.counter "sched.delta.full_runs"
let m_scheduled = Emts_obs.Metrics.counter "sched.delta.scheduled_steps"
let m_rejections = Emts_obs.Metrics.counter "sched.delta.cutoff_rejections"
let m_claim_runs = Emts_obs.Metrics.counter "sched.delta.claim_runs"

(* [List_scheduler]'s calls, offline and online.  Each call flushes once,
   and only when collection is enabled. *)
let m_runs = Emts_obs.Metrics.counter "sched.runs"
let m_tasks = Emts_obs.Metrics.counter "sched.tasks_scheduled"
let m_ready_pushes = Emts_obs.Metrics.counter "sched.ready_pushes"
let m_ready_pops = Emts_obs.Metrics.counter "sched.ready_pops"
let m_proc_limited = Emts_obs.Metrics.counter "sched.proc_limited_starts"
let m_online_runs = Emts_obs.Metrics.counter "sched.online.runs"
let m_online_tasks = Emts_obs.Metrics.counter "sched.online.tasks_scheduled"

(* Loop-carried mutable state.  All-int record: fields are immediates,
   so stores never allocate.  [fa] is all-float: such records are
   stored flat, so float stores don't box either. *)
type iacc = {
  mutable hsize : int;  (* ready-heap size *)
  mutable finished : int;  (* pop steps completed so far *)
  mutable limited : int;  (* pops whose start a processor set, not data *)
  mutable rejected : bool;  (* current evaluation hit the cutoff *)
  mutable rh : int;  (* ring slot of the first (smallest) run *)
  mutable rn : int;  (* runs in the ring *)
  mutable claim_runs : int;  (* runs walked, passed or moved this call *)
}

type facc = { mutable mk : float  (* running makespan *) }

type t = {
  (* instance binding; rebound on physical identity change *)
  mutable graph : Graph.t option;
  mutable tables : float array array;
  mutable procs : int;
  (* online re-planning constraints, part of the instance binding:
     [release] seeds [data_ready] and [avail0] the initial runs
     ([no_floats] means all-zero — the offline case) *)
  mutable release : float array;
  mutable avail0 : float array;
  mutable init_v : float array;  (* [avail0]'s runs: values ascending *)
  mutable init_c : int array;  (* and their counts *)
  mutable init_runs : int;
  mutable n : int;
  mutable topo : int array;
  mutable base_indeg : int array;
  (* per-candidate scratch *)
  mutable times : float array;
  mutable bl : float array;
  mutable indeg : int array;
  mutable data_ready : float array;
  (* the availability runs, a ring indexed [land (length - 1)] *)
  mutable rv : float array;  (* distinct values, ascending from [ia.rh] *)
  mutable rc : int array;  (* processors free from each value, > 0 *)
  mutable hprio : float array;
  mutable hids : int array;
  mutable order : int array;  (* pop order, for the record mode *)
  (* floats crossing a nested loop or a call: [fs.(0)] the popped
     task's start, then its finish; [fs.(1)] the padded cutoff *)
  fs : float array;
  ia : iacc;
  fa : facc;
  mutable last_rejected : bool;
  (* lifetime statistics, exposed for tests and the bench report *)
  mutable full_runs : int;
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
    init_v = [||];
    init_c = [||];
    init_runs = 0;
    n = 0;
    topo = [||];
    base_indeg = [||];
    times = [||];
    bl = [||];
    indeg = [||];
    data_ready = [||];
    rv = [||];
    rc = [||];
    hprio = [||];
    hids = [||];
    order = [||];
    fs = Array.make 2 0.;
    ia =
      {
        hsize = 0;
        finished = 0;
        limited = 0;
        rejected = false;
        rh = 0;
        rn = 0;
        claim_runs = 0;
      };
    fa = { mk = 0. };
    last_rejected = false;
    full_runs = 0;
    scheduled_steps = 0;
  }

(* Every call is a full run, so the two reuse counters are always 0;
   the record keeps its shape because the benchmark reads all four. *)
let stats (t : t) : stats =
  {
    full_runs = t.full_runs;
    incremental_runs = 0;
    reused_steps = 0;
    scheduled_steps = t.scheduled_steps;
  }

let last_rejected t = t.last_rejected

let rebind t ~graph ~tables ~procs ~release ~avail0 =
  let n = Graph.task_count graph in
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
  (* the initial runs: [avail0] sorted, equal values merged *)
  if Array.length t.init_v < procs then begin
    t.init_v <- Array.make procs 0.;
    t.init_c <- Array.make procs 0
  end;
  if avail0 == no_floats then begin
    t.init_v.(0) <- 0.;
    t.init_c.(0) <- procs;
    t.init_runs <- 1
  end
  else begin
    let sorted = Array.copy avail0 in
    Array.sort Float.compare sorted;
    let r = ref 0 in
    t.init_v.(0) <- sorted.(0);
    t.init_c.(0) <- 1;
    for p = 1 to procs - 1 do
      if sorted.(p) = t.init_v.(!r) then t.init_c.(!r) <- t.init_c.(!r) + 1
      else begin
        incr r;
        t.init_v.(!r) <- sorted.(p);
        t.init_c.(!r) <- 1
      end
    done;
    t.init_runs <- !r + 1
  end;
  t.n <- n;
  t.topo <- Graph.topological_order graph;
  (* Capacities grow and stick: rebinding to a smaller instance reuses
     the larger buffers (loops index by [t.n] and [procs], not array
     length). *)
  if Array.length t.times < n then begin
    t.times <- Array.make n 0.;
    t.bl <- Array.make n 0.;
    t.indeg <- Array.make n 0;
    t.data_ready <- Array.make n 0.;
    t.hprio <- Array.make n 0.;
    t.hids <- Array.make n 0;
    t.order <- Array.make n 0;
    t.base_indeg <- Array.make n 0
  end;
  for v = 0 to n - 1 do
    t.base_indeg.(v) <- Array.length (Graph.preds graph v)
  done;
  (* a ring of at least [procs] slots: at most [procs] runs exist, and
     a claim inserts only after dropping at least one processor *)
  let ring = ref 1 in
  while !ring < procs do
    ring := 2 * !ring
  done;
  if Array.length t.rv < !ring then begin
    t.rv <- Array.make !ring 0.;
    t.rc <- Array.make !ring 0
  end

(* Ready heap over parallel (priority, id) arrays: larger priority
   first, smaller id on ties.  The pop sequence depends only on the
   multiset of pushed elements, not on the internal layout. *)
let heap_before (hp : float array) (hi : int array) i j =
  (* primitive [>] / [=], not [Float.compare]: the same total order on
     NaN-free values, signed zeros included ([List_scheduler] rejects
     NaN priorities, and bottom levels of validated times have none),
     and the primitives compile to bare [comisd] where the intrinsic's
     int result forces boxed floats *)
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

(* A task claims the [s] earliest-available processors until [fs.(0)].
   Run [k] holds the s-th smallest value and [c] counts the processors
   up to and including it: drop the runs before [k], and [k] unless it
   keeps [c - s] processors.  Then scan from the back past the runs
   above the finish: one of the same value takes the [s] processors,
   otherwise a new run goes in, after shifting the side with fewer runs
   by one slot.  The finish is >= the s-th smallest value, so the runs
   stay ascending. *)
let claim (rv : float array) (rc : int array) mask ia s k c (fs : float array)
    =
  let dropped = (k - ia.rh) land mask in
  if c = s then begin
    ia.rh <- (k + 1) land mask;
    ia.rn <- ia.rn - dropped - 1
  end
  else begin
    rc.(k) <- c - s;
    ia.rh <- k;
    ia.rn <- ia.rn - dropped
  end;
  let above = ref 0 and j = ref ((ia.rh + ia.rn - 1) land mask) in
  while !above < ia.rn && rv.(!j) > fs.(0) do
    incr above;
    j := (!j - 1) land mask
  done;
  if !above < ia.rn && rv.(!j) = fs.(0) then begin
    rc.(!j) <- rc.(!j) + s;
    ia.claim_runs <- ia.claim_runs + !above
  end
  else begin
    let below = ia.rn - !above in
    let back = !above <= below in
    let step = if back then 1 else -1 in
    let moved = if back then !above else below in
    let dst =
      ref (if back then (ia.rh + ia.rn) land mask else (ia.rh - 1) land mask)
    in
    if not back then ia.rh <- !dst;
    for _ = 1 to moved do
      let src = (!dst - step) land mask in
      rv.(!dst) <- rv.(src);
      rc.(!dst) <- rc.(src);
      dst := src
    done;
    rv.(!dst) <- fs.(0);
    rc.(!dst) <- s;
    ia.rn <- ia.rn + 1;
    ia.claim_runs <- ia.claim_runs + !above + moved
  end

(* Out of line so the hot loop never mentions a float in a non-float
   context (a [Printf.sprintf "%g" tv] in a cold branch is enough to box
   [tv] on every iteration); the offending time is re-read here. *)
let bad_time tables alloc v =
  invalid_arg
    (Printf.sprintf "Evaluator: task %d has invalid time %g" v
       tables.(v).(alloc.(v) - 1))

(* Bottom levels of [t.times], the recurrence of [Analysis.bottom_levels]
   ([tv +. fold Float.max 0.]) so the values are bit-identical.  Times
   are validated non-NaN and non-negative, so the running max over [bl]
   (all >= +0.) matches [Float.max]. *)
let bottom_levels t graph =
  let topo = t.topo and bl = t.bl and times = t.times in
  for k = t.n - 1 downto 0 do
    let v = topo.(k) in
    let succs = Graph.succs graph v in
    let ns = Array.length succs in
    bl.(v) <- 0.;
    for j = 0 to ns - 1 do
      let b = bl.(succs.(j)) in
      if b > bl.(v) then bl.(v) <- b
    done;
    bl.(v) <- times.(v) +. bl.(v)
  done

(* The list schedule of [t.times] under [alloc], ready tasks popped by
   [prio].  Leaves the makespan in [t.fa.mk], the pop order in
   [t.order], each task's data-ready time in [t.data_ready] and the
   counts in [t.ia]. *)
let kernel t ~graph ~alloc ~(prio : float array) ~cutoff =
  let n = t.n in
  let ia = t.ia and fa = t.fa in
  let times = t.times
  and bl = t.bl
  and indeg = t.indeg
  and base_indeg = t.base_indeg
  and data_ready = t.data_ready
  and rv = t.rv
  and rc = t.rc
  and hprio = t.hprio
  and hids = t.hids
  and order = t.order
  and fs = t.fs
  and release = t.release in
  let has_release = release != no_floats in
  ia.hsize <- 0;
  for v = 0 to n - 1 do
    indeg.(v) <- base_indeg.(v);
    data_ready.(v) <- (if has_release then release.(v) else 0.);
    if indeg.(v) = 0 then heap_push hprio hids ia prio v
  done;
  let mask = Array.length rv - 1 in
  Array.blit t.init_v 0 rv 0 t.init_runs;
  Array.blit t.init_c 0 rc 0 t.init_runs;
  ia.rh <- 0;
  ia.rn <- t.init_runs;
  ia.claim_runs <- 0;
  (* The bound's cutoff, padded for the rounding of both sums (module
     header; DESIGN.md §14).  [infinity] stays [infinity]. *)
  fs.(1) <- cutoff *. (1. +. (float_of_int (4 * (n + 2)) *. epsilon_float));
  ia.finished <- 0;
  ia.limited <- 0;
  ia.rejected <- false;
  fa.mk <- 0.;
  while ia.hsize > 0 && not ia.rejected do
    (* pop the highest-priority ready task *)
    let v = hids.(0) in
    ia.hsize <- ia.hsize - 1;
    if ia.hsize > 0 then begin
      hprio.(0) <- hprio.(ia.hsize);
      hids.(0) <- hids.(ia.hsize);
      heap_down hprio hids ia.hsize 0
    end;
    order.(ia.finished) <- v;
    let s = alloc.(v) in
    (* the s-th smallest availability: walk the runs from the front *)
    let k = ref ia.rh and c = ref rc.(ia.rh) in
    while !c < s do
      k := (!k + 1) land mask;
      c := !c + rc.(!k)
    done;
    ia.claim_runs <- ia.claim_runs + ((!k - ia.rh) land mask) + 1;
    let a = rv.(!k) in
    let dr = data_ready.(v) in
    (* start = [Float.max dr a] (no NaN here, and [dr >= 0] so the sign
       of a zero [a] is irrelevant — see the module header).  The start,
       then the finish, live in [fs.(0)], not a let — the finish is read
       inside the nested loop below, which would box a let-bound float
       once per scheduling step. *)
    if dr >= a then fs.(0) <- dr
    else begin
      fs.(0) <- a;
      ia.limited <- ia.limited + 1
    end;
    if fs.(0) +. bl.(v) > fs.(1) then ia.rejected <- true
    else begin
      fs.(0) <- fs.(0) +. times.(v);
      if fs.(0) > cutoff then ia.rejected <- true
      else begin
        claim rv rc mask ia s !k !c fs;
        if fs.(0) > fa.mk then fa.mk <- fs.(0);
        ia.finished <- ia.finished + 1;
        (* release successors (at pop, not finish) *)
        let succs = Graph.succs graph v in
        let ns = Array.length succs in
        for j = 0 to ns - 1 do
          let w = succs.(j) in
          if fs.(0) > data_ready.(w) then data_ready.(w) <- fs.(0);
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then heap_push hprio hids ia prio w
        done
      end
    end
  done

let flush_metrics ~scheduled ~claim_runs ~rejected =
  if Emts_obs.Metrics.enabled () then begin
    Emts_obs.Metrics.incr m_full;
    if scheduled > 0 then Emts_obs.Metrics.add m_scheduled scheduled;
    if claim_runs > 0 then Emts_obs.Metrics.add m_claim_runs claim_runs;
    if rejected then Emts_obs.Metrics.incr m_rejections
  end

let makespan t ?(release = no_floats) ?(avail0 = no_floats) ~graph ~tables
    ~procs ~alloc ~cutoff () =
  (match t.graph with
  | Some g
    when g == graph && t.tables == tables && t.procs = procs
         && t.release == release && t.avail0 == avail0 ->
    ()
  | _ ->
    if Array.length tables <> Graph.task_count graph then
      invalid_arg "Evaluator: tables length does not match task count";
    rebind t ~graph ~tables ~procs ~release ~avail0);
  let n = t.n in
  if Array.length alloc <> n then
    invalid_arg "Evaluator: allocation length does not match task count";
  if cutoff <> cutoff then invalid_arg "Evaluator: cutoff is NaN";
  let times = t.times and tables = t.tables in
  (* Execution times + input validation (the checks of
     [Allocation.times_of_tables] and of [list_run] below). *)
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
  bottom_levels t graph;
  t.full_runs <- t.full_runs + 1;
  kernel t ~graph ~alloc ~prio:t.bl ~cutoff;
  let ia = t.ia in
  t.scheduled_steps <- t.scheduled_steps + ia.finished;
  flush_metrics ~scheduled:ia.finished ~claim_runs:ia.claim_runs
    ~rejected:ia.rejected;
  t.last_rejected <- ia.rejected;
  if ia.rejected then infinity
  else if ia.finished <> n then
    (* Unreachable for a validated DAG; defensive. *)
    invalid_arg "Evaluator: not all tasks were scheduled"
  else t.fa.mk

(* A full run over the caller's times on fresh scratch: never the EA's
   domain-local evaluator, whose owner may be mid-call on this domain
   (the daemon plans online sessions on connection reader threads). *)
let list_run ?(release = no_floats) ?(avail0 = no_floats) ?prio ~graph ~times
    ~alloc ~procs () =
  let t = create () in
  rebind t ~graph ~tables:[||] ~procs ~release ~avail0;
  let n = t.n in
  if Array.length times <> n then
    invalid_arg "Evaluator: times length does not match task count";
  if Array.length alloc <> n then
    invalid_arg "Evaluator: allocation length does not match task count";
  Array.iteri
    (fun v s ->
      if s < 1 || s > procs then
        invalid_arg
          (Printf.sprintf "Evaluator: task %d allocated %d procs (1..%d)" v s
             procs);
      if Float.is_nan times.(v) || times.(v) < 0. then
        invalid_arg
          (Printf.sprintf "Evaluator: task %d has invalid time %g" v times.(v));
      t.times.(v) <- times.(v))
    alloc;
  bottom_levels t graph;
  kernel t ~graph ~alloc ~prio:(Option.value prio ~default:t.bl)
    ~cutoff:infinity;
  if t.ia.finished <> n then
    (* Unreachable for a validated DAG; defensive. *)
    invalid_arg "Evaluator: not all tasks were scheduled";
  if Emts_obs.Metrics.enabled () then begin
    if release == no_floats && avail0 == no_floats then begin
      Emts_obs.Metrics.incr m_runs;
      Emts_obs.Metrics.add m_tasks n;
      Emts_obs.Metrics.add m_ready_pushes n;
      Emts_obs.Metrics.add m_ready_pops n;
      Emts_obs.Metrics.add m_proc_limited t.ia.limited
    end
    else begin
      Emts_obs.Metrics.incr m_online_runs;
      Emts_obs.Metrics.add m_online_tasks n
    end
  end;
  t

let makespan_of_times ?release ?avail0 ?prio ~graph ~times ~alloc ~procs () =
  (list_run ?release ?avail0 ?prio ~graph ~times ~alloc ~procs ()).fa.mk

(* The record mode: [First_fit] replays the pop order.  Every task's
   data-ready time is final once it pops, and the kernel's finishes
   match the replay's bit for bit except in the sign of a zero, which
   no [>] update of [data_ready] sees, so [data_ready] is the replay's
   too.  The start is recomputed with [Float.max]: the kernel's own may
   be a zero of the other sign ([-0.] release, [+0.] availability). *)
let schedule_of_times ?release ?avail0 ?prio ~graph ~times ~alloc ~procs () =
  let t = list_run ?release ?avail0 ?prio ~graph ~times ~alloc ~procs () in
  let ff =
    First_fit.create
      (if t.avail0 == no_floats then Array.make procs 0.
       else Array.copy t.avail0)
  in
  let entries =
    Array.make t.n { Schedule.task = 0; start = 0.; finish = 0.; procs = [||] }
  in
  for k = 0 to t.n - 1 do
    let v = t.order.(k) in
    let s = alloc.(v) in
    let start = Float.max t.data_ready.(v) (First_fit.ready_at ff s) in
    let finish = start +. t.times.(v) in
    entries.(v) <-
      { Schedule.task = v; start; finish; procs = First_fit.claim ff s finish }
  done;
  Schedule.make ~platform_procs:procs entries
