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

   {b Processors as values.}  A makespan depends only on the multiset
   of processor availabilities, never on which ids a task gets, so
   [avail] holds just the values, ascending: a task on [s] processors
   starts at [max dr avail.(s-1)], the s-th smallest value, whichever
   equal-valued processor supplies it.  Data-ready times are [>= 0], so
   a zero [avail.(s-1)] of either sign yields the start [dr].  The
   makespan is therefore bit-identical to that of the id-tracking
   schedule the record mode builds (DESIGN.md §14).

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
  (* per-candidate scratch *)
  mutable times : float array;
  mutable bl : float array;
  mutable indeg : int array;
  mutable data_ready : float array;
  mutable avail : float array;  (* processor availabilities, ascending *)
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
    avail_init = [||];
    n = 0;
    topo = [||];
    base_indeg = [||];
    times = [||];
    bl = [||];
    indeg = [||];
    data_ready = [||];
    avail = [||];
    hprio = [||];
    hids = [||];
    order = [||];
    fs = Array.make 2 0.;
    ia = { hsize = 0; finished = 0; limited = 0; rejected = false };
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
  if Array.length t.avail < procs then t.avail <- Array.make procs 0.

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
let kernel t ~graph ~procs ~alloc ~(prio : float array) ~cutoff =
  let n = t.n in
  let ia = t.ia and fa = t.fa in
  let times = t.times
  and bl = t.bl
  and indeg = t.indeg
  and base_indeg = t.base_indeg
  and data_ready = t.data_ready
  and avail = t.avail
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
  Array.blit t.avail_init 0 avail 0 procs;
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
    let a = avail.(s - 1) in
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
        claim avail procs s fs;
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

let flush_metrics ~scheduled ~rejected =
  if Emts_obs.Metrics.enabled () then begin
    Emts_obs.Metrics.incr m_full;
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
  kernel t ~graph ~procs ~alloc ~prio:t.bl ~cutoff;
  let ia = t.ia in
  t.scheduled_steps <- t.scheduled_steps + ia.finished;
  flush_metrics ~scheduled:ia.finished ~rejected:ia.rejected;
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
  kernel t ~graph ~procs ~alloc ~prio:(Option.value prio ~default:t.bl)
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
