let m_jobs = Emts_obs.Metrics.counter "pool.jobs"
let m_chunks = Emts_obs.Metrics.counter "pool.chunks"
let m_steals = Emts_obs.Metrics.counter "pool.steals"

(* One batch of work.  Workers claim [chunk]-sized index ranges through
   [next] (an atomic fetch-and-add), so load balances dynamically while
   every item index is processed exactly once — results written by index
   are identical to a sequential run.  [remaining] counts workers that
   have not yet finished the job; the last one to finish wakes the
   submitter.  The first exception (with its backtrace) is recorded in
   [failed]; later ones are dropped, and outstanding chunks are
   abandoned so the job quiesces quickly. *)
type job = {
  f : int -> unit;
  total : int;
  chunk : int;
  next : int Atomic.t;
  remaining : int Atomic.t;
  failed : (exn * Printexc.raw_backtrace) option Atomic.t;
  ctx : Emts_obs.Span.ctx option;
      (* the submitter's span context, installed in each worker domain
         for the duration of the job so worker-lane trace events carry
         the request's trace_id *)
}

type command = Idle | Job of job

type t = {
  requested : int;  (* the [domains] given to [create] *)
  mutex : Mutex.t;
  work_ready : Condition.t;  (* a new job was posted, or shutdown *)
  work_done : Condition.t;  (* some worker finished its share *)
  mutable command : command;  (* protected by [mutex] *)
  mutable epoch : int;  (* job sequence number, protected by [mutex] *)
  mutable alive : bool;  (* cleared once, by [shutdown] *)
  mutable shut : bool;  (* set by [shutdown] on the owner domain *)
  mutable workers : unit Domain.t array;
}

(* Claim and execute chunks until the index space is exhausted or some
   worker failed.  A worker's first claim is its fair share; every
   further claim means it outran a neighbour, which we count as a
   steal. *)
let execute ~tid job =
  (* Named per job, not per worker lifetime: deduplicated per trace
     sink, and a trace started mid-run still gets labelled lanes. *)
  Emts_obs.Trace.set_thread_name ~tid (Printf.sprintf "worker %d" tid);
  Emts_obs.Span.with_ctx job.ctx @@ fun () ->
  Emts_obs.Trace.span "pool.worker" ~tid
    ~args:[ ("tasks", Emts_obs.Trace.Int job.total) ]
  @@ fun () ->
  (* Hoisted so a disabled profiler costs nothing per item (no closure,
     one atomic load per job). *)
  let gc = Emts_obs.Gcprof.enabled () in
  let claimed = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if Atomic.get job.failed <> None then continue_ := false
    else
      (* The exception barrier covers the claim step too, not just the
         item loop: a raise between the fetch-and-add and the loop
         (fault injection, or any future bookkeeping) must land in
         [job.failed] like an item failure — otherwise the claimed
         chunk is silently leaked and the exception kills the worker
         domain, stranding [shutdown]'s join-all. *)
      try
        Emts_fault.fire Emts_fault.Site.Pool_claim;
        let lo = Atomic.fetch_and_add job.next job.chunk in
        if lo >= job.total then continue_ := false
        else begin
          incr claimed;
          Emts_obs.Metrics.incr m_chunks;
          if !claimed > 1 then Emts_obs.Metrics.incr m_steals;
          let hi = min job.total (lo + job.chunk) in
          for i = lo to hi - 1 do
            Emts_fault.fire Emts_fault.Site.Worker_eval;
            if gc then Emts_obs.Gcprof.measure ~lane:tid (fun () -> job.f i)
            else job.f i
          done
        end
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set job.failed None (Some (e, bt)))
  done

let worker t slot =
  let tid = slot + 1 in
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.alive && t.epoch = !seen do
      Condition.wait t.work_ready t.mutex
    done;
    if not t.alive then begin
      running := false;
      Mutex.unlock t.mutex
    end
    else begin
      seen := t.epoch;
      let job = match t.command with Job j -> Some j | Idle -> None in
      Mutex.unlock t.mutex;
      match job with
      | None -> ()
      | Some j ->
        (* [execute] cannot raise: item and claim exceptions land in
           [j.failed], so a worker never dies before shutdown.  The
           belt-and-braces handler keeps even an unforeseen escape from
           stranding the [remaining] decrement below — [run] would spin
           on [work_done] forever. *)
        (try execute ~tid j
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           ignore (Atomic.compare_and_set j.failed None (Some (e, bt))));
        if Atomic.fetch_and_add j.remaining (-1) = 1 then begin
          Mutex.lock t.mutex;
          Condition.broadcast t.work_done;
          Mutex.unlock t.mutex
        end
    end
  done

let create ~domains =
  if domains < 1 then invalid_arg "Emts_pool.create: domains must be >= 1";
  let t =
    {
      requested = domains;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      command = Idle;
      epoch = 0;
      alive = true;
      shut = false;
      workers = [||];
    }
  in
  if domains > 1 then
    t.workers <- Array.init domains (fun slot -> Domain.spawn (fun () -> worker t slot));
  t

let domains t = t.requested

let run t ~n f =
  if n < 0 then invalid_arg "Emts_pool.run: n must be >= 0";
  if t.shut then invalid_arg "Emts_pool.run: pool is shut down";
  let workers = Array.length t.workers in
  if workers = 0 || n < 2 then begin
    let gc = Emts_obs.Gcprof.enabled () in
    for i = 0 to n - 1 do
      (* Inline evaluations hit the same injection site as pooled ones,
         so a chaos plan behaves identically at pool_domains = 1 (the
         serve default); the exception simply propagates to the caller
         instead of riding through [job.failed]. *)
      Emts_fault.fire Emts_fault.Site.Worker_eval;
      if gc then Emts_obs.Gcprof.measure ~lane:0 (fun () -> f i) else f i
    done
  end
  else begin
    (* Chunks several times smaller than a fair share, so stragglers
       (fitness costs vary with the genome) get rebalanced. *)
    let chunk = max 1 (n / (8 * workers)) in
    let job =
      {
        f;
        total = n;
        chunk;
        next = Atomic.make 0;
        remaining = Atomic.make workers;
        failed = Atomic.make None;
        ctx = Emts_obs.Span.current ();
      }
    in
    Emts_obs.Metrics.incr m_jobs;
    Mutex.lock t.mutex;
    t.command <- Job job;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work_ready;
    (* Every worker decrements [remaining] exactly once per job (even if
       it claimed nothing), so 0 means the whole pool is quiescent. *)
    while Atomic.get job.remaining > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.command <- Idle;
    Mutex.unlock t.mutex;
    match Atomic.get job.failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Mutex.lock t.mutex;
    t.alive <- false;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* Join ALL workers before re-raising anything: a worker that
       terminated abnormally must not leak the others. *)
    let first = ref None in
    Array.iter
      (fun d ->
        match Domain.join d with
        | () -> ()
        | exception e -> if !first = None then first := Some e)
      t.workers;
    t.workers <- [||];
    match !first with Some e -> raise e | None -> ()
  end

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

module Local = struct
  (* Thin wrapper over [Domain.DLS]: one value per (key, domain) pair,
     created lazily by the key's init function on first access from each
     domain.  Keys must be created at toplevel — a DLS slot is never
     reclaimed, so a key per run would leak slots.  Values persist for
     the lifetime of the domain: a pool worker keeps its scratch across
     jobs, runs and (in the serving layer) requests, which is exactly
     the cross-request reuse the evaluator scratch wants. *)
  type 'a key = 'a Domain.DLS.key

  let key init = Domain.DLS.new_key init
  let get k = Domain.DLS.get k
end
