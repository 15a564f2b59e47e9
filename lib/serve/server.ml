module J = Emts_resilience.Json
module Metrics = Emts_obs.Metrics
module Trace = Emts_obs.Trace
module Span = Emts_obs.Span

let server_id = "emts-serve 1.0.0"

(* Issue-mandated serving metrics; the serve.* prefix follows the
   repo's ea.* / pool.* convention. *)
let m_requests =
  Metrics.counter ~help:"schedule requests admitted" "serve.requests_total"
let m_rejected =
  Metrics.counter ~help:"requests rejected at admission (overloaded/draining)"
    "serve.rejected_total"
let m_errors =
  Metrics.counter ~help:"requests answered with an error response"
    "serve.errors_total"
let m_malformed =
  Metrics.counter ~help:"frames with broken framing or over the size cap"
    "serve.frames_malformed"
let m_disconnects =
  Metrics.counter ~help:"clients that vanished before their reply"
    "serve.client_disconnects"
let m_connections =
  Metrics.counter ~help:"connections accepted" "serve.connections_total"
let g_queue_depth =
  Metrics.gauge ~help:"jobs waiting in the admission queue"
    "serve.queue_depth"
let g_in_flight =
  Metrics.gauge ~help:"jobs currently being solved" "serve.in_flight"
let m_latency =
  Metrics.histogram ~help:"request latency, admission to reply (seconds)"
    "serve.latency_s"
let m_queue_wait =
  Metrics.histogram ~help:"admission-queue wait (seconds)"
    "serve.queue_wait_s"
let m_solve =
  Metrics.histogram ~help:"solve phase: parse + allocate + schedule (seconds)"
    "serve.solve_s"
let m_encode =
  Metrics.histogram ~help:"encode phase: serialise + write the reply (seconds)"
    "serve.encode_s"
let m_internal =
  Metrics.counter ~help:"worker exceptions answered with a typed internal error"
    "serve.internal_errors_total"
let m_respawns =
  Metrics.counter ~help:"worker engine lanes respawned after an exception"
    "serve.worker_respawns_total"
let m_shed =
  Metrics.counter
    ~help:"requests shed at admission because queue-wait p95 exceeded the budget"
    "serve.shed_total"
let m_watchdog =
  Metrics.counter
    ~help:"stuck requests answered deadline_exceeded by the watchdog"
    "serve.watchdog_fired_total"
let m_submits =
  Metrics.counter ~help:"online DAG submissions admitted"
    "serve.online.submits_total"
let m_advances =
  Metrics.counter ~help:"online advance requests served"
    "serve.online.advances_total"

type config = {
  socket : string option;
  tcp : (string * int) option;
  metrics_tcp : (string * int) option;
  workers : int;
  pool_domains : int;
  queue_capacity : int;
  max_frame : int;
  watchdog_grace : float;
  shed_budget : float option;
}

let default =
  {
    socket = None;
    tcp = None;
    metrics_tcp = None;
    workers = 2;
    pool_domains = 1;
    queue_capacity = 64;
    max_frame = Protocol.default_max_frame;
    watchdog_grace = 0.5;
    shed_budget = None;
  }

(* ------------------------------------------------------------------ *)
(* Connections.

   The reader thread owns the read side; replies (from the reader for
   ping/stats/errors, from worker domains for schedule results) are
   serialised by [wmutex].  The fd is closed only once the reader is
   done AND no admitted job still owes a reply, so a worker can never
   write into a recycled descriptor. *)

type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  mutable alive : bool;  (* a write failed; skip further writes *)
  mutable pending : int;  (* admitted jobs that will reply via a worker *)
  mutable reader_done : bool;
}

let conn_make fd = { fd; wmutex = Mutex.create (); alive = true;
                     pending = 0; reader_done = false }

let close_if_done_locked c =
  if c.reader_done && c.pending = 0 then
    try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send a response frame; a dead peer is counted, not fatal.
   [finish] marks one admitted job as replied. *)
let send ?(finish = false) c resp =
  Mutex.lock c.wmutex;
  (if c.alive then
     try
       (* Write-stall injection site.  Generated plans only delay here
          (a raising write would eat a reply and break the
          exactly-one-reply invariant unobservably), but a hand-written
          raise degrades to a counted disconnect, like a dead peer. *)
       Emts_fault.fire Emts_fault.Site.Sock_write;
       Protocol.write_frame c.fd (Protocol.Response.to_string resp)
     with Unix.Unix_error _ | Sys_error _ | Emts_fault.Injected _ ->
       c.alive <- false;
       Metrics.incr m_disconnects);
  if finish then begin
    c.pending <- c.pending - 1;
    close_if_done_locked c
  end;
  Mutex.unlock c.wmutex

let reader_finished c =
  Mutex.lock c.wmutex;
  c.reader_done <- true;
  close_if_done_locked c;
  Mutex.unlock c.wmutex

(* ------------------------------------------------------------------ *)
(* Bounded FIFO admission queue.

   Every worker pops the oldest job, so a backlog is answered in
   arrival order.  Backpressure is checked at admission: cap first,
   then the adaptive queue-wait-p95 shed. *)

type job = {
  id : J.t;
  req : Protocol.Request.schedule;
  conn : conn;
  arrival : float;  (* Clock.now at admission *)
  arrival_ns : int64;  (* same instant, for the retroactive queue span *)
  deadline : float option;  (* absolute, derived from deadline_s *)
  replied : bool Atomic.t;
      (* reply-once flag: the worker and the watchdog race to answer a
         deadline'd job; whoever wins the CAS sends the single reply
         (and the single [finish]), the loser stands down *)
  ctx : Span.ctx option;
      (* span context minted at admission: carries the client's
         trace_id (or a server-minted one when telemetry is on) from
         the reader thread into the worker domain *)
}

(* Why a job was refused at admission, with the backoff hint the
   shedding policy computed (if any). *)
type rejection = { rcode : string; retry_after_ms : int option; rmessage : string }

let wait_window = 64

type queue = {
  m : Mutex.t;
  nonempty : Condition.t;
  idle : Condition.t;
  jobs : job Queue.t;
  cap : int;
  shed_budget : float option;  (* queue-wait p95 budget; None = no shedding *)
  wait_ring : float array;  (* last [wait_window] queue-wait samples *)
  mutable wait_idx : int;
  mutable wait_count : int;
  mutable draining : bool;  (* no new admissions *)
  mutable closed : bool;  (* workers may exit when empty *)
  mutable in_flight : int;
}

let queue_make ?shed_budget cap =
  {
    m = Mutex.create ();
    nonempty = Condition.create ();
    idle = Condition.create ();
    jobs = Queue.create ();
    cap;
    shed_budget;
    wait_ring = Array.make wait_window 0.;
    wait_idx = 0;
    wait_count = 0;
    draining = false;
    closed = false;
    in_flight = 0;
  }

(* Callers hold [q.m]. *)
let set_depth_locked q =
  Metrics.set_gauge g_queue_depth (float_of_int (Queue.length q.jobs))

(* Callers hold [q.m]. *)
let record_wait_locked q w =
  q.wait_ring.(q.wait_idx) <- w;
  q.wait_idx <- (q.wait_idx + 1) mod wait_window;
  if q.wait_count < wait_window then q.wait_count <- q.wait_count + 1

let wait_p95_locked q =
  if q.wait_count = 0 then 0.
  else begin
    let a = Array.sub q.wait_ring 0 q.wait_count in
    Array.sort Float.compare a;
    a.(min (q.wait_count - 1)
         (int_of_float (Float.round (0.95 *. float_of_int (q.wait_count - 1)))))
  end

let retry_hint_locked q =
  if q.wait_count = 0 then None
  else
    Some (max 10 (min 5000 (int_of_float (ceil (wait_p95_locked q *. 1000.)))))

let queue_draining q =
  Mutex.lock q.m;
  let d = q.draining in
  Mutex.unlock q.m;
  d

let enqueue q job =
  Mutex.lock q.m;
  let r =
    if q.draining then
      Error
        {
          rcode = Protocol.Error_code.draining;
          retry_after_ms = None;
          rmessage = "server is draining; no new work accepted";
        }
    else if Queue.length q.jobs >= q.cap then
      Error
        {
          rcode = Protocol.Error_code.overloaded;
          retry_after_ms = retry_hint_locked q;
          rmessage = "admission queue full; retry later";
        }
    else
      match q.shed_budget with
      | Some budget
        when q.wait_count >= 8
             && (not (Queue.is_empty q.jobs))
             && wait_p95_locked q > budget
        ->
        (* Adaptive shedding: recent jobs waited longer than the budget
           and the queue is non-empty, so admitting more work only
           queues it into certain death.  Circuit-break now with an
           honest backoff hint instead. *)
        Metrics.incr m_shed;
        Error
          {
            rcode = Protocol.Error_code.overloaded;
            retry_after_ms = retry_hint_locked q;
            rmessage =
              "shedding load: observed queue-wait p95 exceeds the budget; \
               retry after retry_after_ms";
          }
      | _ ->
        Queue.push job q.jobs;
        set_depth_locked q;
        Condition.signal q.nonempty;
        Ok ()
  in
  Mutex.unlock q.m;
  r

let take q =
  Mutex.lock q.m;
  while Queue.is_empty q.jobs && not q.closed do
    Condition.wait q.nonempty q.m
  done;
  let r = Queue.take_opt q.jobs in
  Option.iter
    (fun job ->
      q.in_flight <- q.in_flight + 1;
      record_wait_locked q (Emts_obs.Clock.now () -. job.arrival);
      set_depth_locked q;
      Metrics.set_gauge g_in_flight (float_of_int q.in_flight))
    r;
  Mutex.unlock q.m;
  r

let job_done q =
  Mutex.lock q.m;
  q.in_flight <- q.in_flight - 1;
  Metrics.set_gauge g_in_flight (float_of_int q.in_flight);
  if q.in_flight = 0 && Queue.is_empty q.jobs then Condition.broadcast q.idle;
  Mutex.unlock q.m

(* Stop admitting, wait for every admitted job to be answered, then
   release the workers. *)
let drain q =
  Mutex.lock q.m;
  q.draining <- true;
  while not (Queue.is_empty q.jobs && q.in_flight = 0) do
    Condition.wait q.idle q.m
  done;
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Mutex.unlock q.m

(* ------------------------------------------------------------------ *)
(* Per-request watchdog.

   Jobs with a deadline are registered at admission; a dedicated
   systhread sweeps the registry a few times per second and answers any
   job still unreplied [grace] seconds past its deadline with a typed
   [deadline_exceeded] error.  The EA already polls the deadline at
   generation boundaries and returns best-so-far — the watchdog covers
   what that polling cannot: a solve stuck inside one evaluation (or a
   fault-injected stall), and a job stranded in the queue.  The worker
   keeps running to completion (its eventual reply loses the
   [replied] CAS and is dropped), so the drain still waits for it. *)

type watchdog = {
  wd_m : Mutex.t;
  grace : float;
  mutable watched : job list;
  wd_stop : bool Atomic.t;
}

let watchdog_make ~grace =
  { wd_m = Mutex.create (); grace; watched = []; wd_stop = Atomic.make false }

let watchdog_watch wd job =
  match job.deadline with
  | None -> ()
  | Some _ ->
    Mutex.lock wd.wd_m;
    wd.watched <- job :: wd.watched;
    Mutex.unlock wd.wd_m

let watchdog_sweep wd =
  let now = Emts_obs.Clock.now () in
  Mutex.lock wd.wd_m;
  let expired, live =
    List.partition
      (fun j ->
        match j.deadline with
        | Some d -> now > d +. wd.grace
        | None -> false)
      wd.watched
  in
  wd.watched <- List.filter (fun j -> not (Atomic.get j.replied)) live;
  Mutex.unlock wd.wd_m;
  List.iter
    (fun j ->
      if Atomic.compare_and_set j.replied false true then begin
        Metrics.incr m_watchdog;
        Metrics.incr m_errors;
        send ~finish:true j.conn
          (Protocol.Response.Error
             {
               id = j.id;
               code = Protocol.Error_code.deadline_exceeded;
               message =
                 "deadline exceeded and the solve has not completed; \
                  answered by the watchdog";
               retry_after_ms = None;
             })
      end)
    expired

let watchdog_loop wd () =
  while not (Atomic.get wd.wd_stop) do
    watchdog_sweep wd;
    Thread.delay 0.05
  done

(* ------------------------------------------------------------------ *)
(* Workers *)

let stats_json () =
  match J.of_string (Metrics.to_json ()) with
  | Ok j -> j
  | Error _ -> J.Obj []

(* The reply side of the worker/watchdog race: only the CAS winner
   writes (and [finish]es) — a watchdog-answered job's late result is
   dropped silently. *)
let reply_once job resp =
  if Atomic.compare_and_set job.replied false true then begin
    send ~finish:true job.conn resp;
    true
  end
  else false

let worker_loop q ~pool_domains ~migrants () =
  (* The engine is a lane-local resource behind a ref so a crashed lane
     can be respawned in place: after a worker exception we cannot
     prove the pool domains and evaluator scratch are in a sane state,
     so the whole engine is torn down and rebuilt.  The migrant buffer
     is shared and survives the respawn. *)
  let engine = ref (Engine.create ~pool_domains ~migrants ()) in
  let rec loop () =
    (* Queue-poll injection site: a delayed poll starves the queue and
       drives queue-wait up, which is what the shedding policy must
       react to.  Only delays are meaningful here, so anything a
       hand-written plan raises is swallowed rather than allowed to
       kill the worker domain. *)
    (try Emts_fault.fire Emts_fault.Site.Queue_poll with _ -> ());
    match take q with
    | None -> Engine.shutdown !engine
    | Some job ->
      (* The worker domain owns its ambient span slot, so the job's
         context rides along into Engine.handle -> Emts_ea.run ->
         Emts_pool workers without any signature plumbing. *)
      Span.with_ctx job.ctx (fun () ->
          let started = Emts_obs.Clock.now () in
          Metrics.observe m_queue_wait (started -. job.arrival);
          Trace.complete ~start_ns:job.arrival_ns "serve.queue_wait";
          (match
             Trace.span "serve.solve" (fun () ->
                 Engine.handle !engine job.req ~deadline:job.deadline)
           with
          | Ok o ->
            let solved = Emts_obs.Clock.now () in
            Metrics.observe m_solve (solved -. started);
            let encode_start = Emts_obs.Clock.now_ns () in
            let sent =
              Trace.span "serve.encode" (fun () ->
                  reply_once job
                    (Protocol.Response.Schedule_result
                       {
                         id = job.id;
                         algorithm = o.Engine.algorithm;
                         makespan = o.Engine.makespan;
                         alloc = o.Engine.alloc;
                         tasks = o.Engine.tasks;
                         procs = o.Engine.procs;
                         utilization = o.Engine.utilization;
                         platform = o.Engine.platform;
                         queue_s = started -. job.arrival;
                         solve_s = solved -. started;
                         total_s = solved -. job.arrival;
                         deadline_hit = o.Engine.deadline_hit;
                         generations_done = o.Engine.generations_done;
                         evaluations = o.Engine.evaluations;
                         trace_id =
                           Option.map (fun c -> c.Span.trace_id) job.ctx;
                       }))
            in
            if sent then begin
              let finished = Emts_obs.Clock.now () in
              Metrics.observe m_encode
                (Int64.to_float
                   (Int64.sub (Emts_obs.Clock.now_ns ()) encode_start)
                *. 1e-9);
              Metrics.observe m_latency (finished -. job.arrival);
              (* A deadline-expired best-so-far reply often precedes an
                 operator killing the daemon: make sure its spans are on
                 disk, not in a stdio buffer. *)
              if o.Engine.deadline_hit then Trace.flush ()
            end
          | Error message ->
            Metrics.incr m_errors;
            ignore
              (reply_once job
                 (Protocol.Response.Error
                    {
                      id = job.id;
                      code = Protocol.Error_code.bad_request;
                      message;
                      retry_after_ms = None;
                    }))
          | exception e ->
            (* Crash isolation: one request's exception becomes one
               typed reply; the lane respawns; the daemon and every
               other connection keep serving. *)
            let bt = Printexc.get_raw_backtrace () in
            Metrics.incr m_errors;
            Metrics.incr m_internal;
            if Emts_obs.Flight.enabled () then
              Emts_obs.Flight.record
                (J.to_string
                   (J.Obj
                      [
                        ("name", J.Str "serve.worker_exception");
                        ("exn", J.Str (Printexc.to_string e));
                        ( "backtrace",
                          J.Str (Printexc.raw_backtrace_to_string bt) );
                      ]));
            ignore
              (reply_once job
                 (Protocol.Response.Error
                    {
                      id = job.id;
                      code = Protocol.Error_code.internal;
                      message = Printexc.to_string e;
                      retry_after_ms = None;
                    }));
            (try Engine.shutdown !engine with _ -> ());
            engine := Engine.create ~pool_domains ~migrants ();
            Metrics.incr m_respawns));
      job_done q;
      loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Connection readers *)

let handle_conn q wd ~max_frame ~migrants ~online conn =
  let error ?(finish = false) ?retry_after_ms id code message =
    send ~finish conn
      (Protocol.Response.Error { id; code; message; retry_after_ms })
  in
  (* Online verbs run on the reader thread: sessions are stateful and
     serialised behind a per-session mutex anyway, so queueing them
     behind the offline schedule jobs would buy nothing — and [advance]
     must keep working through a drain. *)
  let handle_submit id ~session ~ptg ~at ~platform ~model ~algorithm ~seed
      ~islands ~migration_interval ~migration_count =
    let ( let* ) = Result.bind in
    let outcome =
      let* graph =
        Result.map_error (fun m -> "ptg: " ^ m) (Emts_ptg.Serial.of_string ptg)
      in
      let* () =
        if Emts_ptg.Graph.task_count graph = 0 then Error "ptg: empty graph"
        else Ok ()
      in
      let* platform = Engine.resolve_platform platform in
      let* model = Engine.resolve_model model in
      let* replanner =
        match Online.replanner_of_string algorithm with
        | Some r -> Ok r
        | None ->
          Error
            (Printf.sprintf
               "unknown online algorithm %S (try baseline, emts1, emts5, \
                emts10)"
               algorithm)
      in
      let create () =
        Online.create
          (Online.config ~replanner ~seed ~islands ~migration_interval
             ~migration_count ~platform ~model ())
      in
      let* r =
        Online.Registry.with_session online ~name:session ~create (fun s ->
            Result.map
              (fun (dag, _report) ->
                (dag, Online.task_count s, Online.now s, Online.replans s))
              (Online.submit s ~graph ~at))
      in
      r
    in
    match outcome with
    | Error message ->
      Metrics.incr m_errors;
      error id Protocol.Error_code.bad_request message
    | Ok (dag, tasks, now, replans) ->
      Metrics.incr m_submits;
      send conn
        (Protocol.Response.Submit_result { id; session; dag; tasks; now; replans })
  in
  let handle_advance id ~session ~to_ =
    match
      Online.Registry.with_existing online ~name:session (fun s ->
          Result.map
            (fun (r : Online.advance_report) -> (r, Online.clairvoyant_bound s))
            (Online.advance ?to_ s))
    with
    | Error message | Ok (Error message) ->
      Metrics.incr m_errors;
      error id Protocol.Error_code.bad_request message
    | Ok (Ok (r, bound)) ->
      Metrics.incr m_advances;
      send conn
        (Protocol.Response.Advance_result
           {
             id;
             session;
             now = r.Online.now;
             committed = r.Online.committed;
             drifts = r.Online.drifts;
             replans = r.Online.replans;
             complete = r.Online.complete;
             makespan = r.Online.makespan;
             bound;
           })
  in
  let rec loop () =
    (* Read-side injection site: a delay stalls this reader only; a
       hangup raises and lands in the catch-all below, closing this
       connection exactly like a vanished peer — admitted jobs still
       reply first because the fd closes only at pending = 0. *)
    Emts_fault.fire Emts_fault.Site.Sock_read;
    match Protocol.read_frame conn.fd ~max_size:max_frame with
    | Error Protocol.Closed -> ()
    | Error e ->
      (* Framing is broken (or the cap was exceeded before the payload
         was read): answer best-effort and stop reading — the stream
         position is unrecoverable.  Other connections are unaffected. *)
      Metrics.incr m_malformed;
      let code =
        match e with
        | Protocol.Too_large _ -> Protocol.Error_code.too_large
        | _ -> Protocol.Error_code.malformed_frame
      in
      error J.Null code (Protocol.frame_error_to_string e)
    | Ok payload -> (
      match Protocol.Request.of_string payload with
      | Error message ->
        (* The frame itself was sound, so the stream stays in sync:
           reject the payload and keep serving this client. *)
        Metrics.incr m_errors;
        error J.Null Protocol.Error_code.bad_request message;
        loop ()
      | Ok (Protocol.Request.Ping { id }) ->
        send conn (Protocol.Response.Pong { id; server = server_id });
        loop ()
      | Ok (Protocol.Request.Stats { id }) ->
        send conn (Protocol.Response.Stats { id; stats = stats_json () });
        loop ()
      | Ok (Protocol.Request.Metrics { id }) ->
        send conn
          (Protocol.Response.Metrics
             { id; body = Metrics.render_openmetrics () });
        loop ()
      | Ok (Protocol.Request.Health { id }) ->
        (* Answered by the reader so health stays responsive when the
           queue is saturated; [draining] comes straight from the
           admission queue, which is what decides it. *)
        let draining = queue_draining q in
        send conn
          (Protocol.Response.Health
             { id; live = true; ready = not draining; draining;
               backends_live = None });
        loop ()
      | Ok
          (Protocol.Request.Migrate
             { id; ptg; platform; model; migrants = vectors }) ->
        (* Fleet gossip: buffer and acknowledge from the reader thread
           — cheap (no solve), and the ack must not wait behind the
           admission queue. *)
        let accepted =
          Engine.offer_migrants migrants ~ptg ~platform ~model vectors
        in
        send conn (Protocol.Response.Migrate_ack { id; accepted });
        loop ()
      | Ok
          (Protocol.Request.Submit
             { id; session; ptg; at; platform; model; algorithm; seed;
               islands; migration_interval; migration_count }) ->
        (* Drain semantics: no new work is admitted — a draining daemon
           rejects submits with the same typed error as schedules — but
           [advance] below stays allowed so committed sessions finish. *)
        if queue_draining q then begin
          Metrics.incr m_rejected;
          error id Protocol.Error_code.draining
            "server is draining; no new work accepted"
        end
        else
          handle_submit id ~session ~ptg ~at ~platform ~model ~algorithm
            ~seed ~islands ~migration_interval ~migration_count;
        loop ()
      | Ok (Protocol.Request.Advance { id; session; to_ }) ->
        handle_advance id ~session ~to_;
        loop ()
      | Ok (Protocol.Request.Schedule { id; req }) ->
        Metrics.incr m_requests;
        let arrival = Emts_obs.Clock.now () in
        let arrival_ns = Emts_obs.Clock.now_ns () in
        let deadline = Option.map (fun d -> arrival +. d) req.deadline_s in
        (* A client-supplied trace id always gets a context (it must be
           echoed); otherwise mint one only when some telemetry sink
           wants it. *)
        let ctx =
          match req.trace_id with
          | Some t -> Some (Span.root ~trace_id:t)
          | None ->
            if Trace.active () || Emts_obs.Flight.enabled () then
              Some (Span.root ~trace_id:(Span.make_trace_id ()))
            else None
        in
        (* Reader threads share the accept domain, so the ambient slot
           is off-limits here: tag the admission marker explicitly. *)
        Option.iter (fun c -> Trace.instant ~ctx:c "serve.admit") ctx;
        (* Reserve the reply slot before the job becomes visible to
           workers so the fd cannot be closed under them. *)
        Mutex.lock conn.wmutex;
        conn.pending <- conn.pending + 1;
        Mutex.unlock conn.wmutex;
        let job =
          { id; req; conn; arrival; arrival_ns; deadline;
            replied = Atomic.make false; ctx }
        in
        (match enqueue q job with
        | Ok () ->
          (* Registered at admission, not when a worker takes it: a
             deadline that expires while the job is still queued must
             also produce a timely typed reply. *)
          watchdog_watch wd job
        | Error { rcode; retry_after_ms; rmessage } ->
          Metrics.incr m_rejected;
          error ~finish:true ?retry_after_ms id rcode rmessage);
        loop ())
  in
  (try loop () with _ -> ());
  reader_finished conn

(* ------------------------------------------------------------------ *)

let run ?(stop = Emts_resilience.Shutdown.requested) config =
  if config.workers < 1 then Error "workers must be >= 1"
  else if config.queue_capacity < 1 then Error "queue capacity must be >= 1"
  else if config.max_frame < 1 then Error "max frame size must be >= 1"
  else if not (config.watchdog_grace >= 0.) then
    Error "watchdog grace must be >= 0"
  else if
    match config.shed_budget with Some b -> not (b > 0.) | None -> false
  then Error "shed budget must be > 0"
  else if config.socket = None && config.tcp = None then
    Error "no listeners configured (set a socket path or a TCP address)"
  else begin
      let migrants = Engine.migrants () in
      (* A client that disconnects mid-reply must cost one failed
         write, not the process. *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ());
      Metrics.set_enabled true;
      match
        Endpoint.bind ~socket:config.socket ~tcp:config.tcp
          ~http:config.metrics_tcp
      with
      | Error _ as e -> e
      | Ok { Endpoint.frames; http } ->
        List.iter
          (fun (ep, _) ->
            Printf.eprintf "listening on %s%s\n%!"
              (match ep with Endpoint.Tcp _ -> "tcp:" | _ -> "")
              (Endpoint.to_string ep))
          frames;
        Option.iter
          (fun (host, port) ->
            Printf.eprintf "metrics on http://%s:%d/metrics\n%!" host port)
          config.metrics_tcp;
        let q =
          queue_make ?shed_budget:config.shed_budget config.queue_capacity
        in
        (* The HTTP thread outlives the accept loop on purpose:
           [/healthz] must report [draining] while admitted work is
           still being answered, so its shutdown condition is the
           [finished] flag set after the drain, not [stop]. *)
        let finished = Atomic.make false in
        let metrics_thread =
          Option.map
            (fun fd ->
              Thread.create
                (fun () ->
                  Metrics_http.loop
                    ~finished:(fun () -> Atomic.get finished)
                    ~draining:(fun () -> stop () || queue_draining q)
                    fd)
                ())
            http
        in
        let wd = watchdog_make ~grace:config.watchdog_grace in
        let watchdog_thread = Thread.create (watchdog_loop wd) () in
        let online = Online.Registry.create () in
        let workers =
          List.init config.workers (fun _ ->
              Domain.spawn
                (worker_loop q ~pool_domains:config.pool_domains ~migrants))
        in
        Endpoint.accept_loop ~stop (List.map snd frames) (fun fd ->
            Metrics.incr m_connections;
            let conn = conn_make fd in
            ignore
              (Thread.create
                 (fun () ->
                   handle_conn q wd ~max_frame:config.max_frame ~migrants
                     ~online conn)
                 ()));
        (* Shutdown: stop accepting, answer everything admitted
           (readers still running reject new work with [draining]),
           then release and join the workers.  The watchdog stays up
           through the drain so a stuck in-flight solve still turns
           into a typed reply. *)
        Endpoint.close_listeners frames;
        drain q;
        List.iter Domain.join workers;
        Atomic.set wd.wd_stop true;
        Thread.join watchdog_thread;
        Atomic.set finished true;
        Option.iter Thread.join metrics_thread;
        (* The drain answered its last jobs microseconds ago; without
           this, a SIGTERM exit could leave their spans in a stdio
           buffer and the trace file truncated mid-line. *)
        Trace.flush ();
        Ok ()
  end
