module Clock = struct
  let now_ns = Monotonic_clock.now
  let now () = Int64.to_float (now_ns ()) *. 1e-9
  let elapsed ~since = now () -. since
end

(* ------------------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON floats: a bare %g can print "inf"/"nan", which is not JSON.
   NaN (an absent measurement, e.g. a quantile of an empty histogram)
   becomes [null]; infinities keep a parseable string encoding. *)
let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else if Float.is_nan x then "null"
  else if x > 0. then "\"inf\""
  else "\"-inf\""

(* ------------------------------------------------------------------ *)

module Span = struct
  type ctx = { trace_id : string; parent : int }

  (* Span ids only label trace events, so a plain process-global counter
     is enough; crucially they never come from Emts_prng, which keeps
     the whole layer observer-only. *)
  let next_span_id = Atomic.make 1
  let fresh_id () = Atomic.fetch_and_add next_span_id 1

  (* Trace ids must be unique across the client and server processes
     whose traces get merged into one file.  The monotonic clock at
     module initialisation differs between processes; no PRNG, no
     [Unix.getpid] dependency. *)
  let boot_ns = Clock.now_ns ()
  let next_trace = Atomic.make 0

  let make_trace_id () =
    let n = Atomic.fetch_and_add next_trace 1 in
    Printf.sprintf "t%Lx-%x" boot_ns n

  let max_trace_id_len = 64

  let valid_trace_id s =
    let n = String.length s in
    n >= 1 && n <= max_trace_id_len
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
           | _ -> false)
         s

  (* Ambient context is domain-local: worker domains each carry the
     context of the request they are serving.  Threads sharing a domain
     (connection readers, loadgen firers) must pass [?ctx] explicitly to
     the Trace entry points instead. *)
  let key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
  let current () = Domain.DLS.get key
  let set_current c = Domain.DLS.set key c
  let current_trace_id () = Option.map (fun c -> c.trace_id) (current ())

  let with_ctx c f =
    let old = current () in
    set_current c;
    Fun.protect f ~finally:(fun () -> set_current old)

  let root ~trace_id = { trace_id; parent = 0 }
  let child c ~parent = { c with parent }
  let with_trace ~trace_id f = with_ctx (Some (root ~trace_id)) f
end

(* ------------------------------------------------------------------ *)

module Flight = struct
  let enabled_flag = Atomic.make false
  let enabled () = Atomic.get enabled_flag

  let lock = Mutex.create ()
  let ring = ref [||]
  let head = ref 0 (* next write index *)
  let count = ref 0
  let dropped = ref 0 (* events overwritten since configure *)
  let snapshot : (unit -> string) ref = ref (fun () -> "{}")
  let set_snapshot f = snapshot := f

  let configure ?(capacity = 1024) () =
    if capacity < 1 then
      invalid_arg "Emts_obs.Flight.configure: capacity must be >= 1";
    Mutex.lock lock;
    ring := Array.make capacity "";
    head := 0;
    count := 0;
    dropped := 0;
    Mutex.unlock lock;
    Atomic.set enabled_flag true

  let disable () = Atomic.set enabled_flag false

  let record line =
    if enabled () then begin
      Mutex.lock lock;
      let r = !ring in
      let cap = Array.length r in
      if cap > 0 then begin
        r.(!head) <- line;
        head := (!head + 1) mod cap;
        if !count < cap then incr count else incr dropped
      end;
      Mutex.unlock lock
    end

  (* Oldest-first snapshot of the ring.  Runs inside signal handlers
     and crash hooks, where some thread may hold [lock]: fall back to a
     lock-free read rather than deadlocking — a possibly-torn event
     beats losing the whole dump. *)
  let snapshot_events () =
    let locked = Mutex.try_lock lock in
    let r = !ring in
    let cap = Array.length r in
    let n = min !count cap in
    let start = if cap = 0 then 0 else ((!head - n) mod cap + cap) mod cap in
    let events =
      List.init n (fun i -> r.((start + i) mod cap))
    in
    let seen_dropped = !dropped in
    if locked then Mutex.unlock lock;
    (events, seen_dropped)

  let dump ~path =
    let events, seen_dropped = snapshot_events () in
    let metrics = String.trim (!snapshot ()) in
    match
      Emts_resilience.write_file ~path (fun oc ->
          Printf.fprintf oc
            "{\"flight\":\"emts\",\"events\":%d,\"dropped\":%d,\"dumped_at_ns\":%Ld}\n"
            (List.length events) seen_dropped (Clock.now_ns ());
          List.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n')
            events;
          Printf.fprintf oc "{\"metrics\":%s}\n" metrics)
    with
    | () -> Ok ()
    | exception Sys_error m -> Error m

  let dump_note ~path =
    match dump ~path with
    | Ok () -> Printf.eprintf "[obs] flight recorder dumped to %s\n%!" path
    | Error m ->
      Printf.eprintf "[obs] flight recorder dump failed: %s\n%!" m

  let install ?capacity ~path () =
    if not (enabled ()) then configure ?capacity ();
    (* SIGQUIT dumps and keeps running: a postmortem probe for wedged
       daemons, JVM-style.  Missing SIGQUIT (e.g. non-Unix) is not an
       error. *)
    (try
       Sys.set_signal Sys.sigquit
         (Sys.Signal_handle (fun _ -> dump_note ~path))
     with Invalid_argument _ | Sys_error _ -> ());
    let previous = ref (fun e bt -> Printexc.default_uncaught_exception_handler e bt) in
    let handler e bt =
      dump_note ~path;
      !previous e bt
    in
    Printexc.set_uncaught_exception_handler handler
end

(* ------------------------------------------------------------------ *)

module Trace = struct
  type arg = Str of string | Int of int | Float of float

  type sink = { oc : out_channel; named_tids : (int, unit) Hashtbl.t }

  let active_flag = Atomic.make false
  let lock = Mutex.create ()
  let sink = ref None

  (* The pid stamped on every event.  Traces from different processes
     are merged by concatenation (daemon lanes + loadgen lanes in one
     Perfetto view), so each process claims a distinct pid via
     [start ?pid]. *)
  let proc_pid = Atomic.make 1

  let active () = Atomic.get active_flag
  let should_emit () = active () || Flight.enabled ()

  let self_tid () = (Domain.self () :> int)

  let buf_arg buf (key, v) =
    Buffer.add_string buf (Printf.sprintf "\"%s\":" (json_escape key));
    match v with
    | Str s -> Buffer.add_string buf (Printf.sprintf "\"%s\"" (json_escape s))
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (json_float f)

  let buf_args buf = function
    | [] -> ()
    | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          buf_arg buf a)
        args;
      Buffer.add_char buf '}'

  (* Timestamps are raw CLOCK_MONOTONIC microseconds, shared by every
     process on the machine — concatenated client + server traces line
     up on a common axis without clock negotiation. *)
  let ts_us_of ns = Int64.to_float ns /. 1e3
  let dur_us ~t_start ~t_end = Int64.to_float (Int64.sub t_end t_start) /. 1e3

  let render_line ~ts_us ~tid ~ph ~name ~extra ~args =
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "{\"ph\":\"%s\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f" ph
         (Atomic.get proc_pid) tid ts_us);
    Buffer.add_string buf extra;
    Buffer.add_string buf
      (Printf.sprintf ",\"cat\":\"emts\",\"name\":\"%s\"" (json_escape name));
    buf_args buf args;
    Buffer.add_char buf '}';
    Buffer.contents buf

  (* Must be called with [lock] held. *)
  let write_sink s line =
    output_string s.oc line;
    output_char s.oc '\n'

  (* Must be called with [lock] held: give the lane a stable, readable
     name the first time a thread id appears in the stream. *)
  let ensure_named s ~tid ~name =
    if not (Hashtbl.mem s.named_tids tid) then begin
      Hashtbl.add s.named_tids tid ();
      let name =
        match name with Some n -> n | None -> Printf.sprintf "domain %d" tid
      in
      write_sink s
        (render_line ~ts_us:0. ~tid ~ph:"M" ~name:"thread_name" ~extra:""
           ~args:[ ("name", Str name) ])
    end

  (* Render once, deliver to the live sink and the flight ring. *)
  let dispatch ?thread_name ~ts_us ~tid ~ph ~name ~extra ~args () =
    let line = render_line ~ts_us ~tid ~ph ~name ~extra ~args in
    Mutex.lock lock;
    (match !sink with
    | None -> ()
    | Some s ->
      ensure_named s ~tid ~name:thread_name;
      write_sink s line);
    Mutex.unlock lock;
    Flight.record line

  let emit ?thread_name ~tid ~ph ~name ~extra ~args () =
    dispatch ?thread_name ~ts_us:(ts_us_of (Clock.now_ns ())) ~tid ~ph ~name
      ~extra ~args ()

  let stop () =
    Mutex.lock lock;
    (match !sink with
    | None -> ()
    | Some s ->
      Atomic.set active_flag false;
      sink := None;
      close_out s.oc);
    Mutex.unlock lock

  let start ?(pid = 1) ?(process_name = "emts") ~path () =
    stop ();
    let oc = open_out path in
    (try
       Mutex.lock lock;
       Atomic.set proc_pid pid;
       sink := Some { oc; named_tids = Hashtbl.create 8 };
       Atomic.set active_flag true;
       Mutex.unlock lock
     with e ->
       close_out_noerr oc;
       raise e);
    emit ~tid:(self_tid ()) ~ph:"M" ~name:"process_name" ~extra:""
      ~args:[ ("name", Str process_name) ]
      ()

  let flush () =
    Mutex.lock lock;
    (match !sink with None -> () | Some s -> Stdlib.flush s.oc);
    Mutex.unlock lock

  let () = at_exit stop

  let set_thread_name ?tid name =
    if active () then begin
      let tid = match tid with Some t -> t | None -> self_tid () in
      Mutex.lock lock;
      (match !sink with
      | None -> ()
      | Some s -> ensure_named s ~tid ~name:(Some name));
      Mutex.unlock lock
    end

  (* Resolve the span context for an event: an explicit [?ctx] wins
     (threads sharing a domain), otherwise the domain's ambient one. *)
  let resolve_ctx = function
    | Some _ as c -> c
    | None -> Span.current ()

  let ctx_args c ~span_id =
    match c with
    | None -> []
    | Some c ->
      ("trace_id", Str c.Span.trace_id)
      :: (match span_id with None -> [] | Some id -> [ ("span_id", Int id) ])
      @ (if c.Span.parent <> 0 then [ ("parent_id", Int c.Span.parent) ]
         else [])

  let instant ?tid ?ctx ?(args = []) name =
    if should_emit () then begin
      let tid = match tid with Some t -> t | None -> self_tid () in
      let c = resolve_ctx ctx in
      emit ~tid ~ph:"i" ~name ~extra:",\"s\":\"t\""
        ~args:(args @ ctx_args c ~span_id:None)
        ()
    end

  let counter name values =
    if should_emit () then
      emit ~tid:(self_tid ()) ~ph:"C" ~name ~extra:""
        ~args:(List.map (fun (k, v) -> (k, Float v)) values)
        ()

  (* Retroactive span: the interval [start_ns, now] as one "X" event.
     Used where the start is only known in hindsight (queue wait is
     measured at dequeue time). *)
  let complete ?tid ?ctx ?(args = []) ~start_ns name =
    if should_emit () then begin
      let tid = match tid with Some t -> t | None -> self_tid () in
      let c = resolve_ctx ctx in
      let args =
        match c with
        | None -> args
        | Some _ -> args @ ctx_args c ~span_id:(Some (Span.fresh_id ()))
      in
      let t_end = Clock.now_ns () in
      dispatch ~ts_us:(ts_us_of start_ns) ~tid ~ph:"X" ~name
        ~extra:(Printf.sprintf ",\"dur\":%.3f" (dur_us ~t_start:start_ns ~t_end))
        ~args ()
    end

  let span ?tid ?ctx ?(args = []) name f =
    if not (should_emit ()) then f ()
    else begin
      let tid = match tid with Some t -> t | None -> self_tid () in
      let explicit = ctx <> None in
      let c = resolve_ctx ctx in
      let child, args =
        match c with
        | None -> (None, args)
        | Some c ->
          let id = Span.fresh_id () in
          ( Some (Span.child c ~parent:id),
            args @ ctx_args (Some c) ~span_id:(Some id) )
      in
      let t_start = Clock.now_ns () in
      let run () =
        (* Install the child context for ambient nesting — but only when
           the parent itself was ambient: an explicit [?ctx] means the
           caller is on a thread whose domain-local slot it does not
           own. *)
        match child with
        | Some _ when not explicit -> Span.with_ctx child f
        | _ -> f ()
      in
      Fun.protect run ~finally:(fun () ->
          let t_end = Clock.now_ns () in
          dispatch ~ts_us:(ts_us_of t_start) ~tid ~ph:"X" ~name
            ~extra:(Printf.sprintf ",\"dur\":%.3f" (dur_us ~t_start ~t_end))
            ~args ())
    end
end

(* ------------------------------------------------------------------ *)

module Metrics = struct
  let enabled_flag = Atomic.make false
  let set_enabled b = Atomic.set enabled_flag b
  let enabled () = Atomic.get enabled_flag

  type counter = { cname : string; count : int Atomic.t }
  type gauge = { gname : string; value : float Atomic.t }

  (* Geometric bucket width for quantile estimation: each bucket spans
     a ~4% relative range, so a reported percentile is within ~2% of
     the true value — plenty for latency reporting, with O(1) memory
     per distinct magnitude instead of a sample reservoir. *)
  let bucket_gamma = log 1.04

  type histogram = {
    hname : string;
    hlock : Mutex.t;
    mutable acc : Emts_stats.Acc.t;
    hbuckets : (int, int ref) Hashtbl.t;
        (* log-scale bucket index -> observation count, for x > 0 *)
    mutable hnonpos : int;  (* observations <= 0 (no log bucket) *)
  }

  type instrument = C of counter | G of gauge | H of histogram

  let registry : (string, instrument) Hashtbl.t = Hashtbl.create 32
  let help_texts : (string, string) Hashtbl.t = Hashtbl.create 32
  let registry_lock = Mutex.create ()

  let intern ?help name make classify =
    Mutex.lock registry_lock;
    (match help with
    | Some h when not (Hashtbl.mem help_texts name) ->
      Hashtbl.add help_texts name h
    | _ -> ());
    let r =
      match Hashtbl.find_opt registry name with
      | Some i -> classify i
      | None ->
        let i = make () in
        Hashtbl.add registry name i;
        classify i
    in
    Mutex.unlock registry_lock;
    match r with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf
           "Emts_obs.Metrics: instrument %S already registered with another \
            kind"
           name)

  let counter ?help name =
    intern ?help name
      (fun () -> C { cname = name; count = Atomic.make 0 })
      (function C c -> Some c | _ -> None)

  let gauge ?help name =
    intern ?help name
      (fun () -> G { gname = name; value = Atomic.make 0. })
      (function G g -> Some g | _ -> None)

  let histogram ?help name =
    intern ?help name
      (fun () ->
        H
          {
            hname = name;
            hlock = Mutex.create ();
            acc = Emts_stats.Acc.create ();
            hbuckets = Hashtbl.create 64;
            hnonpos = 0;
          })
      (function H h -> Some h | _ -> None)

  let add c n = if enabled () then ignore (Atomic.fetch_and_add c.count n)
  let incr c = add c 1
  let counter_value c = Atomic.get c.count
  let set_gauge g v = if enabled () then Atomic.set g.value v
  let gauge_value g = Atomic.get g.value

  let bucket_of x = int_of_float (Float.floor (Float.log x /. bucket_gamma))

  let observe h x =
    if enabled () then begin
      Mutex.lock h.hlock;
      Emts_stats.Acc.add h.acc x;
      if x > 0. && Float.is_finite x then begin
        let idx = bucket_of x in
        match Hashtbl.find_opt h.hbuckets idx with
        | Some r -> r := !r + 1
        | None -> Hashtbl.add h.hbuckets idx (ref 1)
      end
      else h.hnonpos <- h.hnonpos + 1;
      Mutex.unlock h.hlock
    end

  type distribution = {
    count : int;
    total : float;
    mean : float;
    stddev : float;
    min : float;
    max : float;
  }

  let histogram_value h =
    Mutex.lock h.hlock;
    let a = h.acc in
    let v =
      if Emts_stats.Acc.count a = 0 then None
      else
        Some
          {
            count = Emts_stats.Acc.count a;
            total = Emts_stats.Acc.total a;
            mean = Emts_stats.Acc.mean a;
            stddev = Emts_stats.Acc.stddev a;
            min = Emts_stats.Acc.min a;
            max = Emts_stats.Acc.max a;
          }
    in
    Mutex.unlock h.hlock;
    v

  (* Walk the buckets in value order until the cumulative count reaches
     the target rank; report the bucket's geometric midpoint, clamped to
     the exact observed range so degenerate distributions (one value,
     two values) answer exactly.  Must be called with [h.hlock] held. *)
  let quantile_locked h q =
    let total = Emts_stats.Acc.count h.acc in
    if total = 0 then None
    else begin
      let lo = Emts_stats.Acc.min h.acc and hi = Emts_stats.Acc.max h.acc in
      let clamp x = Float.max lo (Float.min hi x) in
      let rank =
        max 1 (int_of_float (Float.ceil (q *. float_of_int total)))
      in
      if rank <= h.hnonpos then Some lo
      else begin
        let buckets =
          Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) h.hbuckets []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        let rec walk seen = function
          | [] -> Some hi
          | (idx, count) :: rest ->
            let seen = seen + count in
            if seen >= rank then
              Some (clamp (Float.exp ((float_of_int idx +. 0.5) *. bucket_gamma)))
            else walk seen rest
        in
        walk h.hnonpos buckets
      end
    end

  let quantile h q =
    if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Emts_obs.Metrics.quantile: q must be in [0, 1]";
    Mutex.lock h.hlock;
    let v = quantile_locked h q in
    Mutex.unlock h.hlock;
    v

  let find_counter name =
    Mutex.lock registry_lock;
    let r = Hashtbl.find_opt registry name in
    Mutex.unlock registry_lock;
    match r with Some (C c) -> Some (counter_value c) | _ -> None

  let reset () =
    Mutex.lock registry_lock;
    Hashtbl.iter
      (fun _ i ->
        match i with
        | C c -> Atomic.set c.count 0
        | G g -> Atomic.set g.value 0.
        | H h ->
          Mutex.lock h.hlock;
          h.acc <- Emts_stats.Acc.create ();
          Hashtbl.reset h.hbuckets;
          h.hnonpos <- 0;
          Mutex.unlock h.hlock)
      registry;
    Mutex.unlock registry_lock

  let sorted_instruments () =
    Mutex.lock registry_lock;
    let all = Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry [] in
    Mutex.unlock registry_lock;
    List.sort (fun (a, _) (b, _) -> String.compare a b) all

  let help_of name =
    Mutex.lock registry_lock;
    let h = Hashtbl.find_opt help_texts name in
    Mutex.unlock registry_lock;
    h

  let render () =
    let buf = Buffer.create 512 in
    let instruments = sorted_instruments () in
    Buffer.add_string buf "metrics summary\n===============\n";
    let shown = ref 0 in
    List.iter
      (fun (name, i) ->
        match i with
        | C c ->
          let v = counter_value c in
          if v <> 0 then begin
            shown := !shown + 1;
            Buffer.add_string buf (Printf.sprintf "  %-36s %14d\n" name v)
          end
        | G g ->
          let v = gauge_value g in
          if v <> 0. then begin
            shown := !shown + 1;
            Buffer.add_string buf (Printf.sprintf "  %-36s %14.6g\n" name v)
          end
        | H h -> (
          match histogram_value h with
          | None -> ()
          | Some d ->
            shown := !shown + 1;
            let p50 = Option.value ~default:Float.nan (quantile h 0.5) in
            let p95 = Option.value ~default:Float.nan (quantile h 0.95) in
            let p99 = Option.value ~default:Float.nan (quantile h 0.99) in
            Buffer.add_string buf
              (Printf.sprintf
                 "  %-36s n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g \
                  p50=%.6g p95=%.6g p99=%.6g\n"
                 name d.count d.mean d.stddev d.min d.max p50 p95 p99)))
      instruments;
    if !shown = 0 then Buffer.add_string buf "  (no metrics recorded)\n";
    Buffer.contents buf

  let to_json () =
    let buf = Buffer.create 512 in
    let instruments = sorted_instruments () in
    let section kind render_one =
      let entries =
        List.filter_map
          (fun (name, i) ->
            Option.map
              (fun body -> Printf.sprintf "\"%s\":%s" (json_escape name) body)
              (render_one i))
          instruments
      in
      Printf.sprintf "\"%s\":{%s}" kind (String.concat "," entries)
    in
    Buffer.add_char buf '{';
    Buffer.add_string buf
      (section "counters" (function
        | C c -> Some (string_of_int (counter_value c))
        | _ -> None));
    Buffer.add_char buf ',';
    Buffer.add_string buf
      (section "gauges" (function
        | G g -> Some (json_float (gauge_value g))
        | _ -> None));
    Buffer.add_char buf ',';
    Buffer.add_string buf
      (section "histograms" (function
        | H h ->
          Option.map
            (fun d ->
              let q p = json_float (Option.value ~default:Float.nan (quantile h p)) in
              Printf.sprintf
                "{\"count\":%d,\"total\":%s,\"mean\":%s,\"stddev\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s}"
                d.count (json_float d.total) (json_float d.mean)
                (json_float d.stddev) (json_float d.min) (json_float d.max)
                (q 0.5) (q 0.95) (q 0.99))
            (histogram_value h)
        | _ -> None));
    Buffer.add_string buf "}\n";
    Buffer.contents buf

  (* ---------------------------------------------------------------- *)
  (* OpenMetrics text exposition (Prometheus-compatible). *)

  (* Metric names: dots become underscores, everything gets an [emts_]
     prefix (which also guards against a leading digit). *)
  let om_name name =
    "emts_"
    ^ String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
          | _ -> '_')
        name

  (* HELP text escaping per the OpenMetrics ABNF. *)
  let om_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '"' -> Buffer.add_string buf "\\\""
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let om_float x =
    if Float.is_nan x then "NaN"
    else if x = Float.infinity then "+Inf"
    else if x = Float.neg_infinity then "-Inf"
    else Printf.sprintf "%.17g" x

  (* Bucket upper bounds need only be stable and strictly increasing;
     9 significant digits are far finer than the ~4% bucket width. *)
  let om_le x = Printf.sprintf "%.9g" x

  let strip_total s =
    let suffix = "_total" in
    let n = String.length s and k = String.length suffix in
    if n > k && String.sub s (n - k) k = suffix then String.sub s 0 (n - k)
    else s

  let render_openmetrics () =
    let buf = Buffer.create 1024 in
    let meta om kind name =
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" om kind);
      match help_of name with
      | None -> ()
      | Some h ->
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" om (om_escape h))
    in
    List.iter
      (fun (name, i) ->
        match i with
        | C c ->
          (* In OpenMetrics the metric is named without the [_total]
             suffix; the sample carries it. *)
          let om = strip_total (om_name name) in
          meta om "counter" name;
          Buffer.add_string buf
            (Printf.sprintf "%s_total %d\n" om (counter_value c))
        | G g ->
          let om = om_name name in
          meta om "gauge" name;
          Buffer.add_string buf
            (Printf.sprintf "%s %s\n" om (om_float (gauge_value g)))
        | H h ->
          let om = om_name name in
          meta om "histogram" name;
          Mutex.lock h.hlock;
          let total = Emts_stats.Acc.count h.acc in
          let sum = if total = 0 then 0. else Emts_stats.Acc.total h.acc in
          let nonpos = h.hnonpos in
          let buckets =
            Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) h.hbuckets []
            |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
          in
          Mutex.unlock h.hlock;
          let cum = ref 0 in
          if nonpos > 0 then begin
            cum := nonpos;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket{le=\"0\"} %d\n" om !cum)
          end;
          List.iter
            (fun (idx, n) ->
              cum := !cum + n;
              let le =
                Float.exp (float_of_int (idx + 1) *. bucket_gamma)
              in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" om (om_le le) !cum))
            buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" om total);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" om (om_float sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" om total))
      (sorted_instruments ());
    Buffer.add_string buf "# EOF\n";
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)

module Gcprof = struct
  let enabled_flag = Atomic.make false
  let enabled () = Atomic.get enabled_flag

  let set_enabled b =
    (* The samples land in the registry; profiling with collection off
       would observe into a void. *)
    if b then Metrics.set_enabled true;
    Atomic.set enabled_flag b

  let h_alloc =
    lazy
      (Metrics.histogram
         ~help:"bytes allocated per fitness evaluation (minor + major)"
         "gc.eval.alloc_bytes")

  let c_minor =
    lazy
      (Metrics.counter
         ~help:"minor GC collections triggered during fitness evaluation"
         "gc.eval.minor_collections")

  let c_major =
    lazy
      (Metrics.counter
         ~help:"major GC collections triggered during fitness evaluation"
         "gc.eval.major_collections")

  (* Per-lane aggregate, cached in domain-local storage so the hot path
     does not re-intern: lane ids are stable per worker domain. *)
  let lane_key : (int * Metrics.counter) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let lane_counter lane =
    match Domain.DLS.get lane_key with
    | Some (l, c) when l = lane -> c
    | _ ->
      let c =
        Metrics.counter
          ~help:"bytes allocated by fitness evaluations on this worker lane"
          (Printf.sprintf "gc.eval.alloc_bytes.w%d" lane)
      in
      Domain.DLS.set lane_key (Some (lane, c));
      c

  (* Closes the window [measure] opened on [w0] (minor, major and
     promoted words): reads the minor counter first, then the others,
     and records the words allocated in between.  A promoted word was
     counted once when allocated in the minor heap, so major words net
     of promotions are the words allocated directly in the major heap. *)
  let record ~lane s0 (w0 : float array) =
    let minor = Gc.minor_words () in
    let _, promoted, major = Gc.counters () in
    let words = minor -. w0.(0) +. (major -. w0.(1)) -. (promoted -. w0.(2)) in
    let bytes = words *. float_of_int (Sys.word_size / 8) in
    let s1 = Gc.quick_stat () in
    Metrics.observe (Lazy.force h_alloc) bytes;
    Metrics.add (Lazy.force c_minor)
      (s1.Gc.minor_collections - s0.Gc.minor_collections);
    Metrics.add (Lazy.force c_major)
      (s1.Gc.major_collections - s0.Gc.major_collections);
    Metrics.add (lane_counter lane) (int_of_float bytes)

  (* The GC counters are domain-local in OCaml 5, so the window
     attributes the evaluating domain's allocation only.  Counting words
     is exact; [Gc.allocated_bytes] on OCaml 5.1 weighs a word still in
     the minor heap as one byte.  The window opens on the last read
     ([Gc.minor_words] allocates nothing) and closes on the first, so
     the records read around it stay outside. *)
  let measure ~lane f =
    if not (enabled ()) then f ()
    else begin
      let s0 = Gc.quick_stat () in
      let w0 = Array.make 3 0. in
      let _, promoted, major = Gc.counters () in
      w0.(1) <- major;
      w0.(2) <- promoted;
      w0.(0) <- Gc.minor_words ();
      match f () with
      | v ->
        record ~lane s0 w0;
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        record ~lane s0 w0;
        Printexc.raise_with_backtrace e bt
    end
end

(* ------------------------------------------------------------------ *)

module Progress = struct
  let enabled_flag = Atomic.make false
  let set_enabled b = Atomic.set enabled_flag b
  let enabled () = Atomic.get enabled_flag

  let report thunk =
    if enabled () then Printf.eprintf "[obs] %s\n%!" (thunk ())
end

(* The flight recorder's dump closes with a snapshot of the registry;
   wired here because [Flight] is defined before [Metrics]. *)
let () = Flight.set_snapshot Metrics.to_json
