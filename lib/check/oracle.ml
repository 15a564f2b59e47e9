module Schedule = Emts_sched.Schedule
module List_scheduler = Emts_sched.List_scheduler
module Allocation = Emts_sched.Allocation
module Evaluator = Emts_sched.Evaluator
module Alg = Emts.Algorithm
module Protocol = Emts_serve.Protocol
module Server = Emts_serve.Server
module Engine = Emts_serve.Engine
module Router = Emts_router.Router
module J = Emts_resilience.Json

type t = {
  name : string;
  doc : string;
  check : Scenario.t -> (unit, string) result;
}

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let bits = Int64.bits_of_float
let float_eq a b = Int64.equal (bits a) (bits b)

let rng_of (s : Scenario.t) = Emts_prng.create ~seed:s.Scenario.seed ()

let ctx_of (s : Scenario.t) =
  Emts_alloc.Common.make_ctx ~model:(Scenario.model s)
    ~platform:(Scenario.platform s) ~graph:s.Scenario.graph

(* A small-but-real EMTS: enough generations for mutation, selection,
   caching and checkpointing to all fire, cheap enough to run on every
   scenario. *)
let mini_config = { Alg.emts5 with Alg.mu = 3; lambda = 8; generations = 3 }

let violations_to_string vs =
  String.concat "; " (List.map (Format.asprintf "%a" Schedule.pp_violation) vs)

let check_list f xs =
  List.fold_left (fun acc x -> match acc with Ok () -> f x | e -> e) (Ok ()) xs

let in_temp_dir f =
  let dir = Filename.temp_file "emts_check" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* (a) validate: every algorithm's product is a valid schedule. *)

let heuristic_products (s : Scenario.t) ctx =
  List.map
    (fun (h : Emts_alloc.heuristic) -> (h.Emts_alloc.name, h.allocate ctx))
    Emts_alloc.all
  @ [
      ( "random",
        Gen.random_valid_alloc (rng_of s) s.Scenario.graph
          ~procs:s.Scenario.procs );
    ]

let validated_schedule (s : Scenario.t) ctx ~label alloc =
  let graph = s.Scenario.graph in
  let* () =
    Result.map_error
      (fun m -> Printf.sprintf "%s: invalid allocation: %s" label m)
      (Allocation.validate alloc ~graph ~procs:s.Scenario.procs)
  in
  let times = Allocation.times_of_tables alloc ~tables:ctx.Emts_alloc.Common.tables in
  let schedule =
    List_scheduler.run ~graph ~times ~alloc ~procs:s.Scenario.procs
  in
  match Schedule.validate ~alloc schedule ~graph with
  | Ok () -> Ok schedule
  | Error vs ->
    fail "%s: invalid schedule: %s" label (violations_to_string vs)

let check_validate (s : Scenario.t) =
  let ctx = ctx_of s in
  let* () =
    check_list
      (fun (label, alloc) ->
        Result.map (fun _ -> ()) (validated_schedule s ctx ~label alloc))
      (heuristic_products s ctx)
  in
  let result = Alg.run_ctx ~rng:(rng_of s) ~config:mini_config ~ctx () in
  match Schedule.validate ~alloc:result.Alg.alloc result.Alg.schedule
          ~graph:s.Scenario.graph
  with
  | Ok () -> Ok ()
  | Error vs -> fail "EA best: invalid schedule: %s" (violations_to_string vs)

(* ------------------------------------------------------------------ *)
(* (b) differential: the zero-noise simulator replays every list
   schedule exactly, and the fitness fast paths agree with the
   materialised schedule. *)

let entry_equal (a : Schedule.entry) (b : Schedule.entry) =
  a.Schedule.task = b.Schedule.task
  && float_eq a.Schedule.start b.Schedule.start
  && float_eq a.Schedule.finish b.Schedule.finish
  && a.Schedule.procs = b.Schedule.procs

(* The delta evaluator walks a mutation chain (each step changes one
   allele of the previous genome, occasionally none — a duplicate
   genome) and must agree bit for bit with the from-scratch bounded
   makespan at every step, including finite-cutoff rejections. *)
let check_delta_chain (s : Scenario.t) ctx rng =
  let graph = s.Scenario.graph in
  let procs = s.Scenario.procs in
  let tables = ctx.Emts_alloc.Common.tables in
  let ev = Evaluator.create () in
  let cur = Array.copy (Gen.random_valid_alloc rng graph ~procs) in
  let n = Array.length cur in
  let rec step i =
    if i >= 24 then Ok ()
    else begin
      if i mod 5 <> 0 then begin
        (* splice one allele from another valid genome: stays within
           the task's table row and [1..procs] by construction *)
        let donor = Gen.random_valid_alloc rng graph ~procs in
        let v = Emts_prng.int rng n in
        cur.(v) <- donor.(v)
      end;
      let times = Allocation.times_of_tables cur ~tables in
      let scratch = List_scheduler.makespan ~graph ~times ~alloc:cur ~procs in
      let cutoff =
        if Emts_prng.int rng 4 = 0 then scratch *. 0.9 else infinity
      in
      let expect, rejected =
        match
          List_scheduler.makespan_bounded ~graph ~times ~alloc:cur ~procs
            ~cutoff
        with
        | Some m -> (m, false)
        | None -> (infinity, true)
      in
      let delta =
        Evaluator.makespan ev ~graph ~tables ~procs ~alloc:cur ~cutoff ()
      in
      if not (float_eq delta expect) then
        fail "delta step %d: evaluator %.17g <> scratch %.17g (cutoff %.17g)" i
          delta expect cutoff
      else if Evaluator.last_rejected ev <> rejected then
        fail "delta step %d: rejection flag %b, scratch says %b" i
          (Evaluator.last_rejected ev) rejected
      else step (i + 1)
    end
  in
  step 0

let check_differential (s : Scenario.t) =
  let ctx = ctx_of s in
  let graph = s.Scenario.graph in
  let procs = s.Scenario.procs in
  let rng = rng_of s in
  let allocs =
    heuristic_products s ctx
    @ List.init 2 (fun i ->
          ( Printf.sprintf "random%d" i,
            Gen.random_valid_alloc rng graph ~procs ))
  in
  let* () = check_delta_chain s ctx rng in
  let delta_ev = Evaluator.create () in
  check_list
    (fun (label, alloc) ->
      let* schedule = validated_schedule s ctx ~label alloc in
      let times =
        Allocation.times_of_tables alloc ~tables:ctx.Emts_alloc.Common.tables
      in
      let makespan = Schedule.makespan schedule in
      let fast = List_scheduler.makespan ~graph ~times ~alloc ~procs in
      let* () =
        if float_eq fast makespan then Ok ()
        else
          fail "%s: fast-path makespan %.17g <> schedule makespan %.17g" label
            fast makespan
      in
      let* () =
        (* one evaluator across all products: heuristic allocations
           differ wholesale, so this also exercises large change sets *)
        let delta =
          Evaluator.makespan delta_ev ~graph
            ~tables:ctx.Emts_alloc.Common.tables ~procs ~alloc
            ~cutoff:infinity ()
        in
        if float_eq delta makespan then Ok ()
        else
          fail "%s: delta makespan %.17g <> schedule makespan %.17g" label
            delta makespan
      in
      let* () =
        match
          List_scheduler.makespan_bounded ~graph ~times ~alloc ~procs
            ~cutoff:infinity
        with
        | Some m when float_eq m makespan -> Ok ()
        | Some m ->
          fail "%s: bounded makespan %.17g <> %.17g" label m makespan
        | None -> fail "%s: cutoff=infinity rejected the schedule" label
      in
      let sim =
        Emts_simulator.execute ~noise:Emts_simulator.Noise.none ~rng:(rng_of s)
          ~graph ~schedule ()
      in
      let* () =
        if float_eq sim.Emts_simulator.makespan makespan then Ok ()
        else
          fail "%s: simulated makespan %.17g <> planned %.17g" label
            sim.Emts_simulator.makespan makespan
      in
      let planned = Schedule.entries schedule in
      let realized = Schedule.entries sim.Emts_simulator.realized in
      let* () =
        if Array.length planned = Array.length realized then Ok ()
        else fail "%s: realised schedule lost tasks" label
      in
      let mismatch = ref None in
      Array.iteri
        (fun v p ->
          if !mismatch = None && not (entry_equal p realized.(v)) then
            mismatch := Some v)
        planned;
      match !mismatch with
      | None -> Ok ()
      | Some v ->
        let p = planned.(v) and r = realized.(v) in
        fail
          "%s: task %d diverges under zero noise: planned \
           [%.17g,%.17g]@{%s} vs realised [%.17g,%.17g]@{%s}"
          label v p.Schedule.start p.Schedule.finish
          (String.concat "|"
             (Array.to_list (Array.map string_of_int p.Schedule.procs)))
          r.Schedule.start r.Schedule.finish
          (String.concat "|"
             (Array.to_list (Array.map string_of_int r.Schedule.procs))))
    allocs

(* ------------------------------------------------------------------ *)
(* (c) determinism: one seed, one result — whatever the execution
   strategy. *)

type ea_summary = {
  makespan : float;
  alloc : int array;
  history : Emts_ea.generation_stats list;
}

let summarize (r : Alg.result) =
  {
    makespan = r.Alg.makespan;
    alloc = r.Alg.alloc;
    history = r.Alg.ea.Emts_ea.history;
  }

let summaries_agree ~label a b =
  if not (float_eq a.makespan b.makespan) then
    fail "%s: makespan %.17g <> base %.17g" label b.makespan a.makespan
  else if a.alloc <> b.alloc then fail "%s: allocation differs from base" label
  else if
    List.length a.history = List.length b.history
    && not
         (List.for_all2
            (fun (x : Emts_ea.generation_stats) (y : Emts_ea.generation_stats) ->
              float_eq x.Emts_ea.best y.Emts_ea.best)
            a.history b.history)
  then fail "%s: per-generation best fitness differs from base" label
  else Ok ()

let check_determinism (s : Scenario.t) =
  let ctx = ctx_of s in
  let seed = s.Scenario.seed in
  let run ?stop ?checkpoint ?resume config =
    Alg.run_ctx ?stop ?checkpoint ?resume
      ~rng:(Emts_prng.create ~seed ())
      ~config ~ctx ()
  in
  let base = summarize (run mini_config) in
  let* () =
    summaries_agree ~label:"domains=2"
      base
      (summarize (run (Alg.with_domains 2 mini_config)))
  in
  let* () =
    summaries_agree ~label:"fitness-cache"
      base
      (summarize (run (Alg.with_fitness_cache 512 mini_config)))
  in
  (* Early rejection is on by default; running without it must not
     change the trajectory. *)
  let* () =
    summaries_agree ~label:"early-reject"
      base
      (summarize (run { mini_config with Alg.early_reject = false }))
  in
  (* Delta fitness is on by default; the from-scratch evaluator must
     reproduce the same trajectory bit for bit. *)
  let* () =
    summaries_agree ~label:"delta-off"
      base
      (summarize (run { mini_config with Alg.delta_fitness = false }))
  in
  (* Interrupt after k generations, resume from the checkpoint: the
     stitched run must equal the uninterrupted one bit for bit. *)
  let* () =
    let k = 1 + (abs seed mod mini_config.Alg.generations) in
    let path = Filename.temp_file "emts_check" ".ckpt" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        let polls = ref 0 in
        let _partial =
          run
            ~stop:(fun () ->
              incr polls;
              !polls > k)
            ~checkpoint:(path, 1) mini_config
        in
        let resumed =
          summarize (run ~checkpoint:(path, 1) ~resume:true mini_config)
        in
        summaries_agree ~label:(Printf.sprintf "resume@k=%d" k) base resumed)
  in
  (* The serve engine path: the same request parsed back from wire
     form must reproduce the direct computation exactly. *)
  let serve_leg algorithm ~reference =
    match Scenario.serve_model_spec s with
    | None -> Ok ()
    | Some model_spec -> (
      let caches = Engine.caches ~capacity:256 ~max_instances:4 in
      let engine = Engine.create ~caches () in
      Fun.protect
        ~finally:(fun () -> Engine.shutdown engine)
        (fun () ->
          let req =
            Protocol.Request.schedule
              ~platform:(Emts_platform.to_string (Scenario.platform s))
              ~model:model_spec ~algorithm ~seed
              ~ptg:(Emts_ptg.Serial.to_string s.Scenario.graph)
              ()
          in
          match Engine.handle engine req ~deadline:None with
          | Error m -> fail "serve/%s: engine rejected request: %s" algorithm m
          | Ok outcome ->
            let expected_makespan, expected_alloc = reference () in
            if not (float_eq outcome.Engine.makespan expected_makespan) then
              fail "serve/%s: makespan %.17g <> direct %.17g" algorithm
                outcome.Engine.makespan expected_makespan
            else if outcome.Engine.alloc <> expected_alloc then
              fail "serve/%s: allocation differs from direct run" algorithm
            else Ok ()))
  in
  let* () =
    serve_leg "mcpa" ~reference:(fun () ->
        let alloc = Emts_alloc.Mcpa.allocate ctx in
        let schedule = Alg.schedule_allocation ~ctx alloc in
        (Schedule.makespan schedule, alloc))
  in
  if Emts_ptg.Graph.task_count s.Scenario.graph > 30 then Ok ()
  else
    serve_leg "emts5" ~reference:(fun () ->
        let r =
          Alg.run_ctx
            ~rng:(Emts_prng.create ~seed ())
            ~config:Alg.emts5 ~ctx ()
        in
        (r.Alg.makespan, r.Alg.alloc))

(* ------------------------------------------------------------------ *)
(* (d) wire: abuse a live daemon; it must answer with typed errors or
   clean closes, and stay alive. *)

(* One daemon is kept warm across wire checks: starting a listener per
   scenario would dominate the fuzzing budget.  Liveness is re-proven
   at the end of every check, so a crash is still pinned to the
   scenario that caused it. *)
let wire_server : (string * bool Atomic.t * Thread.t) option ref = ref None

let shutdown () =
  match !wire_server with
  | None -> ()
  | Some (sock, stop, thread) ->
    Atomic.set stop true;
    Thread.join thread;
    if Sys.file_exists sock then Sys.remove sock;
    wire_server := None

let wire_socket () =
  match !wire_server with
  | Some (sock, _, _) -> sock
  | None ->
    (* /tmp, not TMPDIR: Unix socket paths are limited to ~100 bytes
       and sandboxed temp dirs routinely exceed that. *)
    let sock = Printf.sprintf "/tmp/emts-fuzz-%d.sock" (Unix.getpid ()) in
    if Sys.file_exists sock then Sys.remove sock;
    let stop = Atomic.make false in
    let thread =
      Thread.create
        (fun () ->
          ignore
            (Server.run
               ~stop:(fun () -> Atomic.get stop)
               {
                 Server.default with
                 Server.socket = Some sock;
                 workers = 1;
                 queue_capacity = 8;
               }))
        ()
    in
    let deadline = Emts_obs.Clock.now () +. 10. in
    while (not (Sys.file_exists sock)) && Emts_obs.Clock.now () < deadline do
      Thread.delay 0.01
    done;
    wire_server := Some (sock, stop, thread);
    at_exit shutdown;
    sock

let wire_connect sock =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  fd

let wire_send fd bytes =
  try
    ignore (Unix.write_substring fd bytes 0 (String.length bytes));
    `Sent
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> `Peer_closed

let wire_reply fd =
  match Protocol.read_frame fd ~max_size:Protocol.default_max_frame with
  | Ok payload -> (
    match Protocol.Response.of_string payload with
    | Ok r -> `Response r
    | Error m -> `Junk_response m)
  | Error e -> `Frame_error e
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
    ->
    `Timeout
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Frame_error Protocol.Closed

(* Any typed error, a clean close, or a server legitimately waiting
   for the rest of a frame we never sent — all acceptable.  A response
   that does not decode is not. *)
let abuse_outcome_ok = function
  | `Response _ | `Frame_error _ | `Timeout | `Peer_closed -> true
  | `Junk_response _ -> false

let flip_bits rng bytes count =
  let b = Bytes.of_string bytes in
  for _ = 1 to count do
    let i = Emts_prng.int rng (Bytes.length b) in
    let bit = Emts_prng.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
  done;
  Bytes.to_string b

let check_wire (s : Scenario.t) =
  let rng = rng_of s in
  let sock = wire_socket () in
  let with_conn f =
    let fd = wire_connect sock in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ()) (fun () -> f fd)
  in
  let valid_request =
    Protocol.Request.to_string
      (Protocol.Request.Schedule
         {
           id = J.Str "fuzz";
           req =
             Protocol.Request.schedule ~algorithm:"mcpa"
               ~platform:(Emts_platform.to_string (Scenario.platform s))
               ~seed:s.Scenario.seed
               ~ptg:(Emts_ptg.Serial.to_string s.Scenario.graph)
               ();
         })
  in
  let abuse label bytes =
    with_conn (fun fd ->
        match wire_send fd bytes with
        | `Peer_closed -> Ok ()
        | `Sent ->
          let reply = wire_reply fd in
          if abuse_outcome_ok reply then Ok ()
          else
            fail "%s: undecodable server response (%s)" label
              (match reply with `Junk_response m -> m | _ -> "?"))
  in
  (* Random garbage. *)
  let* () =
    let len = Emts_prng.int_in rng 1 64 in
    let garbage =
      String.init len (fun _ -> Char.chr (Emts_prng.int rng 256))
    in
    abuse "garbage" garbage
  in
  (* A valid frame with a few bits flipped. *)
  let* () =
    let frame = Protocol.encode_frame valid_request in
    abuse "bit-flip" (flip_bits rng frame (Emts_prng.int_in rng 1 4))
  in
  (* A truncated frame: header promises more than we send. *)
  let* () =
    let frame = Protocol.encode_frame valid_request in
    let cut = Protocol.header_size + ((String.length frame - Protocol.header_size) / 2) in
    with_conn (fun fd ->
        match wire_send fd (String.sub frame 0 cut) with
        | `Peer_closed -> Ok ()
        | `Sent ->
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          let reply = wire_reply fd in
          if abuse_outcome_ok reply then Ok ()
          else fail "truncated: undecodable server response")
  in
  (* An oversized declared length is refused before any payload. *)
  let* () =
    let header = Bytes.create Protocol.header_size in
    Bytes.blit_string Protocol.magic 0 header 0 4;
    Bytes.set_int32_be header 4 0x7FFF_FFF0l;
    with_conn (fun fd ->
        match wire_send fd (Bytes.to_string header) with
        | `Peer_closed -> Ok ()
        | `Sent -> (
          match wire_reply fd with
          | `Response (Protocol.Response.Error { code; _ })
            when code = Protocol.Error_code.too_large ->
            Ok ()
          | `Response _ -> fail "oversized: expected a too_large error"
          | `Frame_error _ | `Timeout | `Peer_closed -> Ok ()
          | `Junk_response m -> fail "oversized: undecodable response (%s)" m))
  in
  (* A ping on the same connection proves a payload-level error (or a
     read-only verb) left it open and in frame sync. *)
  let ping_still_works fd ~label =
    match
      wire_send fd
        (Protocol.encode_frame
           (Protocol.Request.to_string (Protocol.Request.Ping { id = J.Null })))
    with
    | `Peer_closed -> fail "%s: connection closed afterwards" label
    | `Sent -> (
      match wire_reply fd with
      | `Response (Protocol.Response.Pong _) -> Ok ()
      | `Timeout -> fail "%s: connection wedged afterwards" label
      | _ -> fail "%s: expected a pong on the same connection" label)
  in
  (* The metrics verb answers a complete OpenMetrics exposition and
     leaves the connection open for further requests. *)
  let* () =
    with_conn (fun fd ->
        match
          wire_send fd
            (Protocol.encode_frame
               (Protocol.Request.to_string
                  (Protocol.Request.Metrics { id = J.Str "fuzz" })))
        with
        | `Peer_closed -> fail "metrics: daemon closed the connection"
        | `Sent -> (
          match wire_reply fd with
          | `Response (Protocol.Response.Metrics { body; _ }) ->
            let n = String.length body in
            let* () =
              if n >= 6 && String.sub body (n - 6) 6 = "# EOF\n" then Ok ()
              else fail "metrics: exposition does not end with \"# EOF\""
            in
            ping_still_works fd ~label:"metrics"
          | `Timeout -> fail "metrics: no answer within 5s"
          | _ -> fail "metrics: expected a metrics response"))
  in
  (* Malformed trace_id fields get a typed bad_request, and — like any
     payload-level error — must not wedge or close the connection. *)
  let* () =
    let oversized =
      String.make
        (Emts_obs.Span.max_trace_id_len + 1 + Emts_prng.int rng 64)
        'a'
    in
    let cases =
      [
        ("wrong-type", {|{"verb":"schedule","ptg":"g","trace_id":123}|});
        ("empty", {|{"verb":"schedule","ptg":"g","trace_id":""}|});
        ( "oversized",
          Printf.sprintf {|{"verb":"schedule","ptg":"g","trace_id":"%s"}|}
            oversized );
        ( "bad-charset",
          {|{"verb":"schedule","ptg":"g","trace_id":"no spaces allowed"}|} );
      ]
    in
    check_list
      (fun (label, payload) ->
        with_conn (fun fd ->
            match wire_send fd (Protocol.encode_frame payload) with
            | `Peer_closed ->
              fail "trace_id/%s: daemon closed the connection" label
            | `Sent -> (
              match wire_reply fd with
              | `Response (Protocol.Response.Error { code; _ })
                when code = Protocol.Error_code.bad_request ->
                ping_still_works fd ~label:("trace_id/" ^ label)
              | `Response _ ->
                fail "trace_id/%s: expected a bad_request error" label
              | `Timeout -> fail "trace_id/%s: no answer within 5s" label
              | `Frame_error e ->
                fail "trace_id/%s: %s" label (Protocol.frame_error_to_string e)
              | `Junk_response m ->
                fail "trace_id/%s: undecodable response (%s)" label m)))
      cases
  in
  (* After all that abuse the daemon must still answer a valid request
     and a ping — this is the actual crash detector. *)
  let* () =
    with_conn (fun fd ->
        match wire_send fd (Protocol.encode_frame valid_request) with
        | `Peer_closed -> fail "liveness: daemon closed a valid connection"
        | `Sent -> (
          match wire_reply fd with
          | `Response (Protocol.Response.Schedule_result _) -> Ok ()
          | `Response (Protocol.Response.Error { code; message; _ }) ->
            fail "liveness: valid request rejected [%s]: %s" code message
          | `Response _ -> fail "liveness: unexpected response verb"
          | `Junk_response m -> fail "liveness: undecodable response (%s)" m
          | `Frame_error e ->
            fail "liveness: %s" (Protocol.frame_error_to_string e)
          | `Timeout -> fail "liveness: daemon did not answer within 5s"))
  in
  with_conn (fun fd ->
      match
        wire_send fd
          (Protocol.encode_frame
             (Protocol.Request.to_string
                (Protocol.Request.Ping { id = J.Str "fuzz" })))
      with
      | `Peer_closed -> fail "ping: daemon closed the connection"
      | `Sent -> (
        match wire_reply fd with
        | `Response (Protocol.Response.Pong _) -> Ok ()
        | `Timeout -> fail "ping: no answer within 5s"
        | _ -> fail "ping: expected a pong"))

(* ------------------------------------------------------------------ *)
(* (e) resilience: corrupt and truncated durable state is rejected or
   torn-tail-truncated, never silently misread. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_raw path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let corrupt_byte rng content =
  let i = Emts_prng.int rng (String.length content) in
  let b = Bytes.of_string content in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  (Bytes.to_string b, i)

let count_char c s =
  String.fold_left (fun n ch -> if ch = c then n + 1 else n) 0 s

let is_prefix ~of_:full prefix =
  List.length prefix <= List.length full
  && List.for_all2 ( = ) prefix
       (List.filteri (fun i _ -> i < List.length prefix) full)

let check_journal rng dir =
  let path = Filename.concat dir "journal.jsonl" in
  let records =
    List.init 12 (fun i ->
        J.to_string
          (J.Obj [ ("cell", J.Num (float_of_int i)); ("seed", J.Str "x") ]))
  in
  let w = Emts_resilience.Jsonl.open_append path in
  List.iter (Emts_resilience.Jsonl.append w) records;
  Emts_resilience.Jsonl.close w;
  let pristine = read_file path in
  (* Torn tail: every complete line before the cut survives, nothing
     after it is invented. *)
  let* () =
    let cut = Emts_prng.int rng (String.length pristine) in
    let torn = String.sub pristine 0 cut in
    write_raw path torn;
    match Emts_resilience.Jsonl.load path with
    | Error e ->
      fail "journal truncated@%d: load error: %s" cut
        (Emts_resilience.Error.to_string e)
    | Ok { Emts_resilience.Jsonl.records = got; _ } ->
      (* A cut landing exactly before a line's newline leaves a
         complete CRC-valid frame in the tail, which load rightly
         recovers despite the missing terminator. *)
      let expected =
        count_char '\n' torn
        + (if cut < String.length pristine && pristine.[cut] = '\n' then 1
           else 0)
      in
      if List.length got <> expected then
        fail "journal truncated@%d: %d records, expected the %d complete lines"
          cut (List.length got) expected
      else if not (is_prefix ~of_:records got) then
        fail "journal truncated@%d: surviving records are not a prefix" cut
      else Ok ()
  in
  (* One flipped byte: the damaged line and everything after it drop;
     the prefix survives verbatim. *)
  let corrupted, offset = corrupt_byte rng pristine in
  write_raw path corrupted;
  match Emts_resilience.Jsonl.load path with
  | Error e ->
    fail "journal corrupt@%d: load error: %s" offset
      (Emts_resilience.Error.to_string e)
  | Ok { Emts_resilience.Jsonl.records = got; dropped } ->
    if not (is_prefix ~of_:records got) then
      fail "journal corrupt@%d: surviving records are not a prefix" offset
    else if List.length got >= List.length records then
      fail "journal corrupt@%d: corruption was silently accepted" offset
    else if dropped = 0 then
      fail "journal corrupt@%d: dropped lines were not reported" offset
    else Ok ()

let check_checksummed rng dir =
  let path = Filename.concat dir "record.crc" in
  let payload = J.to_string (J.Obj [ ("answer", J.Num 42.) ]) in
  Emts_resilience.Checksummed.save ~path payload;
  let pristine = read_file path in
  let* () =
    match Emts_resilience.Checksummed.load ~path with
    | Ok p when p = payload -> Ok ()
    | Ok _ -> fail "checksummed: clean round-trip altered the payload"
    | Error e ->
      fail "checksummed: clean load failed: %s"
        (Emts_resilience.Error.to_string e)
  in
  let corrupted, offset = corrupt_byte rng pristine in
  write_raw path corrupted;
  let* () =
    match Emts_resilience.Checksummed.load ~path with
    | Error _ -> Ok ()
    | Ok _ -> fail "checksummed: flipped byte@%d silently accepted" offset
  in
  let cut = Emts_prng.int rng (String.length pristine) in
  write_raw path (String.sub pristine 0 cut);
  match Emts_resilience.Checksummed.load ~path with
  | Error _ -> Ok ()
  | Ok p when cut = String.length pristine && p = payload -> Ok ()
  | Ok _ -> fail "checksummed: truncation@%d silently accepted" cut

let check_checkpoint (s : Scenario.t) rng dir =
  let ctx = ctx_of s in
  let path = Filename.concat dir "ea.ckpt" in
  let run ?resume () =
    Alg.run_ctx ?resume
      ~rng:(Emts_prng.create ~seed:s.Scenario.seed ())
      ~checkpoint:(path, 1) ~config:mini_config ~ctx ()
  in
  let _ = run () in
  let pristine = read_file path in
  let corrupted, offset = corrupt_byte rng pristine in
  write_raw path corrupted;
  match run ~resume:true () with
  | exception Failure _ -> Ok ()
  | exception e ->
    fail "checkpoint corrupt@%d: escaped %s instead of a clean Failure" offset
      (Printexc.to_string e)
  | _ -> fail "checkpoint corrupt@%d: resume silently accepted it" offset

let check_ptg_loader (s : Scenario.t) rng =
  let pristine = Emts_ptg.Serial.to_string s.Scenario.graph in
  let* () =
    match Emts_ptg.Serial.of_string pristine with
    | Ok g when Emts_ptg.Graph.equal_structure g s.Scenario.graph -> Ok ()
    | Ok _ -> fail "ptg: round-trip changed the structure"
    | Error m -> fail "ptg: round-trip rejected its own output: %s" m
  in
  let try_parse label text =
    match Emts_ptg.Serial.of_string text with
    | Ok _ | Error _ -> Ok ()
    | exception e ->
      fail "ptg %s: parser raised %s instead of returning an error" label
        (Printexc.to_string e)
  in
  let corrupted, _ = corrupt_byte rng pristine in
  let* () = try_parse "corrupt" corrupted in
  try_parse "truncated"
    (String.sub pristine 0 (Emts_prng.int rng (String.length pristine)))

let check_resilience (s : Scenario.t) =
  let rng = rng_of s in
  in_temp_dir (fun dir ->
      let* () = check_journal rng dir in
      let* () = check_checksummed rng dir in
      let* () = check_checkpoint s rng dir in
      check_ptg_loader s rng)

(* ------------------------------------------------------------------ *)
(* (f) chaos: a live daemon under an armed deterministic fault plan
   must never die, answer every accepted request with exactly one
   valid typed reply, respawn crashed worker lanes (visible in the
   metrics), keep shed requests retryable, and — once the storm has
   passed — still compute bit-identical results. *)

let counter_value name =
  Option.value ~default:0 (Emts_obs.Metrics.find_counter name)

(* Fault injection is process-global, so the chaos daemon is private
   to each check (the warm [wire] daemon must never see an armed
   plan), started fresh and drained before the check returns. *)
let with_chaos_server (s : Scenario.t) f =
  let sock =
    Printf.sprintf "/tmp/emts-chaos-%d-%d.sock" (Unix.getpid ())
      (s.Scenario.seed land 0xFFFF)
  in
  if Sys.file_exists sock then Sys.remove sock;
  let stop = Atomic.make false in
  let outcome = ref (Ok ()) in
  let thread =
    Thread.create
      (fun () ->
        outcome :=
          Server.run
            ~stop:(fun () -> Atomic.get stop)
            {
              Server.default with
              Server.socket = Some sock;
              workers = 1;
              queue_capacity = 8;
              watchdog_grace = 0.25;
              shed_budget = Some 0.75;
            })
      ()
  in
  let deadline = Emts_obs.Clock.now () +. 10. in
  while (not (Sys.file_exists sock)) && Emts_obs.Clock.now () < deadline do
    Thread.delay 0.01
  done;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Emts_fault.disarm ();
        Atomic.set stop true;
        Thread.join thread;
        if Sys.file_exists sock then Sys.remove sock)
      (fun () -> f sock)
  in
  let* () = result in
  match !outcome with
  | Ok () -> Ok ()
  | Error m -> fail "chaos: daemon exited with an error: %s" m

let check_chaos (s : Scenario.t) =
  let plan = Scenario.effective_fault_plan s in
  with_chaos_server s @@ fun sock ->
  let with_conn f =
    let fd = wire_connect sock in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () -> f fd)
  in
  (* Models that cannot cross the wire fall back to the protocol
     default; the post-storm reference below is built with whatever
     model the daemon actually used. *)
  let model_spec = Scenario.serve_model_spec s in
  let schedule_frame k =
    Protocol.encode_frame
      (Protocol.Request.to_string
         (Protocol.Request.Schedule
            {
              id = J.Str (Printf.sprintf "chaos%d" k);
              req =
                Protocol.Request.schedule ~algorithm:"mcpa"
                  ?model:model_spec
                  ~platform:(Emts_platform.to_string (Scenario.platform s))
                  ~seed:s.Scenario.seed ~deadline_s:2.0
                  ~ptg:(Emts_ptg.Serial.to_string s.Scenario.graph)
                  ();
            }))
  in
  (* One frame-sync probe doubles as the exactly-one-reply check: a
     stray duplicate reply on the connection would be read here in
     place of the pong. *)
  let no_second_reply fd ~label =
    match
      wire_send fd
        (Protocol.encode_frame
           (Protocol.Request.to_string (Protocol.Request.Ping { id = J.Null })))
    with
    | `Peer_closed -> Ok ()
    | `Sent -> (
      match wire_reply fd with
      | `Response (Protocol.Response.Pong _) -> Ok ()
      | `Frame_error Protocol.Closed | `Peer_closed -> Ok ()
      | `Timeout -> fail "%s: connection wedged after the reply" label
      | `Response _ -> fail "%s: a second reply followed the first" label
      | `Junk_response m -> fail "%s: undecodable second frame (%s)" label m
      | `Frame_error e ->
        fail "%s: frame error after the reply: %s" label
          (Protocol.frame_error_to_string e))
  in
  let internal_replies = ref 0 in
  (* Every request must end in exactly one valid typed reply.  Requests
     the storm prevents from being admitted at all — a reader hangup
     before the frame was parsed, a shed or overloaded rejection — are
     retried: retryable-until-accepted is exactly the contract the
     client backoff relies on. *)
  let rec fire_request k ~attempts =
    if attempts > 12 then
      fail "request %d: still not accepted after 12 attempts" k
    else
      with_conn (fun fd ->
          match wire_send fd (schedule_frame k) with
          | `Peer_closed -> fire_request k ~attempts:(attempts + 1)
          | `Sent -> (
            match wire_reply fd with
            | `Response (Protocol.Response.Schedule_result _) ->
              no_second_reply fd ~label:(Printf.sprintf "request %d" k)
            | `Response (Protocol.Response.Error { code; retry_after_ms; _ })
              when code = Protocol.Error_code.overloaded ->
              (* Shed or full queue: must be retryable as hinted. *)
              Thread.delay
                (match retry_after_ms with
                | Some ms -> float_of_int ms /. 1000.
                | None -> 0.05);
              fire_request k ~attempts:(attempts + 1)
            | `Response (Protocol.Response.Error { code; _ })
              when code = Protocol.Error_code.internal ->
              incr internal_replies;
              no_second_reply fd ~label:(Printf.sprintf "request %d" k)
            | `Response (Protocol.Response.Error { code; _ })
              when code = Protocol.Error_code.deadline_exceeded ->
              no_second_reply fd ~label:(Printf.sprintf "request %d" k)
            | `Response (Protocol.Response.Error { code; message; _ }) ->
              fail "request %d: unexpected typed error [%s]: %s" k code
                message
            | `Response _ -> fail "request %d: unexpected response verb" k
            | `Junk_response m ->
              fail "request %d: undecodable reply (%s)" k m
            | `Frame_error _ ->
              (* An injected reader hangup can kill the connection
                 before the frame was parsed; the request was never
                 accepted, so resending is the correct client move. *)
              fire_request k ~attempts:(attempts + 1)
            | `Timeout -> fail "request %d: no reply within 5s" k))
  in
  let injected_workers () =
    counter_value "fault.injected.worker_eval"
    + counter_value "fault.injected.pool_claim"
  in
  let internal0 = counter_value "serve.internal_errors_total" in
  let respawn0 = counter_value "serve.worker_respawns_total" in
  let crashes0 = injected_workers () in
  Emts_fault.arm plan;
  let storm =
    let rec go k =
      if k >= 8 then Ok ()
      else
        let* () = fire_request k ~attempts:0 in
        go (k + 1)
    in
    go 0
  in
  Emts_fault.disarm ();
  let* () = storm in
  (* Self-healing bookkeeping: every injected worker crash became a
     typed internal_error and a respawned engine, nothing more and
     nothing less; the replies we saw are a subset (a watchdog may
     have answered first). *)
  let crashes = injected_workers () - crashes0 in
  let internal = counter_value "serve.internal_errors_total" - internal0 in
  let respawns = counter_value "serve.worker_respawns_total" - respawn0 in
  let* () =
    if internal <> crashes then
      fail "chaos: %d injected worker crashes but %d internal errors"
        crashes internal
    else if respawns <> crashes then
      fail "chaos: %d injected worker crashes but %d lane respawns" crashes
        respawns
    else if !internal_replies > internal then
      fail "chaos: %d internal_error replies exceed the %d recorded errors"
        !internal_replies internal
    else Ok ()
  in
  (* Post-storm determinism: with the plan disarmed, the survivor must
     compute the same answer as a fresh, never-faulted engine. *)
  let ctx =
    match model_spec with
    | Some _ -> ctx_of s
    | None ->
      Emts_alloc.Common.make_ctx ~model:Emts_model.amdahl
        ~platform:(Scenario.platform s) ~graph:s.Scenario.graph
  in
  let expected_alloc = Emts_alloc.Mcpa.allocate ctx in
  let expected_makespan =
    Schedule.makespan (Alg.schedule_allocation ~ctx expected_alloc)
  in
  with_conn (fun fd ->
      match wire_send fd (schedule_frame 999) with
      | `Peer_closed -> fail "chaos: daemon closed a post-storm connection"
      | `Sent -> (
        match wire_reply fd with
        | `Response (Protocol.Response.Schedule_result r) ->
          if not (float_eq r.Protocol.Response.makespan expected_makespan)
          then
            fail "chaos: post-storm makespan %.17g <> fresh %.17g"
              r.Protocol.Response.makespan expected_makespan
          else if r.Protocol.Response.alloc <> expected_alloc then
            fail "chaos: post-storm allocation differs from a fresh engine"
          else Ok ()
        | `Response (Protocol.Response.Error { code; message; _ }) ->
          fail "chaos: post-storm request rejected [%s]: %s" code message
        | `Response _ -> fail "chaos: unexpected post-storm response verb"
        | `Junk_response m -> fail "chaos: undecodable post-storm reply (%s)" m
        | `Frame_error e ->
          fail "chaos: post-storm %s" (Protocol.frame_error_to_string e)
        | `Timeout -> fail "chaos: post-storm request unanswered within 5s"))

(* ------------------------------------------------------------------ *)
(* (g) fleet: a router in front of live backends — one of which only
   ever hangs up — keeps serving through malformed client input and a
   mid-storm backend kill, answers bit-identically to a fresh engine
   once the storm passes, and refuses with a typed [unavailable] when
   every backend is gone. *)

(* A backend that accepts and immediately hangs up: the router must
   write it off (probe or forward failure) without ever surfacing
   anything but typed replies to clients. *)
let hangup_backend sock =
  if Sys.file_exists sock then Sys.remove sock;
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX sock);
  Unix.listen lfd 8;
  let stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Unix.select [ lfd ] [] [] 0.1 with
          | [], _, _ -> ()
          | _ -> (
            match Unix.accept ~cloexec:true lfd with
            | fd, _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ())
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        done;
        try Unix.close lfd with Unix.Unix_error _ -> ())
      ()
  in
  (stop, thread)

let with_fleet (s : Scenario.t) f =
  let tag =
    Printf.sprintf "%d-%d" (Unix.getpid ()) (s.Scenario.seed land 0xFFFF)
  in
  let bsocks =
    List.init 2 (fun i -> Printf.sprintf "/tmp/emts-flt-b%d-%s.sock" i tag)
  in
  let hsock = Printf.sprintf "/tmp/emts-flt-h-%s.sock" tag in
  let rsock = Printf.sprintf "/tmp/emts-flt-r-%s.sock" tag in
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    (rsock :: bsocks);
  let hstop, hthread = hangup_backend hsock in
  let bstops = List.map (fun _ -> Atomic.make false) bsocks in
  let bthreads =
    List.map2
      (fun sock stop ->
        Thread.create
          (fun () ->
            ignore
              (Server.run
                 ~stop:(fun () -> Atomic.get stop)
                 {
                   Server.default with
                   Server.socket = Some sock;
                   workers = 1;
                   queue_capacity = 8;
                 }))
          ())
      bsocks bstops
  in
  let await sock =
    let deadline = Emts_obs.Clock.now () +. 10. in
    while (not (Sys.file_exists sock)) && Emts_obs.Clock.now () < deadline do
      Thread.delay 0.01
    done
  in
  List.iter await bsocks;
  let rstop = Atomic.make false in
  let router_outcome = ref (Ok ()) in
  let rthread =
    Thread.create
      (fun () ->
        router_outcome :=
          Router.run
            ~stop:(fun () -> Atomic.get rstop)
            {
              Router.default with
              Router.socket = Some rsock;
              backends =
                List.map
                  (fun p -> Emts_serve.Endpoint.Unix_socket p)
                  (hsock :: bsocks);
              probe_interval = 0.2;
              probe_timeout = 1.0;
              retries = 2;
            })
      ()
  in
  await rsock;
  let stop_backend i =
    Atomic.set (List.nth bstops i) true;
    Thread.join (List.nth bthreads i)
  in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set rstop true;
        Thread.join rthread;
        List.iter (fun stop -> Atomic.set stop true) bstops;
        List.iter Thread.join bthreads;
        Atomic.set hstop true;
        Thread.join hthread;
        List.iter
          (fun p -> if Sys.file_exists p then Sys.remove p)
          (rsock :: hsock :: bsocks))
      (fun () -> f ~rsock ~stop_backend)
  in
  let* () = result in
  match !router_outcome with
  | Ok () -> Ok ()
  | Error m -> fail "fleet: router exited with an error: %s" m

let check_fleet (s : Scenario.t) =
  let rng = rng_of s in
  with_fleet s @@ fun ~rsock ~stop_backend ->
  let with_conn f =
    let fd = wire_connect rsock in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with _ -> ())
      (fun () -> f fd)
  in
  let model_spec = Scenario.serve_model_spec s in
  let schedule_frame k =
    Protocol.encode_frame
      (Protocol.Request.to_string
         (Protocol.Request.Schedule
            {
              id = J.Str (Printf.sprintf "fleet%d" k);
              req =
                Protocol.Request.schedule ~algorithm:"mcpa" ?model:model_spec
                  ~platform:(Emts_platform.to_string (Scenario.platform s))
                  ~seed:s.Scenario.seed ~deadline_s:2.0
                  ~ptg:(Emts_ptg.Serial.to_string s.Scenario.graph)
                  ();
            }))
  in
  (* Malformed input aimed at the router: typed errors or clean closes
     only, and the router keeps accepting. *)
  let abuse label bytes =
    with_conn (fun fd ->
        match wire_send fd bytes with
        | `Peer_closed -> Ok ()
        | `Sent ->
          let reply = wire_reply fd in
          if abuse_outcome_ok reply then Ok ()
          else
            fail "fleet %s: undecodable router response (%s)" label
              (match reply with `Junk_response m -> m | _ -> "?"))
  in
  let* () =
    let len = Emts_prng.int_in rng 1 64 in
    abuse "garbage"
      (String.init len (fun _ -> Char.chr (Emts_prng.int rng 256)))
  in
  let* () =
    abuse "bit-flip"
      (flip_bits rng (schedule_frame 0) (Emts_prng.int_in rng 1 4))
  in
  (* The storm: sequential schedules through the router, with a backend
     killed part-way — failover must keep every request answered.  (The
     fleet also contains a hangup-only backend the router has to write
     off on its own.) *)
  let expected_replies = ref 0 in
  let rec fire k ~attempts =
    if attempts > 12 then
      fail "fleet request %d: still unanswered after 12 attempts" k
    else
      with_conn (fun fd ->
          match wire_send fd (schedule_frame k) with
          | `Peer_closed -> fire k ~attempts:(attempts + 1)
          | `Sent -> (
            match wire_reply fd with
            | `Response (Protocol.Response.Schedule_result _) ->
              incr expected_replies;
              Ok ()
            | `Response (Protocol.Response.Error { code; retry_after_ms; _ })
              when code = Protocol.Error_code.overloaded ->
              Thread.delay
                (match retry_after_ms with
                | Some ms -> float_of_int ms /. 1000.
                | None -> 0.05);
              fire k ~attempts:(attempts + 1)
            | `Response (Protocol.Response.Error { code; message; _ }) ->
              fail "fleet request %d: unexpected typed error [%s]: %s" k code
                message
            | `Response _ -> fail "fleet request %d: unexpected verb" k
            | `Junk_response m ->
              fail "fleet request %d: undecodable reply (%s)" k m
            | `Frame_error _ -> fire k ~attempts:(attempts + 1)
            | `Timeout -> fail "fleet request %d: no reply within 5s" k))
  in
  let rec storm k =
    if k >= 6 then Ok ()
    else
      let* () = if k = 2 then Ok (stop_backend 0) else Ok () in
      let* () = fire k ~attempts:0 in
      storm (k + 1)
  in
  let* () = storm 0 in
  let* () =
    if !expected_replies <> 6 then
      fail "fleet: %d/6 storm requests answered" !expected_replies
    else Ok ()
  in
  (* Post-storm bit-identity: the surviving backend, reached through
     the router, agrees with a fresh never-faulted local solve. *)
  let ctx =
    match model_spec with
    | Some _ -> ctx_of s
    | None ->
      Emts_alloc.Common.make_ctx ~model:Emts_model.amdahl
        ~platform:(Scenario.platform s) ~graph:s.Scenario.graph
  in
  let expected_alloc = Emts_alloc.Mcpa.allocate ctx in
  let expected_makespan =
    Schedule.makespan (Alg.schedule_allocation ~ctx expected_alloc)
  in
  let* () =
    with_conn (fun fd ->
        match wire_send fd (schedule_frame 999) with
        | `Peer_closed -> fail "fleet: router closed a post-storm connection"
        | `Sent -> (
          match wire_reply fd with
          | `Response (Protocol.Response.Schedule_result r) ->
            if not (float_eq r.Protocol.Response.makespan expected_makespan)
            then
              fail "fleet: post-storm makespan %.17g <> fresh %.17g"
                r.Protocol.Response.makespan expected_makespan
            else if r.Protocol.Response.alloc <> expected_alloc then
              fail "fleet: post-storm allocation differs from a fresh engine"
            else Ok ()
          | `Response (Protocol.Response.Error { code; message; _ }) ->
            fail "fleet: post-storm request rejected [%s]: %s" code message
          | `Response _ -> fail "fleet: unexpected post-storm verb"
          | `Junk_response m ->
            fail "fleet: undecodable post-storm reply (%s)" m
          | `Frame_error e ->
            fail "fleet: post-storm %s" (Protocol.frame_error_to_string e)
          | `Timeout -> fail "fleet: post-storm request unanswered within 5s"))
  in
  (* Every backend gone: the refusal must be the typed [unavailable],
     and the router itself must stay up (the shutdown check in
     [with_fleet] proves it drains cleanly afterwards). *)
  stop_backend 1;
  with_conn (fun fd ->
      match wire_send fd (schedule_frame 1000) with
      | `Peer_closed -> fail "fleet: router closed an all-dead connection"
      | `Sent -> (
        match wire_reply fd with
        | `Response (Protocol.Response.Error { code; _ })
          when code = Protocol.Error_code.unavailable ->
          Ok ()
        | `Response (Protocol.Response.Schedule_result _) ->
          fail "fleet: schedule answered with every backend dead"
        | `Response (Protocol.Response.Error { code; message; _ }) ->
          fail "fleet: all-dead reply [%s]: %s (want unavailable)" code
            message
        | `Response _ -> fail "fleet: unexpected all-dead verb"
        | `Junk_response m -> fail "fleet: undecodable all-dead reply (%s)" m
        | `Frame_error e ->
          fail "fleet: all-dead %s" (Protocol.frame_error_to_string e)
        | `Timeout -> fail "fleet: all-dead request unanswered within 5s"))

(* ------------------------------------------------------------------ *)
(* (h) online: online scheduling against a live cluster state.  The
   scenario's graph arrives first, two more seed-derived DAGs arrive
   later; the controller must keep every commitment immutable, commit a
   valid execution of the merged workload at or above the clairvoyant
   lower bound, replay bit-identically across the determinism matrix,
   and treat a changeless re-plan as a no-op.  A second leg runs under
   slowdown noise, where every commit drifts and forces a re-plan. *)

module Online = Emts_serve.Online
module Sim_online = Emts_simulator.Online

let online_committed_eq (a : Sim_online.committed) (b : Sim_online.committed) =
  a.Sim_online.task = b.Sim_online.task
  && a.Sim_online.dag = b.Sim_online.dag
  && float_eq a.Sim_online.start b.Sim_online.start
  && float_eq a.Sim_online.finish b.Sim_online.finish
  && a.Sim_online.procs = b.Sim_online.procs
  && float_eq a.Sim_online.planned_start b.Sim_online.planned_start
  && float_eq a.Sim_online.planned_finish b.Sim_online.planned_finish

let online_is_prefix ~label before after =
  let rec go i before after =
    match (before, after) with
    | [], _ -> Ok ()
    | _ :: _, [] ->
      fail "online: %s: commitment log shrank (record %d gone)" label i
    | x :: xs, y :: ys ->
      if online_committed_eq x y then go (i + 1) xs ys
      else
        fail "online: %s: committed record %d changed (%s -> %s)" label i
          (Online.pp_committed x) (Online.pp_committed y)
  in
  go 0 before after

(* The seed-derived arrival trace: the scenario graph at t = 0, two
   more small DAGs at fractions of its single-processor critical path
   (a duration-comparable scale that is itself deterministic). *)
let online_trace (s : Scenario.t) =
  let rng = rng_of s in
  let ctx = ctx_of s in
  let scale =
    Emts_ptg.Analysis.critical_path_length s.Scenario.graph ~time:(fun v ->
        ctx.Emts_alloc.Common.tables.(v).(0))
  in
  let extra () = Gen.random_daggen rng ~n:(3 + Emts_prng.int rng 6) in
  [
    (s.Scenario.graph, 0.);
    (extra (), 0.3 *. scale);
    (extra (), 0.7 *. scale);
  ]

let check_list_fold f init xs =
  List.fold_left
    (fun acc x -> match acc with Ok v -> f v x | Error _ as e -> e)
    init xs

(* Drive one controller through the trace, checking prefix stability at
   every step; returns the session and its final commitment log. *)
let online_run_trace (s : Scenario.t) ~replanner ~noise ~domains ~islands
    ~fitness_cache ~delta_fitness =
  let cfg =
    Online.config ~replanner ~seed:s.Scenario.seed ~domains ~islands
      ?fitness_cache ~delta_fitness ~noise
      ~platform:(Scenario.platform s) ~model:(Scenario.model s) ()
  in
  let t = Online.create cfg in
  let* log =
    check_list_fold
      (fun log (graph, at) ->
        match Online.submit t ~graph ~at with
        | Error m -> fail "online: submit at %g rejected: %s" at m
        | Ok _ ->
          let log' = Online.commitments t in
          let* () = online_is_prefix ~label:"submit" log log' in
          Ok log')
      (Ok []) (online_trace s)
  in
  match Online.advance t with
  | Error m -> fail "online: advance to completion failed: %s" m
  | Ok r ->
    let log' = Online.commitments t in
    let* () = online_is_prefix ~label:"advance" log log' in
    if not r.Online.complete then fail "online: advance left work unstarted"
    else Ok (t, log')

(* The merged realised schedule must validate, respect arrivals, and
   (when realised durations never undercut the model) land at or above
   the clairvoyant lower bound on the offline optimum. *)
let online_check_result (s : Scenario.t) t =
  let sched = Online.state t |> Sim_online.realized_schedule in
  let merged = Online.state t |> Sim_online.merged_graph in
  let alloc =
    Array.map
      (fun (e : Schedule.entry) -> Array.length e.Schedule.procs)
      (Schedule.entries sched)
  in
  let* () =
    match Schedule.validate ~alloc sched ~graph:merged with
    | Ok () -> Ok ()
    | Error vs ->
      fail "online: realised schedule invalid: %s" (violations_to_string vs)
  in
  let* () =
    check_list
      (fun (c : Sim_online.committed) ->
        let arrival = Sim_online.dag_arrival (Online.state t) c.Sim_online.dag in
        if c.Sim_online.start < arrival then
          fail "online: task %d starts at %g before its DAG's arrival %g"
            c.Sim_online.task c.Sim_online.start arrival
        else Ok ())
      (Online.commitments t)
  in
  let bound = Online.clairvoyant_bound t in
  match Online.makespan t with
  | None -> fail "online: no makespan on a complete session"
  | Some m ->
    if Float.is_nan m || Float.is_nan bound then
      fail "online: NaN makespan (%g) or bound (%g)" m bound
    else if
      (* the bound and the makespan accumulate the same durations in
         different orders; tolerate summation-order ulps *)
      m < bound -. (1e-9 *. Float.max bound 1.)
    then
      fail "online: makespan %.17g beats the clairvoyant bound %.17g \
            (scenario %s)"
        m bound (Scenario.describe s)
    else Ok ()

let online_logs_eq ~label a b =
  if List.length a <> List.length b then
    fail "online: %s: %d vs %d commitments" label (List.length a)
      (List.length b)
  else
    check_list
      (fun (x, y) ->
        if online_committed_eq x y then Ok ()
        else
          fail "online: %s: commitment differs (%s vs %s)" label
            (Online.pp_committed x) (Online.pp_committed y))
      (List.combine a b)

let check_online (s : Scenario.t) =
  let base ~replanner ~noise =
    online_run_trace s ~replanner ~noise ~domains:1 ~islands:1
      ~fitness_cache:None ~delta_fitness:true
  in
  (* Baseline re-planner, exact durations. *)
  let* t, log = base ~replanner:Online.Baseline ~noise:Emts_simulator.Noise.none in
  let* () = online_check_result s t in
  (* Exact replay: with Noise.none no commitment may drift. *)
  let* () =
    check_list
      (fun (c : Sim_online.committed) ->
        if
          float_eq c.Sim_online.start c.Sim_online.planned_start
          && float_eq c.Sim_online.finish c.Sim_online.planned_finish
        then Ok ()
        else
          fail "online: zero-noise commitment drifted: %s"
            (Online.pp_committed c))
      log
  in
  (* Re-planning a changeless state is a no-op. *)
  let* () =
    let plan_before = Online.plan t in
    if Online.replan t then fail "online: changeless replan reported work"
    else if
      List.exists2
        (fun (a : Schedule.entry) (b : Schedule.entry) ->
          a.Schedule.task <> b.Schedule.task
          || not (float_eq a.Schedule.start b.Schedule.start))
        plan_before (Online.plan t)
    then fail "online: changeless replan perturbed the plan"
    else Ok ()
  in
  (* EMTS re-planning: determinism across the full matrix.  Each run
     must commit bit-identically to the single-domain reference. *)
  let emts = Online.Emts { mu = 2; lambda = 6; generations = 2 } in
  let emts_run ~domains ~islands ~fitness_cache ~delta_fitness =
    online_run_trace s ~replanner:emts ~noise:Emts_simulator.Noise.none
      ~domains ~islands ~fitness_cache ~delta_fitness
  in
  (* islands change the search trajectory (a different algorithm), so
     each island count gets its own single-domain reference; domains,
     cache and the delta evaluator must never change anything. *)
  let* _, ref1 =
    emts_run ~domains:1 ~islands:1 ~fitness_cache:None ~delta_fitness:true
  in
  let* _, ref2 =
    emts_run ~domains:1 ~islands:2 ~fitness_cache:None ~delta_fitness:true
  in
  let matrix =
    [
      ("domains=2", ref1, (2, 1, None, true));
      ("fitness_cache", ref1, (1, 1, Some 256, true));
      ("delta_fitness=false", ref1, (1, 1, None, false));
      ("islands=2+domains=2+cache", ref2, (2, 2, Some 256, true));
    ]
  in
  let* () =
    check_list
      (fun (label, ref_log, (domains, islands, fitness_cache, delta_fitness))
         ->
        let* _, log = emts_run ~domains ~islands ~fitness_cache ~delta_fitness in
        online_logs_eq ~label ref_log log)
      matrix
  in
  (* Drift leg: every task only ever runs slower, so the bound stays
     valid while (almost) every commit drifts and forces a re-plan. *)
  let slow = Emts_simulator.Noise.uniform_slowdown ~max_factor:1.5 in
  let* t, _ = base ~replanner:Online.Baseline ~noise:slow in
  let* () = online_check_result s t in
  (* Determinism under noise, too: same seed, same storm, same log. *)
  let* t2, _ = base ~replanner:Online.Baseline ~noise:slow in
  online_logs_eq ~label:"noise determinism"
    (Online.commitments t) (Online.commitments t2)

(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "validate";
      doc =
        "every algorithm's schedule (heuristic seeds, random \
         allocations, EA best) passes Schedule.validate";
      check = check_validate;
    };
    {
      name = "differential";
      doc =
        "the zero-noise simulator, the fitness fast paths and the delta \
         evaluator (over a mutation chain) reproduce every list \
         schedule exactly";
      check = check_differential;
    };
    {
      name = "determinism";
      doc =
        "one seed, one result: domains, fitness cache, early reject, \
         delta fitness off, checkpoint/resume and the serve engine all \
         agree bit for bit";
      check = check_determinism;
    };
    {
      name = "wire";
      doc =
        "random/bit-flipped/truncated/oversized frames and malformed \
         trace_id fields against a live daemon yield only typed errors \
         (the metrics verb a complete exposition), and the daemon stays \
         alive";
      check = check_wire;
    };
    {
      name = "resilience";
      doc =
        "corrupt or truncated journals, checkpoints and .ptg files are \
         cleanly rejected or torn-tail-truncated, never misread";
      check = check_resilience;
    };
    {
      name = "chaos";
      doc =
        "a live daemon under a seeded fault plan (worker crashes, \
         stalls, hangups, I/O errors) never dies, answers every \
         accepted request exactly once with a typed reply, respawns \
         crashed lanes, keeps shed requests retryable, and computes \
         bit-identical results once the storm passes";
      check = check_chaos;
    };
    {
      name = "fleet";
      doc =
        "a router over live backends (one hangup-only) survives \
         malformed input and a mid-storm backend kill, keeps every \
         request answered from the survivors, matches a fresh engine \
         bit for bit post-storm, and refuses typed-unavailable once \
         every backend is gone";
      check = check_fleet;
    };
    {
      name = "online";
      doc =
        "online scheduling over a 3-DAG arrival trace: commitments \
         never move, the merged realised schedule validates at or \
         above the clairvoyant lower bound, zero-noise plans replay \
         exactly, changeless re-plans are no-ops, and commitment logs \
         are bit-identical across domains x islands x cache x delta \
         and under seeded slowdown noise";
      check = check_online;
    };
  ]

let names = List.map (fun o -> o.name) all

let find name =
  let lowered = String.lowercase_ascii name in
  List.find_opt (fun o -> o.name = lowered) all

let run o scenario =
  match o.check scenario with
  | r -> r
  | exception e ->
    Error
      (Printf.sprintf "oracle raised: %s" (Printexc.to_string e))
