module Endpoint = Emts_serve.Endpoint
module Protocol = Emts_serve.Protocol
module Metrics = Emts_obs.Metrics
module J = Emts_resilience.Json

let server_id = "emts-router 1.0.0"

let m_connections =
  Metrics.counter "router.connections" ~help:"client connections accepted"

let m_requests =
  Metrics.counter "router.requests" ~help:"schedule requests routed"

let m_forwarded =
  Metrics.counter "router.forwarded" ~help:"frames forwarded to backends"

let m_reroutes =
  Metrics.counter "router.reroutes"
    ~help:"failovers to another backend after a failed forward"

let m_unavailable =
  Metrics.counter "router.unavailable"
    ~help:"requests refused because no backend was left"

let m_bad_requests =
  Metrics.counter "router.bad_requests" ~help:"unparseable client payloads"

let m_malformed =
  Metrics.counter "router.malformed" ~help:"client framing errors"

let m_migrations_relayed =
  Metrics.counter "router.migrations_relayed"
    ~help:"island winners gossiped to the next backend on the ring"

let g_backends_live =
  Metrics.gauge "router.backends_live" ~help:"backends answering probes"

type config = {
  socket : string option;
  tcp : (string * int) option;
  metrics_tcp : (string * int) option;
  backends : Endpoint.t list;
  max_frame : int;
  probe_interval : float;
  probe_timeout : float;
  retries : int;
  migrate_relay : bool;
}

let default =
  {
    socket = None;
    tcp = None;
    metrics_tcp = None;
    backends = [];
    max_frame = Protocol.default_max_frame;
    probe_interval = 1.0;
    probe_timeout = 2.0;
    retries = 2;
    migrate_relay = false;
  }

(* ------------------------------------------------------------------ *)
(* Rendezvous sharding *)

let instance_key ~ptg ~platform ~model =
  String.concat "\x01" [ ptg; platform; model ]

(* Highest-random-weight: every (backend, key) pair gets a stable
   pseudo-random score; the ranking by descending score is this key's
   failover order.  Stable across routers and restarts (the hash is
   seeded from the label text alone), and removing a backend only
   reassigns the keys it owned. *)
let rank_backends backends key =
  backends
  |> List.map (fun b ->
         (Emts_prng.seed_of_label (Backend.name b ^ "\x00" ^ key), b))
  |> List.sort (fun (sa, a) (sb, b) ->
         match compare sb sa with
         | 0 -> compare (Backend.name a) (Backend.name b)
         | c -> c)
  |> List.map snd

let live_count backends =
  List.length (List.filter Backend.is_live backends)

let refresh_live_gauge backends =
  Metrics.set_gauge g_backends_live (float_of_int (live_count backends))

(* ------------------------------------------------------------------ *)
(* Stats aggregation *)

let obj_fields name j =
  match Option.map J.to_obj (J.member name j) with
  | Some (Ok fields) -> fields
  | _ -> []

let num j = match J.to_float j with Ok v -> Some v | Error _ -> None

(* Sum one numeric section (counters or gauges) across documents. *)
let sum_section name docs =
  let acc = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun doc ->
      List.iter
        (fun (k, v) ->
          match num v with
          | None -> ()
          | Some v ->
            if not (Hashtbl.mem acc k) then order := k :: !order;
            Hashtbl.replace acc k
              (v +. Option.value ~default:0. (Hashtbl.find_opt acc k)))
        (obj_fields name doc))
    docs;
  List.rev_map (fun k -> (k, J.float (Hashtbl.find acc k))) !order

(* Histograms cannot be merged exactly from summaries: count/total/
   min/max combine losslessly, the mean is recomputed, and the
   quantiles (and stddev) are taken as the max over backends — an
   upper bound, which is the conservative direction for latency
   reporting. *)
let merge_histograms docs =
  let tbl = Hashtbl.create 32 in
  let order = ref [] in
  let get h k = Option.bind (J.member k h) num in
  List.iter
    (fun doc ->
      List.iter
        (fun (name, h) ->
          let entry =
            match Hashtbl.find_opt tbl name with
            | Some e -> e
            | None ->
              order := name :: !order;
              let e = Hashtbl.create 8 in
              Hashtbl.replace tbl name e;
              e
          in
          let add k combine =
            match get h k with
            | None -> ()
            | Some v ->
              Hashtbl.replace entry k
                (match Hashtbl.find_opt entry k with
                | None -> v
                | Some prev -> combine prev v)
          in
          add "count" ( +. );
          add "total" ( +. );
          add "min" Float.min;
          add "max" Float.max;
          add "stddev" Float.max;
          add "p50" Float.max;
          add "p95" Float.max;
          add "p99" Float.max)
        (obj_fields "histograms" doc))
    docs;
  List.rev_map
    (fun name ->
      let entry = Hashtbl.find tbl name in
      let f k = Option.value ~default:0. (Hashtbl.find_opt entry k) in
      let count = f "count" in
      let mean = if count > 0. then f "total" /. count else 0. in
      ( name,
        J.Obj
          [
            ("count", J.float count);
            ("total", J.float (f "total"));
            ("mean", J.float mean);
            ("stddev", J.float (f "stddev"));
            ("min", J.float (f "min"));
            ("max", J.float (f "max"));
            ("p50", J.float (f "p50"));
            ("p95", J.float (f "p95"));
            ("p99", J.float (f "p99"));
          ] ))
    !order

let aggregate_stats ~own per_backend =
  let docs = own :: List.map snd per_backend in
  J.Obj
    [
      ("counters", J.Obj (sum_section "counters" docs));
      ("gauges", J.Obj (sum_section "gauges" docs));
      ("histograms", J.Obj (merge_histograms docs));
      ( "backends",
        J.Obj (List.map (fun (name, stats) -> (name, stats)) per_backend) );
    ]

(* ------------------------------------------------------------------ *)
(* Request handling *)

type state = {
  config : config;
  backends : Backend.t list;
  draining : bool Atomic.t;
  in_flight : int Atomic.t;
}

let send_resp fd resp =
  try Protocol.write_frame fd (Protocol.Response.to_string resp)
  with Unix.Unix_error _ | Sys_error _ -> ()

let send_error fd ~id code message =
  send_resp fd
    (Protocol.Response.Error { id; code; message; retry_after_ms = None })

(* Relay a raw reply payload from a backend to the client verbatim —
   the backend already echoed the client's id, and re-encoding could
   only lose fields this router version does not know about. *)
let relay fd payload =
  try Protocol.write_frame fd payload
  with Unix.Unix_error _ | Sys_error _ -> ()

(* Forward [payload] along [key]'s preference order.  The first
   attempt is the rendezvous winner; a transport failure (backend
   marked dead inside [Backend.roundtrip]) or a [draining] reply moves
   on to the next candidate, up to [retries] extra attempts.  With no
   ready backend, the ones that have never answered are dialled before
   refusing: at startup the first probe can run before a daemon
   listens.  Returns the raw reply payload and the backend that
   produced it. *)
let forward_sharded st ~key payload =
  let candidates =
    match List.filter Backend.is_ready st.backends with
    | [] -> List.filter Backend.is_unknown st.backends
    | ready -> ready
  in
  let candidates = rank_backends candidates key in
  let max_attempts = 1 + max 0 st.config.retries in
  let rec go n = function
    | [] -> Error (if n = 0 then `No_backend else `All_failed)
    | _ when n >= max_attempts -> Error `All_failed
    | b :: rest -> (
      if n > 0 then Metrics.incr m_reroutes;
      Metrics.incr m_forwarded;
      match Backend.roundtrip b ~max_frame:st.config.max_frame payload with
      | Error _ ->
        refresh_live_gauge st.backends;
        go (n + 1) rest
      | Ok reply -> (
        match Protocol.Response.of_string reply with
        | Ok (Protocol.Response.Error { code; _ })
          when code = Protocol.Error_code.draining ->
          (* The backend is going away gracefully: route on without
             declaring it dead (it still answers admitted work). *)
          go (n + 1) rest
        | _ -> Ok (reply, b)))
  in
  go 0 candidates

let unavailable_message = function
  | `No_backend -> "no live backend"
  | `All_failed -> "all candidate backends failed"

(* Ring gossip: hand the winning allocation of an island-mode solve to
   the next ready backend after the one that served, as seeds for its
   future solves of the same instance.  Best-effort: failures are
   invisible to the client (it already has its reply). *)
let relay_migrants st ~served ~(req : Protocol.Request.schedule) reply =
  match Protocol.Response.of_string reply with
  | Ok (Protocol.Response.Schedule_result r) when req.islands > 1 -> (
    let ready = List.filter Backend.is_ready st.backends in
    let rec next_after = function
      | [] -> None
      | b :: rest when Backend.name b = Backend.name served -> (
        match rest with
        | b' :: _ -> Some b'
        | [] -> ( match ready with b' :: _ -> Some b' | [] -> None))
      | _ :: rest -> next_after rest
    in
    match next_after ready with
    | None -> ()
    | Some target when Backend.name target = Backend.name served -> ()
    | Some target ->
      let migrate =
        Protocol.Request.to_string
          (Protocol.Request.Migrate
             {
               id = J.Str "router-relay";
               ptg = req.ptg;
               platform = req.platform;
               model = req.model;
               migrants = [ r.Protocol.Response.alloc ];
             })
      in
      (match
         Backend.roundtrip target ~max_frame:st.config.max_frame migrate
       with
      | Ok _ -> Metrics.incr m_migrations_relayed
      | Error _ -> refresh_live_gauge st.backends))
  | _ -> ()

let fanout_stats st =
  List.filter_map
    (fun b ->
      if not (Backend.is_live b) then None
      else
        let payload =
          Protocol.Request.to_string
            (Protocol.Request.Stats { id = J.Str "router" })
        in
        match Backend.roundtrip b ~max_frame:st.config.max_frame payload with
        | Error _ ->
          refresh_live_gauge st.backends;
          None
        | Ok reply -> (
          match Protocol.Response.of_string reply with
          | Ok (Protocol.Response.Stats { stats; _ }) ->
            Some (Backend.name b, stats)
          | Ok _ | Error _ -> None))
    st.backends

let handle_request st fd payload =
  match Protocol.Request.of_string payload with
  | Error message ->
    Metrics.incr m_bad_requests;
    send_error fd ~id:J.Null Protocol.Error_code.bad_request message
  | Ok (Protocol.Request.Ping { id }) ->
    send_resp fd (Protocol.Response.Pong { id; server = server_id })
  | Ok (Protocol.Request.Health { id }) ->
    let live = live_count st.backends in
    let draining = Atomic.get st.draining in
    send_resp fd
      (Protocol.Response.Health
         {
           id;
           live = true;
           ready = (live > 0 && not draining);
           draining;
           backends_live = Some live;
         })
  | Ok (Protocol.Request.Metrics { id }) ->
    (* The router's own registry: emts_router_* series.  Fleet-wide
       numbers come from [stats], which can merge; concatenating
       OpenMetrics expositions cannot (duplicate series). *)
    send_resp fd
      (Protocol.Response.Metrics { id; body = Metrics.render_openmetrics () })
  | Ok (Protocol.Request.Stats { id }) ->
    let per_backend = fanout_stats st in
    let own =
      match J.of_string (Metrics.to_json ()) with
      | Ok j -> j
      | Error _ -> J.Obj []
    in
    send_resp fd
      (Protocol.Response.Stats
         { id; stats = aggregate_stats ~own per_backend })
  | Ok (Protocol.Request.Migrate { id; ptg; platform; model; _ }) -> (
    let key = instance_key ~ptg ~platform ~model in
    match forward_sharded st ~key payload with
    | Ok (reply, _) -> relay fd reply
    | Error e ->
      Metrics.incr m_unavailable;
      send_error fd ~id Protocol.Error_code.unavailable
        (unavailable_message e))
  | Ok (Protocol.Request.Submit { id; session; _ }) -> (
    (* Online sessions are stateful: shard by session name so every
       request of a session lands on the same backend. *)
    if Atomic.get st.draining then
      send_error fd ~id Protocol.Error_code.draining "router is draining"
    else
      match forward_sharded st ~key:("online:" ^ session) payload with
      | Ok (reply, _) -> relay fd reply
      | Error e ->
        Metrics.incr m_unavailable;
        send_error fd ~id Protocol.Error_code.unavailable
          (unavailable_message e))
  | Ok (Protocol.Request.Advance { id; session; _ }) -> (
    (* Allowed while draining so admitted online work can finish. *)
    match forward_sharded st ~key:("online:" ^ session) payload with
    | Ok (reply, _) -> relay fd reply
    | Error e ->
      Metrics.incr m_unavailable;
      send_error fd ~id Protocol.Error_code.unavailable
        (unavailable_message e))
  | Ok (Protocol.Request.Schedule { id; req }) -> (
    Metrics.incr m_requests;
    if Atomic.get st.draining then
      send_error fd ~id Protocol.Error_code.draining "router is draining"
    else begin
      let key =
        instance_key ~ptg:req.ptg ~platform:req.platform ~model:req.model
      in
      match forward_sharded st ~key payload with
      | Ok (reply, served) ->
        relay fd reply;
        if st.config.migrate_relay then relay_migrants st ~served ~req reply
      | Error e ->
        Metrics.incr m_unavailable;
        send_error fd ~id Protocol.Error_code.unavailable
          (unavailable_message e)
    end)

(* One thread per client connection; forwarding is synchronous, so a
   client that pipelines sees its requests answered in order. *)
let client_loop st fd =
  let rec loop () =
    match Protocol.read_frame fd ~max_size:st.config.max_frame with
    | Error Protocol.Closed -> ()
    | Error e ->
      Metrics.incr m_malformed;
      let code =
        match e with
        | Protocol.Too_large _ -> Protocol.Error_code.too_large
        | _ -> Protocol.Error_code.malformed_frame
      in
      send_error fd ~id:J.Null code (Protocol.frame_error_to_string e)
    | Ok payload ->
      Atomic.incr st.in_flight;
      Fun.protect
        ~finally:(fun () -> Atomic.decr st.in_flight)
        (fun () -> try handle_request st fd payload with _ -> ());
      loop ()
  in
  (try loop () with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)

(* First re-probe delay while some backend is still unknown; it
   doubles up to the probe interval. *)
let unknown_backoff = 0.01

let prober_loop st ~finished () =
  let rec loop backoff =
    if not (finished ()) then begin
      List.iter
        (fun b ->
          Backend.probe b ~timeout_s:st.config.probe_timeout
            ~max_frame:st.config.max_frame)
        st.backends;
      refresh_live_gauge st.backends;
      (* Sleep in short slices so shutdown is not held hostage by a
         long probe interval. *)
      let rec nap left =
        if left > 0. && not (finished ()) then begin
          let slice = Float.min 0.2 left in
          Thread.delay slice;
          nap (left -. slice)
        end
      in
      if List.exists Backend.is_unknown st.backends then begin
        nap (Float.min backoff st.config.probe_interval);
        loop (2. *. backoff)
      end
      else begin
        nap st.config.probe_interval;
        loop unknown_backoff
      end
    end
  in
  loop unknown_backoff

module Private = struct
  let instance_key = instance_key
  let rank_backends = rank_backends
  let aggregate_stats = aggregate_stats
end

let run ?(stop = Emts_resilience.Shutdown.requested) (config : config) =
  if config.backends = [] then Error "no backends configured (--backend)"
  else if config.socket = None && config.tcp = None then
    Error "no listeners configured (set a socket path or a TCP address)"
  else if config.max_frame < 1 then Error "max frame size must be >= 1"
  else if not (config.probe_interval > 0.) then
    Error "probe interval must be > 0"
  else if not (config.probe_timeout > 0.) then
    Error "probe timeout must be > 0"
  else if config.retries < 0 then Error "retries must be >= 0"
  else begin
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
          Printf.eprintf "routing on %s\n%!"
            (match ep with
            | Endpoint.Unix_socket path -> path
            | Endpoint.Tcp _ -> Endpoint.to_string ep))
        frames;
      Option.iter
        (fun (host, port) ->
          Printf.eprintf "metrics on http://%s:%d/metrics\n%!" host port)
        config.metrics_tcp;
      let st =
        {
          config;
          backends = List.map Backend.create config.backends;
          draining = Atomic.make false;
          in_flight = Atomic.make 0;
        }
      in
      refresh_live_gauge st.backends;
      let finished = Atomic.make false in
      let metrics_thread =
        Option.map
          (fun fd ->
            Thread.create
              (fun () ->
                Emts_serve.Metrics_http.loop
                  ~health_extra:(fun () ->
                    [
                      ( "backends_live",
                        J.Num (float_of_int (live_count st.backends)) );
                    ])
                  ~finished:(fun () -> Atomic.get finished)
                  ~draining:(fun () -> stop () || Atomic.get st.draining)
                  fd)
              ())
          http
      in
      let prober =
        Thread.create (prober_loop st ~finished:(fun () -> Atomic.get finished)) ()
      in
      Endpoint.accept_loop ~stop (List.map snd frames) (fun fd ->
          Metrics.incr m_connections;
          ignore (Thread.create (client_loop st) fd));
      (* Drain: stop admitting (readers answer [draining]), let the
         in-flight forwards finish, then shut the probe and metrics
         threads down. *)
      Atomic.set st.draining true;
      Endpoint.close_listeners frames;
      while Atomic.get st.in_flight > 0 do
        Thread.delay 0.02
      done;
      Atomic.set finished true;
      Thread.join prober;
      Option.iter Thread.join metrics_thread;
      List.iter Backend.close st.backends;
      Ok ()
  end
