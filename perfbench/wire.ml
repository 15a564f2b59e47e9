(* Daemon processes and the client side of the wire protocol.

   Daemons are spawned fresh for every run from the binaries built from
   this checkout, listen on Unix sockets under the output directory,
   log to files there (named by start number, so a run replaces the
   last run's files), and are always stopped and reaped before the
   benchmark exits. *)

module P = Emts_serve.Protocol
module J = Emts_resilience.Json

type daemon = { pid : int; socket : string }

let live = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

(* SIGTERM drains a daemon; one that has not exited within 10 s is
   killed. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Span.now () +. 10. in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Span.now () < deadline ->
      Unix.sleepf 0.005;
      poll ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid
    | _ -> live := List.filter (( <> ) d.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  poll ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let () = at_exit kill_all

let spawn ~bin ~log name args =
  let exe = Filename.concat bin name in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) null out out in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  pid

let connect socket = Emts_serve.Endpoint.connect_fd (Emts_serve.Endpoint.Unix_socket socket)

let recv fd =
  match P.read_frame fd ~max_size:P.default_max_frame with
  | Ok payload -> P.Response.of_string payload
  | Error e -> Error (P.frame_error_to_string e)

let roundtrip fd req =
  P.write_frame fd (P.Request.to_string req);
  recv fd

let with_conn socket f =
  let fd = connect socket in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

let ping fd =
  match roundtrip fd (P.Request.Ping { id = J.Null }) with
  | Ok (P.Response.Pong _) -> ()
  | Ok _ -> failwith "ping: unexpected reply"
  | Error m -> failwith ("ping: " ^ m)

(* Seconds from [since] until a ping on [socket] is answered. *)
let wait_ready ~since socket =
  let give_up = since +. 30. in
  let rec go () =
    match with_conn socket ping with
    | () -> Span.now () -. since
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED), _, _) when Span.now () < give_up ->
      Unix.sleepf 0.001;
      go ()
  in
  go ()

(* Daemons started and stopped before the measured one; setup_s is the
   median time to the first answered ping over all of them. *)
let setups = 7

let serve ~bin ~dir ~tag =
  let socket = Filename.concat dir (tag ^ "-serve.sock") in
  let pid =
    spawn ~bin ~log:(Filename.concat dir (tag ^ "-serve.log")) "emts-serve"
      [ "--socket"; socket; "--workers"; "2" ]
  in
  { pid; socket }

let router ~bin ~dir ~tag ~backend =
  let socket = Filename.concat dir (tag ^ "-router.sock") in
  let pid =
    spawn ~bin ~log:(Filename.concat dir (tag ^ "-router.log")) "emts-router"
      [ "--socket"; socket; "--backend"; "unix:" ^ backend.socket ]
  in
  { pid; socket }

let stats socket =
  with_conn socket (fun fd ->
      match roundtrip fd (P.Request.Stats { id = J.Null }) with
      | Ok (P.Response.Stats { stats; _ }) -> stats
      | Ok _ -> failwith "stats: unexpected reply"
      | Error m -> failwith ("stats: " ^ m))

let stat_num stats path =
  let rec go j = function
    | [] -> Some j
    | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
  in
  match Option.map J.to_float (go stats path) with Some (Ok v) -> v | _ -> 0.

(* Median round-trip time of [n] requests on one connection. *)
let rtt_p50 fd ~n req =
  let samples =
    List.init n (fun _ ->
        let t = Span.now () in
        (match roundtrip fd req with
        | Ok (P.Response.Error { message; _ }) -> failwith ("rtt probe: " ^ message)
        | Ok _ -> ()
        | Error m -> failwith ("rtt probe: " ^ m));
        Span.now () -. t)
  in
  Stat.median samples

(* Cost of recording one span, for the tracing overhead of the wire
   workloads, whose spans are few and cheap against a request. *)
let span_cost () =
  let s = Span.create () in
  let n = 20_000 in
  let t = Span.now () in
  for i = 1 to n do
    ignore
      (Span.add s ~name:"probe" ~parent:Span.none ~op:i ~start:(Span.now ())
         ~stop:(Span.now ()))
  done;
  (Span.now () -. t) /. float_of_int n
