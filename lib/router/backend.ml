module Endpoint = Emts_serve.Endpoint
module Protocol = Emts_serve.Protocol
module J = Emts_resilience.Json

(* Idle connections kept per backend.  Forwarding is synchronous in
   each client reader thread, so the pool's high-water mark is the
   number of concurrently forwarding clients; beyond the cap extras
   are closed rather than hoarded. *)
let max_idle = 4

(* [Unknown] until the backend first answers: a daemon started next to
   the router may not listen yet, so a failed probe says nothing. *)
type state = Unknown | Live | Dead

type t = {
  ep : Endpoint.t;
  name : string;
  lock : Mutex.t;
  mutable idle : Unix.file_descr list;
  mutable state : state;
  mutable draining : bool;
}

let create ep =
  {
    ep;
    name = Endpoint.to_string ep;
    lock = Mutex.create ();
    idle = [];
    state = Unknown;
    draining = false;
  }

let endpoint t = t.ep
let name t = t.name

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let is_live t = with_lock t (fun () -> t.state <> Dead)
let is_unknown t = with_lock t (fun () -> t.state = Unknown)
let is_ready t = with_lock t (fun () -> t.state = Live && not t.draining)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let close_idle_locked t =
  List.iter close_fd t.idle;
  t.idle <- []

let mark_dead t =
  with_lock t (fun () ->
      t.state <- Dead;
      close_idle_locked t)

let close t = with_lock t (fun () -> close_idle_locked t)

let borrow t =
  with_lock t (fun () ->
      match t.idle with
      | fd :: rest ->
        t.idle <- rest;
        Some fd
      | [] -> None)

let give_back t fd =
  with_lock t (fun () ->
      if t.state <> Dead && List.length t.idle < max_idle then
        t.idle <- fd :: t.idle
      else close_fd fd)

(* One request, one reply, on an already-connected descriptor. *)
let attempt fd ~max_frame payload =
  try
    Protocol.write_frame fd payload;
    match Protocol.read_frame fd ~max_size:max_frame with
    | Ok reply -> Ok reply
    | Error fe -> Error (Protocol.frame_error_to_string fe)
  with
  | Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | Sys_error m -> Error m

let dial t =
  match Endpoint.connect_fd t.ep with
  | fd -> Ok fd
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Not_found -> Error (Printf.sprintf "cannot resolve %s" t.name)

let roundtrip t ~max_frame payload =
  let fresh () =
    match dial t with
    | Error m ->
      mark_dead t;
      Error m
    | Ok fd -> (
      match attempt fd ~max_frame payload with
      | Ok reply ->
        give_back t fd;
        with_lock t (fun () -> t.state <- Live);
        Ok reply
      | Error m ->
        close_fd fd;
        mark_dead t;
        Error m)
  in
  match borrow t with
  | None -> fresh ()
  | Some fd -> (
    match attempt fd ~max_frame payload with
    | Ok reply ->
      give_back t fd;
      Ok reply
    | Error _ ->
      (* The pooled connection may simply be stale (backend restarted
         behind us): one fresh dial decides between that and a dead
         backend. *)
      close_fd fd;
      fresh ())

let probe t ~timeout_s ~max_frame =
  let result =
    match dial t with
    | Error m -> Error m
    | Ok fd ->
      Fun.protect
        ~finally:(fun () -> close_fd fd)
        (fun () ->
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
           with Unix.Unix_error _ -> ());
          attempt fd ~max_frame
            (Protocol.Request.to_string
               (Protocol.Request.Health { id = J.Str "router-probe" })))
  in
  match result with
  | Error _ ->
    (* Not listening yet, or gone: only a backend that has answered
       before is declared dead. *)
    with_lock t (fun () ->
        if t.state <> Unknown then begin
          t.state <- Dead;
          close_idle_locked t
        end)
  | Ok reply -> (
    match Protocol.Response.of_string reply with
    | Ok (Protocol.Response.Health { live; draining; _ }) ->
      with_lock t (fun () ->
          t.state <- (if live then Live else Dead);
          if not live then close_idle_locked t;
          t.draining <- draining)
    | Ok _ | Error _ -> mark_dead t)
