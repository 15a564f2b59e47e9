type t = Unix_socket of string | Tcp of string * int

let parse_hostport ~flag spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "%s %S: expected HOST:PORT" flag spec)
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
    | _ -> Error (Printf.sprintf "%s %S: expected HOST:PORT" flag spec))

let parse ~flag spec =
  match String.split_on_char ':' spec with
  | "unix" :: rest when rest <> [] ->
    Ok (Unix_socket (String.concat ":" rest))
  | _ when String.contains spec '/' -> Ok (Unix_socket spec)
  | _ ->
    Result.map (fun (host, port) -> Tcp (host, port)) (parse_hostport ~flag spec)

let to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> raise Not_found
    | h -> h.Unix.h_addr_list.(0))

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_socket = function
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ()

let sockaddr = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) -> Unix.ADDR_INET (resolve_host host, port)

(* The socket's domain follows the address, so an IPv6 literal gets a
   PF_INET6 socket. *)
let with_fresh_socket addr f =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  try f fd; fd
  with e -> close_quietly fd; raise e

let connect_fd ep =
  let addr = sockaddr ep in
  with_fresh_socket addr (fun fd -> Unix.connect fd addr)

let listen_fd ?(backlog = 64) ep =
  let addr = sockaddr ep in
  unlink_socket ep;
  with_fresh_socket addr (fun fd ->
      (match ep with
      | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix_socket _ -> ());
      Unix.bind fd addr;
      Unix.listen fd backlog)

type listeners = {
  frames : (t * Unix.file_descr) list;
  http : Unix.file_descr option;
}

let close_listeners =
  List.iter (fun (ep, fd) -> close_quietly fd; unlink_socket ep)

let bind ~socket ~tcp ~http =
  let tcp_of (host, port) = Tcp (host, port) in
  let frames =
    List.filter_map Fun.id
      [ Option.map (fun path -> Unix_socket path) socket; Option.map tcp_of tcp ]
  in
  let specs =
    List.map (fun ep -> (ep, 64)) frames
    @ Option.to_list (Option.map (fun hp -> (tcp_of hp, 16)) http)
  in
  let rec go bound = function
    | [] -> Ok (List.rev bound)
    | (ep, backlog) :: rest -> (
      match listen_fd ~backlog ep with
      | fd -> go ((ep, fd) :: bound) rest
      | exception e -> (
        (* A failed start leaves nothing behind: a socket file without a
           listener would pass for a live daemon. *)
        close_listeners bound;
        unlink_socket ep;
        match (e, ep) with
        | Unix.Unix_error (err, fn, arg), _ ->
          Error (Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err))
        | Not_found, Tcp (host, _) ->
          Error (Printf.sprintf "cannot resolve host %S" host)
        | _ -> raise e))
  in
  let n = List.length frames in
  Result.map
    (fun bound ->
      { frames = List.filteri (fun i _ -> i < n) bound;
        http = Option.map snd (List.nth_opt bound n) })
    (go [] specs)

(* [select] with a short timeout keeps the loop responsive to [stop]
   without busy-waiting. *)
let accept_loop ~stop lfds handle =
  while not (stop ()) do
    match Unix.select lfds [] [] 0.2 with
    | ready, _, _ ->
      List.iter
        (fun lfd ->
          match Unix.accept ~cloexec:true lfd with
          | fd, _ -> handle fd
          | exception
              Unix.Unix_error
                ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR
                  | Unix.ECONNABORTED ),
                  _,
                  _ ) ->
            ())
        ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
