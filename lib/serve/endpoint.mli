(** Server endpoints: one address grammar for every daemon and client,
    and the listeners both daemons bind.

    The serve daemon, the router and the load generator all take
    addresses on their command lines ([--socket], [--listen],
    [--connect], [--backend]) and historically each parsed its own.
    This module is the single shared grammar:

    - ["unix:PATH"] or any spec containing ['/'] is a Unix-domain
      socket path;
    - anything else must be ["HOST:PORT"] (the port split on the
      {e last} [':'], so IPv6-ish hosts with colons still parse).

    Parse errors quote the offending flag and spec verbatim — these
    strings are pinned by the cram tests, so clients get the same
    message no matter which binary they typed it at. *)

type t =
  | Unix_socket of string  (** Unix-domain socket path *)
  | Tcp of string * int  (** host (name or literal address), port *)

val parse_hostport : flag:string -> string -> (string * int, string) result
(** [parse_hostport ~flag spec] splits [spec] on its last [':'] into a
    non-empty host and a port in \[1, 65535\].  [Error] messages read
    ["<flag> <spec>: expected HOST:PORT"]. *)

val parse : flag:string -> string -> (t, string) result
(** Full grammar: ["unix:PATH"] / a spec containing ['/'] parse as
    {!Unix_socket}; everything else goes through {!parse_hostport}. *)

val to_string : t -> string
(** ["unix:PATH"] or ["HOST:PORT"] — [parse] round-trips it. *)

val resolve_host : string -> Unix.inet_addr
(** Literal address, else first [gethostbyname] answer.
    @raise Not_found when the host does not resolve. *)

val connect_fd : t -> Unix.file_descr
(** Connect a fresh cloexec stream socket to the endpoint.  The
    socket's domain follows the resolved address, so an IPv6 literal
    such as [::1] gets a [PF_INET6] socket.  The descriptor is closed
    again if [connect] itself fails.
    @raise Unix.Unix_error on connection failure.
    @raise Not_found when a TCP host does not resolve. *)

val listen_fd : ?backlog:int -> t -> Unix.file_descr
(** Bind and listen (default [backlog] 64) on a socket whose domain
    follows the address, as {!connect_fd}'s does.  An existing Unix
    socket path is unlinked first; TCP listeners set [SO_REUSEADDR].
    @raise Unix.Unix_error on bind failure.
    @raise Not_found when a TCP host does not resolve. *)

(** {1 Listeners}

    [emts-serve] and [emts-router] both bind and accept through these. *)

type listeners = {
  frames : (t * Unix.file_descr) list;
      (** frame-protocol listeners: the Unix socket, then TCP *)
  http : Unix.file_descr option;  (** the {!Metrics_http} sidecar *)
}

val bind :
  socket:string option ->
  tcp:(string * int) option ->
  http:(string * int) option ->
  (listeners, string) result
(** Bind and listen on every configured address, as {!listen_fd} does
    (backlog 64 for frames, 16 for the sidecar).  If any bind fails,
    everything bound so far is closed and the Unix socket path is
    unlinked, so a failed start leaves no socket file that would pass
    for a live daemon.  [Error] reads ["FN(ARG): MESSAGE"] or
    ["cannot resolve host \"HOST\""]. *)

val close_listeners : (t * Unix.file_descr) list -> unit
(** Close each listener and unlink its Unix socket path. *)

val accept_loop :
  stop:(unit -> bool) -> Unix.file_descr list -> (Unix.file_descr -> unit) -> unit
(** Accept on every listener until [stop ()], handing each accepted
    cloexec descriptor to the handler.  [stop] is checked before each
    wait for a connection, which lasts at most 0.2 s; transient accept
    errors are skipped. *)
