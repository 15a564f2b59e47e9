(** EMTS scheduling service: the wire protocol, endpoint addresses and
    listeners, the warm request engine, online sessions, the HTTP
    metrics sidecar, and the concurrent daemon with its one FIFO
    admission queue.  See DESIGN.md §11 for the protocol spec. *)

module Endpoint = Endpoint
module Metrics_http = Metrics_http
module Protocol = Protocol
module Engine = Engine
module Online = Online
module Server = Server
