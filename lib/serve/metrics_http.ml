module J = Emts_resilience.Json
module Metrics = Emts_obs.Metrics

let loop ?(health_extra = fun () -> []) ~finished ~draining lfd =
  let respond fd =
    (* Read one buffer's worth of request; only the request-line path
       matters (headers are ignored). *)
    let buf = Bytes.create 2048 in
    let n =
      try Unix.read fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0
    in
    let request = Bytes.sub_string buf 0 (max n 0) in
    let path =
      let line =
        match String.index_opt request '\r' with
        | Some i -> String.sub request 0 i
        | None -> request
      in
      match String.split_on_char ' ' line with
      | _meth :: p :: _ -> p
      | _ -> "/"
    in
    let status, content_type, body =
      if path = "/healthz" || String.starts_with ~prefix:"/healthz?" path then begin
        let d = draining () in
        let body =
          J.to_string
            (J.Obj
               ([
                  ("live", J.Bool true);
                  ("ready", J.Bool (not d));
                  ("draining", J.Bool d);
                ]
               @ health_extra ()))
        in
        ((if d then "503 Service Unavailable" else "200 OK"),
         "application/json", body)
      end
      else
        ("200 OK", Protocol.openmetrics_content_type,
         Metrics.render_openmetrics ())
    in
    let resp =
      Printf.sprintf
        "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
         Connection: close\r\n\r\n%s"
        status content_type (String.length body) body
    in
    let data = Bytes.unsafe_of_string resp in
    let len = Bytes.length data in
    let rec go pos =
      if pos < len then
        match Unix.write fd data pos (len - pos) with
        | n -> go (pos + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
    in
    (try go 0 with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  Endpoint.accept_loop ~stop:finished [ lfd ] respond;
  try Unix.close lfd with Unix.Unix_error _ -> ()
