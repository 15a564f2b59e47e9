module Error = struct
  type t = { file : string; line : int option; msg : string }

  let make ?line ~file msg = { file; line; msg }

  let to_string = function
    | { file; line = Some l; msg } -> Printf.sprintf "%s: line %d: %s" file l msg
    | { file; line = None; msg } -> Printf.sprintf "%s: %s" file msg
end

exception Interrupted

(* ------------------------------------------------------------------ *)

let fsync_channel oc =
  (* Data durability is best-effort on exotic filesystems: an fsync
     refusal (EINVAL on some tmpfs setups) must not fail the write. *)
  try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Unix.fsync fd with Unix.Unix_error _ -> ());
    Unix.close fd

(* Fault hook for the injection layer (lib/fault): called with the
   destination path before the temporary file is created, so an
   injected ENOSPC/EIO aborts the write with the previous file intact —
   the same contract as a raising producer.  A plain closure slot
   rather than a dependency: resilience sits below fault in the
   library graph. *)
let write_fault : (string -> unit) option Atomic.t = Atomic.make None
let set_write_fault f = Atomic.set write_fault f

let write_file ~path f =
  (match Atomic.get write_fault with None -> () | Some hook -> hook path);
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match f oc with
  | () ->
    flush oc;
    fsync_channel oc;
    close_out oc
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt);
  Sys.rename tmp path;
  fsync_dir (Filename.dirname path)

let write_string ~path s = write_file ~path (fun oc -> output_string oc s)

(* ------------------------------------------------------------------ *)

module Crc32 = struct
  (* CRC-32/ISO-HDLC (the zlib/PNG polynomial), table-driven. *)
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref (Int32.of_int n) in
           for _ = 0 to 7 do
             c :=
               if Int32.logand !c 1l <> 0l then
                 Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
               else Int32.shift_right_logical !c 1
           done;
           !c))

  let string s =
    let table = Lazy.force table in
    let crc = ref 0xFFFFFFFFl in
    String.iter
      (fun ch ->
        let idx =
          Int32.to_int (Int32.logand (Int32.logxor !crc (Int32.of_int (Char.code ch))) 0xFFl)
        in
        crc := Int32.logxor table.(idx) (Int32.shift_right_logical !crc 8))
      s;
    Int32.logxor !crc 0xFFFFFFFFl

  let to_hex c = Printf.sprintf "%08lx" c
end

(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let float x = if Float.is_finite x then Num x
    else if Float.is_nan x then Str "nan"
    else if x > 0. then Str "inf"
    else Str "-inf"

  let escape buf s =
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
      s

  let to_string v =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num x ->
        (* A raw [Num nan] / [Num inf] (constructed without {!float})
           must not leak a bare [nan]/[inf] token — that is not JSON.
           NaN carries no value, so it serialises as [null]; infinities
           use the same string encoding {!float} chooses, which
           {!to_float} round-trips. *)
        if Float.is_nan x then Buffer.add_string buf "null"
        else if x = infinity then Buffer.add_string buf "\"inf\""
        else if x = neg_infinity then Buffer.add_string buf "\"-inf\""
        else if Float.is_integer x && Float.abs x < 1e15 then
          Buffer.add_string buf (Printf.sprintf "%.0f" x)
        else Buffer.add_string buf (Printf.sprintf "%.17g" x)
      | Str s ->
        Buffer.add_char buf '"';
        escape buf s;
        Buffer.add_char buf '"'
      | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '"';
            escape buf k;
            Buffer.add_string buf "\":";
            go item)
          fields;
        Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Parse of string

  let of_string text =
    let n = String.length text in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      if !pos < n && text.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      if
        !pos + String.length word <= n
        && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "expected %S" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match text.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match text.[!pos] with
          | '"' -> Buffer.add_char buf '"'; advance ()
          | '\\' -> Buffer.add_char buf '\\'; advance ()
          | '/' -> Buffer.add_char buf '/'; advance ()
          | 'n' -> Buffer.add_char buf '\n'; advance ()
          | 't' -> Buffer.add_char buf '\t'; advance ()
          | 'r' -> Buffer.add_char buf '\r'; advance ()
          | 'b' -> Buffer.add_char buf '\b'; advance ()
          | 'f' -> Buffer.add_char buf '\012'; advance ()
          | 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub text !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 0x100 ->
              Buffer.add_char buf (Char.chr code);
              pos := !pos + 4
            | Some _ -> fail "non-latin \\u escape unsupported"
            | None -> fail "bad \\u escape")
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
        | c -> Buffer.add_char buf c; advance (); go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char text.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some x -> Num x
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec fields acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields ((key, v) :: acc)
            | Some '}' -> advance (); List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse msg -> Result.Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_float = function
    | Num x -> Ok x
    | Str "inf" -> Ok infinity
    | Str "-inf" -> Ok neg_infinity
    | Str "nan" -> Ok Float.nan
    | _ -> Result.Error "expected a number"

  let to_int = function
    | Num x when Float.is_integer x -> Ok (int_of_float x)
    | _ -> Result.Error "expected an integer"

  let to_str = function Str s -> Ok s | _ -> Result.Error "expected a string"
  let to_list = function List l -> Ok l | _ -> Result.Error "expected an array"
  let to_obj = function Obj o -> Ok o | _ -> Result.Error "expected an object"
end

(* ------------------------------------------------------------------ *)

(* Framing shared by Jsonl and Checksummed: "%08x <payload>". *)
let frame payload = Crc32.to_hex (Crc32.string payload) ^ " " ^ payload

let unframe line =
  if String.length line < 9 || line.[8] <> ' ' then None
  else
    let payload = String.sub line 9 (String.length line - 9) in
    if String.equal (String.sub line 0 8) (Crc32.to_hex (Crc32.string payload))
    then Some payload
    else None

let reject_newline who payload =
  if String.contains payload '\n' then
    invalid_arg (who ^ ": payload must not contain a newline")

module Jsonl = struct
  type writer = { path : string; mutable oc : out_channel option }

  let open_append path =
    let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path in
    { path; oc = Some oc }

  let append w payload =
    reject_newline "Emts_resilience.Jsonl.append" payload;
    match w.oc with
    | None -> invalid_arg "Emts_resilience.Jsonl.append: writer is closed"
    | Some oc ->
      output_string oc (frame payload);
      output_char oc '\n';
      flush oc;
      fsync_channel oc

  let close w =
    match w.oc with
    | None -> ()
    | Some oc ->
      w.oc <- None;
      close_out oc

  type loaded = { records : string list; dropped : int }

  let load path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Result.Error (Error.make ~file:path msg)
    | text ->
      let lines = String.split_on_char '\n' text in
      (* A well-formed file ends with a newline, so the split yields a
         trailing "" element; anything else after the last newline is a
         torn append. *)
      let rec scan acc count = function
        | [] | [ "" ] -> Ok { records = List.rev acc; dropped = 0 }
        | line :: rest -> (
          match unframe line with
          | Some payload -> scan (payload :: acc) (count + 1) rest
          | None ->
            let dropped =
              List.length (line :: rest)
              - (match List.rev rest with "" :: _ -> 1 | _ -> 0)
            in
            Ok { records = List.rev acc; dropped })
      in
      scan [] 0 lines

  let rewrite path records =
    write_file ~path (fun oc ->
        List.iter
          (fun payload ->
            reject_newline "Emts_resilience.Jsonl.rewrite" payload;
            output_string oc (frame payload);
            output_char oc '\n')
          records)
end

module Checksummed = struct
  let save ~path payload =
    reject_newline "Emts_resilience.Checksummed.save" payload;
    write_string ~path (frame payload ^ "\n")

  let load ~path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error msg -> Result.Error (Error.make ~file:path msg)
    | text -> (
      (* [save] always ends the record with a newline and writes the file
         atomically, so a record without one was truncated. *)
      match
        Option.bind (String.index_opt text '\n') (fun i ->
            unframe (String.sub text 0 i))
      with
      | Some payload -> Ok payload
      | None ->
        Result.Error
          (Error.make ~file:path "corrupt file (checksum mismatch or torn write)"))
end

(* ------------------------------------------------------------------ *)

module Shutdown = struct
  let flag = Atomic.make false
  let installed = ref false
  let exit_interrupted = 130

  let requested () = Atomic.get flag
  let request () = Atomic.set flag true
  let reset () = Atomic.set flag false
  let check () = if requested () then raise Interrupted

  let handle _signum =
    if Atomic.get flag then begin
      (* Second signal: the user means it.  Skip at_exit — a handler
         can fire while the interrupted code holds a sink lock, and a
         flushing at_exit would deadlock on it. *)
      prerr_string "emts: second signal, exiting immediately\n";
      Unix._exit (exit_interrupted + 1)
    end
    else begin
      Atomic.set flag true;
      prerr_string
        "emts: stop requested; finishing the current unit (signal again to \
         exit immediately)\n"
    end

  let install () =
    if not !installed then begin
      installed := true;
      ignore (Sys.signal Sys.sigint (Sys.Signal_handle handle));
      ignore (Sys.signal Sys.sigterm (Sys.Signal_handle handle))
    end
end
