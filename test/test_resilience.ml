(* Tests for the crash-safety substrate: durable writes, CRC-32, the
   JSON codec, checksummed JSONL logs, checksummed single-record files
   and the cooperative shutdown flag. *)

module R = Emts_resilience
module Json = R.Json

let in_tmpdir f =
  let dir = Filename.temp_file "emts_resilience" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> Sys.remove (Filename.concat dir name))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* --- Error --- *)

let test_error_to_string () =
  Alcotest.(check string)
    "with line" "g.ptg: line 7: bad task"
    (R.Error.to_string (R.Error.make ~line:7 ~file:"g.ptg" "bad task"));
  Alcotest.(check string)
    "without line" "g.ptg: missing header"
    (R.Error.to_string (R.Error.make ~file:"g.ptg" "missing header"))

(* --- write_file --- *)

let test_write_file_basic () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "out.txt" in
  R.write_string ~path "hello\n";
  Alcotest.(check string) "content" "hello\n" (read_file path);
  R.write_string ~path "replaced\n";
  Alcotest.(check string) "overwrite" "replaced\n" (read_file path)

let test_write_file_failure_keeps_old () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "out.txt" in
  R.write_string ~path "precious\n";
  (match
     R.write_file ~path (fun oc ->
         output_string oc "partial";
         failwith "producer crashed")
   with
  | () -> Alcotest.fail "expected the producer exception to propagate"
  | exception Failure _ -> ());
  Alcotest.(check string) "old content intact" "precious\n" (read_file path);
  Alcotest.(check bool) "no temporary left behind" false
    (Array.exists
       (fun n -> Filename.check_suffix n ".tmp")
       (Sys.readdir dir))

(* --- Crc32 --- *)

let test_crc32_known_value () =
  (* The standard CRC-32 check value: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int32) "check value" 0xCBF43926l (R.Crc32.string "123456789");
  Alcotest.(check string) "hex rendering" "cbf43926"
    (R.Crc32.to_hex (R.Crc32.string "123456789"));
  Alcotest.(check int32) "empty string" 0l (R.Crc32.string "")

(* --- Json --- *)

let json_round_trip v =
  match Json.of_string (Json.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_round_trip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Num 0.;
      Json.Num (-1.5);
      Json.Num 0.1;
      Json.Num 1e300;
      Json.Num 4.9e-324;
      Json.Str "";
      Json.Str "with \"quotes\" and \\ and \t tab";
      Json.Str "journal/fig4/chti/17";
      Json.List [ Json.Num 1.; Json.Str "two"; Json.Null ];
      Json.Obj
        [
          ("key", Json.Str "a/b/0");
          ("makespan", Json.Num 123.456789012345678);
          ("heuristics", Json.Obj [ ("mcpa", Json.Num 1.5) ]);
        ];
    ]
  in
  List.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "case %d round-trips" i)
        true (json_round_trip v))
    cases

let test_json_nonfinite () =
  Alcotest.(check bool) "inf encodes as string" true
    (Json.float infinity = Json.Str "inf");
  let check_back label v expect =
    match Json.to_float (Json.float v) with
    | Ok x ->
      if Float.is_nan expect then
        Alcotest.(check bool) label true (Float.is_nan x)
      else Alcotest.(check (float 0.)) label expect x
    | Error e -> Alcotest.fail (label ^ ": " ^ e)
  in
  check_back "inf" infinity infinity;
  check_back "-inf" neg_infinity neg_infinity;
  check_back "nan" Float.nan Float.nan;
  check_back "finite" 1.25 1.25;
  (* A raw [Num] that slipped past {!Json.float} must still emit valid
     JSON: NaN degrades to [null], infinities to the string encoding. *)
  Alcotest.(check string)
    "raw Num nan emits null" "null"
    (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string)
    "raw Num inf emits string" "\"inf\""
    (Json.to_string (Json.Num infinity));
  Alcotest.(check string)
    "raw Num -inf emits string" "\"-inf\""
    (Json.to_string (Json.Num neg_infinity));
  let doc =
    Json.to_string
      (Json.Obj [ ("a", Json.Num Float.nan); ("b", Json.Num infinity) ])
  in
  match Json.of_string doc with
  | Error e -> Alcotest.fail ("raw non-finite doc does not parse: " ^ e)
  | Ok v ->
    Alcotest.(check bool) "nan field is null" true
      (Json.member "a" v = Some Json.Null);
    Alcotest.(check bool) "inf field round-trips" true
      (match Json.member "b" v with
      | Some j -> Json.to_float j = Ok infinity
      | None -> false)

let test_json_no_newline () =
  let v =
    Json.Obj [ ("a", Json.Str "multi\nline"); ("b", Json.List [ Json.Num 1. ]) ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "single line" false (String.contains s '\n');
  Alcotest.(check bool) "round-trips" true (json_round_trip v)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S parsed" s)
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ]

(* Strings in this codec are byte strings: every byte value 0..255 must
   survive encode → parse unchanged, whether it needs an escape ('"',
   '\\', control characters) or passes through raw (non-ASCII bytes,
   DEL).  The serve protocol ships PTG text through [Str], so any gap
   here is a wire-corruption bug. *)
let test_json_string_escaping_edges () =
  for code = 0 to 255 do
    let s = String.make 1 (Char.chr code) in
    Alcotest.(check bool)
      (Printf.sprintf "byte 0x%02x round-trips" code)
      true
      (json_round_trip (Json.Str s))
  done;
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S round-trips" s)
        true
        (json_round_trip (Json.Str s)))
    [
      "\"";
      "\\";
      "\\\"";
      "a\"b\\c\"d";
      "\x00\x01\x02\x1f\x7f";
      "tab\there\nnewline\rreturn";
      "h\xc3\xa9llo";  (* UTF-8 bytes pass through verbatim *)
      String.init 256 Char.chr;
      "trailing backslash \\";
    ];
  (* Escapes the encoder never emits must still parse. *)
  let parses_to expect text =
    match Json.of_string text with
    | Ok (Json.Str s) -> Alcotest.(check string) text expect s
    | Ok _ -> Alcotest.fail (text ^ ": parsed to a non-string")
    | Error e -> Alcotest.fail (text ^ ": " ^ e)
  in
  parses_to "A" {|"A"|};
  parses_to "\xff" "\"\\u00ff\"";
  parses_to "/" {|"\/"|};
  parses_to "\b\012" {|"\b\f"|};
  (* ... and broken escapes must be rejected, not mangled. *)
  List.iter
    (fun text ->
      match Json.of_string text with
      | Ok _ -> Alcotest.fail (text ^ " parsed")
      | Error _ -> ())
    [ "\"\\u0100\""; {|"\uzzzz"|}; {|"\u00f"|}; {|"\x41"|}; {|"\"|} ]

(* --- Json properties --- *)

let json_gen =
  let open QCheck.Gen in
  let byte_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_bound 12) in
  (* Finite floats only: non-finite values encode as strings by design
     (covered by [test_json_nonfinite]), and [Num nan <> Num nan]. *)
  let finite_float =
    map2 (fun m e -> Float.ldexp m e) (float_bound_inclusive 1.) (int_range (-60) 60)
  in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Num f) finite_float;
        map (fun i -> Json.Num (float_of_int i)) small_signed_int;
        map (fun s -> Json.Str s) byte_string;
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_bound 4) (pair byte_string (self (depth - 1)))) );
          ])
    3

let json_arb =
  QCheck.make ~print:(fun v -> Json.to_string v) json_gen

let prop_json_round_trip =
  QCheck.Test.make ~name:"to_string |> of_string is the identity" ~count:500
    json_arb json_round_trip

let prop_json_single_line =
  QCheck.Test.make ~name:"to_string never emits a newline" ~count:500 json_arb
    (fun v -> not (String.contains (Json.to_string v) '\n'))

(* --- Jsonl --- *)

let test_jsonl_append_load () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "log.jsonl" in
  let w = R.Jsonl.open_append path in
  R.Jsonl.append w "{\"a\":1}";
  R.Jsonl.append w "{\"b\":2}";
  R.Jsonl.close w;
  R.Jsonl.close w;
  (* idempotent *)
  let w = R.Jsonl.open_append path in
  R.Jsonl.append w "{\"c\":3}";
  R.Jsonl.close w;
  match R.Jsonl.load path with
  | Error e -> Alcotest.fail (R.Error.to_string e)
  | Ok { records; dropped } ->
    Alcotest.(check (list string))
      "records in order"
      [ "{\"a\":1}"; "{\"b\":2}"; "{\"c\":3}" ]
      records;
    Alcotest.(check int) "clean file" 0 dropped

let test_jsonl_torn_tail () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "log.jsonl" in
  let w = R.Jsonl.open_append path in
  R.Jsonl.append w "one";
  R.Jsonl.append w "two";
  R.Jsonl.close w;
  (* Simulate a crash mid-append: a partial line with no newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "deadbeef {\"tr";
  close_out oc;
  (match R.Jsonl.load path with
  | Error e -> Alcotest.fail (R.Error.to_string e)
  | Ok { records; dropped } ->
    Alcotest.(check (list string)) "prefix kept" [ "one"; "two" ] records;
    Alcotest.(check int) "torn line dropped" 1 dropped);
  (* A corrupt checksum mid-file truncates there, dropping the rest. *)
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "")
  in
  let oc = open_out path in
  List.iteri
    (fun i l ->
      let l = if i = 0 then "00000000" ^ String.sub l 8 (String.length l - 8)
        else l
      in
      output_string oc (l ^ "\n"))
    lines;
  close_out oc;
  match R.Jsonl.load path with
  | Error e -> Alcotest.fail (R.Error.to_string e)
  | Ok { records; dropped } ->
    Alcotest.(check (list string)) "nothing before corruption" [] records;
    Alcotest.(check bool) "everything after dropped" true (dropped >= 2)

let test_jsonl_rewrite () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "log.jsonl" in
  let w = R.Jsonl.open_append path in
  R.Jsonl.append w "stale";
  R.Jsonl.close w;
  R.Jsonl.rewrite path [ "fresh-1"; "fresh-2" ];
  match R.Jsonl.load path with
  | Error e -> Alcotest.fail (R.Error.to_string e)
  | Ok { records; dropped } ->
    Alcotest.(check (list string)) "replaced" [ "fresh-1"; "fresh-2" ] records;
    Alcotest.(check int) "clean" 0 dropped

let test_jsonl_rejects_newline () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "log.jsonl" in
  let w = R.Jsonl.open_append path in
  Fun.protect
    ~finally:(fun () -> R.Jsonl.close w)
    (fun () ->
      match R.Jsonl.append w "a\nb" with
      | () -> Alcotest.fail "newline payload accepted"
      | exception Invalid_argument _ -> ())

(* --- Checksummed --- *)

let test_checksummed_round_trip () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "ckpt" in
  let payload = "{\"magic\":\"emts-ea-checkpoint\",\"generation\":17}" in
  R.Checksummed.save ~path payload;
  (match R.Checksummed.load ~path with
  | Ok p -> Alcotest.(check string) "round-trip" payload p
  | Error e -> Alcotest.fail (R.Error.to_string e));
  (* Flip one byte of the payload: the checksum must catch it. *)
  let raw = read_file path in
  let flipped = Bytes.of_string raw in
  let i = String.length raw - 2 in
  Bytes.set flipped i (if Bytes.get flipped i = 'x' then 'y' else 'x');
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc flipped);
  (match R.Checksummed.load ~path with
  | Ok _ -> Alcotest.fail "corruption not detected"
  | Error e ->
    Alcotest.(check string) "error names the file" path e.file);
  match R.Checksummed.load ~path:(Filename.concat dir "absent") with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error _ -> ()

(* Every strict prefix of a saved record is a truncation, including the
   one that drops only the trailing newline. *)
let test_checksummed_truncation () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "ckpt" in
  R.Checksummed.save ~path "{\"generation\":3}";
  let raw = read_file path in
  for cut = 0 to String.length raw - 1 do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub raw 0 cut));
    match R.Checksummed.load ~path with
    | Ok _ ->
      Alcotest.failf "truncation at %d of %d accepted" cut (String.length raw)
    | Error _ -> ()
  done

(* --- Shutdown --- *)

let test_shutdown_flag () =
  R.Shutdown.reset ();
  Alcotest.(check bool) "initially clear" false (R.Shutdown.requested ());
  R.Shutdown.check ();
  (* no raise *)
  R.Shutdown.request ();
  Alcotest.(check bool) "set after request" true (R.Shutdown.requested ());
  (match R.Shutdown.check () with
  | () -> Alcotest.fail "check did not raise"
  | exception R.Interrupted -> ());
  R.Shutdown.reset ();
  Alcotest.(check bool) "clear after reset" false (R.Shutdown.requested ());
  Alcotest.(check int) "exit code" 130 R.Shutdown.exit_interrupted

let () =
  Alcotest.run "resilience"
    [
      ("error", [ Alcotest.test_case "to_string" `Quick test_error_to_string ]);
      ( "write_file",
        [
          Alcotest.test_case "basic" `Quick test_write_file_basic;
          Alcotest.test_case "failure keeps old content" `Quick
            test_write_file_failure_keeps_old;
        ] );
      ("crc32", [ Alcotest.test_case "known value" `Quick test_crc32_known_value ]);
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
          Alcotest.test_case "single line" `Quick test_json_no_newline;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "string escaping edges" `Quick
            test_json_string_escaping_edges;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          QCheck_alcotest.to_alcotest prop_json_single_line;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "append/load" `Quick test_jsonl_append_load;
          Alcotest.test_case "torn tail" `Quick test_jsonl_torn_tail;
          Alcotest.test_case "rewrite" `Quick test_jsonl_rewrite;
          Alcotest.test_case "rejects newline" `Quick test_jsonl_rejects_newline;
        ] );
      ( "checksummed",
        [
          Alcotest.test_case "round trip + corruption" `Quick
            test_checksummed_round_trip;
          Alcotest.test_case "every truncation rejected" `Quick
            test_checksummed_truncation;
        ] );
      ("shutdown", [ Alcotest.test_case "flag" `Quick test_shutdown_flag ]);
    ]
