(* perfbench: the repository benchmark.  See README.md in this directory.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-test

   The last line of standard output is one JSON object: correct,
   attempted, failed and metrics (the end-to-end metrics untraced, the
   per-layer metrics traced).  A correctness-gate violation exits 1
   without printing it. *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;
  inject : Offline.inject;
  bin : string;
  out : string;
}

let run_workload o =
  let trace_path =
    Filename.concat o.out (o.workload ^ ".trace.jsonl")
  in
  let offline w =
    if o.traced then Offline.run_traced w ~seconds:o.seconds ~trace_path
    else Offline.run ~name:o.workload w ~seconds:o.seconds ~inject:o.inject
  in
  match o.workload with
  | "offline-paper" ->
    offline
      (Offline.make ~algorithm:"emts10"
         ~corpus:(Corpus.offline_paper ~tiny:o.tiny ~seed:o.seed)
         ~warmup:(List.hd (Corpus.offline_paper ~tiny:o.tiny ~seed:0)))
  | "offline-large" ->
    offline
      (Offline.make ~algorithm:"emts5"
         ~corpus:(Corpus.offline_large ~tiny:o.tiny ~seed:o.seed)
         ~warmup:(List.hd (Corpus.offline_large ~tiny:o.tiny ~seed:0)))
  | "serve-open" ->
    Serve_open.run ~bin:o.bin ~dir:o.out ~seed:o.seed ~seconds:o.seconds ~tiny:o.tiny
      ~traced:o.traced ~inject:o.inject ~trace_path
  | "online-sessions" ->
    Online_sessions.run ~bin:o.bin ~dir:o.out ~seed:o.seed ~seconds:o.seconds ~tiny:o.tiny
      ~traced:o.traced ~trace_path
  | w -> invalid_arg ("unknown workload " ^ w)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let tiny = ref false and inject = ref "none" and self_test = ref false in
  let bin = ref "_build/install/default/bin" and out = ref ".perfbench-out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " Report.workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--tiny", Arg.Set tiny, " tiny inputs (self-test)");
      ("--inject", Arg.Set_string inject, "none|ulp|invalid break an output (self-test)");
      ("--bin", Arg.Set_string bin, "DIR where emts-serve and emts-router are");
      ("--out", Arg.Set_string out, "DIR traces, sockets and daemon logs");
      ("--self-test", Arg.Set self_test, " run the benchmark's own tests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  try
    if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
    if !self_test then exit (Selftest.run ~bin:!bin);
    let usage m =
      prerr_endline ("perfbench: " ^ m);
      exit 2
    in
    if not (List.mem !workload Report.workloads) then
      usage ("--workload must be one of " ^ String.concat ", " Report.workloads);
    if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
    if not (!seconds > 0.) then usage "--seconds must be positive";
    let inject =
      match !inject with
      | "none" -> Offline.No_fault
      | "ulp" -> Offline.Ulp
      | "invalid" -> Offline.Invalid_schedule
      | s -> usage ("bad --inject " ^ s)
    in
    let o =
      {
        workload = !workload;
        seed = !seed;
        seconds = !seconds;
        traced = !trace = 1;
        tiny = !tiny;
        inject;
        bin = !bin;
        out = !out;
      }
    in
    let outcome = run_workload o in
    Report.emit ~defs:(if o.traced then Report.per_layer else Report.end_to_end) outcome
  with e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 3
