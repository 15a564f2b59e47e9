(* The benchmark's own tests, run with `perfbench --self-test` from the
   repository root:

   - a tiny pass of every workload, untraced and traced, whose result
     line must carry every metric BENCHMARK.json names exactly once,
     with its unit;
   - the exact counts of a traced run must repeat across two runs at
     one seed;
   - a makespan off by one ulp, or an invalid schedule, must fail the
     run: non-zero exit and no result line. *)

module J = Emts_resilience.Json

let exe = Sys.executable_name

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  Buffer.contents b

(* Runs the benchmark on tiny inputs; (exit code, last stdout line). *)
let bench ~bin ?(extra = []) ~workload ~trace () =
  let args =
    [ exe; "--workload"; workload; "--seed"; "7"; "--seconds"; "1"; "--trace";
      string_of_int trace; "--tiny"; "--bin"; bin ]
    @ extra
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let out = read_all ic in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 255 in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  (code, match List.rev lines with [] -> "" | l :: _ -> l)

let spec () =
  let text = In_channel.with_open_text "BENCHMARK.json" In_channel.input_all in
  let j = Result.get_ok (J.of_string text) in
  let defs key =
    Result.get_ok (J.to_list (Option.get (J.member key j)))
    |> List.map (fun m ->
           let s k = Result.get_ok (J.to_str (Option.get (J.member k m))) in
           (s "name", s "unit"))
  in
  (defs "end_to_end", defs "per_layer")

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let result_metrics line =
  match J.of_string line with
  | Ok (J.Obj fields) -> (
    match List.map fst fields, List.assoc_opt "metrics" fields with
    | [ "correct"; "attempted"; "failed"; "metrics" ], Some (J.Obj ms)
      when List.assoc "correct" fields = J.Bool true ->
      Some
        (List.map
           (fun (name, v) ->
             let f k = Option.get (J.member k v) in
             (name, (Result.get_ok (J.to_float (f "value")), Result.get_ok (J.to_str (f "unit")))))
           ms)
    | _ -> None)
  | _ -> None

let exact_counts =
  [ "ea.evaluations"; "sched.eval.calls"; "sched.delta.full_runs";
    "sched.delta.incremental_runs"; "sched.delta.reused_steps";
    "sched.delta.scheduled_steps"; "online.replans"; "online.committed";
    "traffic.requests.emts1"; "traffic.requests.emts5"; "traffic.requests.emts10" ]

let run ~bin =
  let e2e, layers = spec () in
  check "BENCHMARK.json end_to_end matches the program" (e2e = Report.end_to_end);
  check "BENCHMARK.json per_layer matches the program" (layers = Report.per_layer);
  List.iter
    (fun workload ->
      List.iter
        (fun (trace, defs) ->
          let code, line = bench ~bin ~workload ~trace () in
          let label = Printf.sprintf "%s --trace %d" workload trace in
          check (label ^ " exits 0") (code = 0);
          match result_metrics line with
          | None -> check (label ^ " prints a result line") false
          | Some ms ->
            check (label ^ " reports every metric once, with its unit")
              (List.length ms = List.length defs
              && List.for_all
                   (fun (name, unit_) ->
                     List.length (List.filter (fun (n, _) -> n = name) ms) = 1
                     && snd (List.assoc name ms) = unit_)
                   defs);
            if trace = 1 then begin
              let _, again = bench ~bin ~workload ~trace () in
              match result_metrics again with
              | None -> check (label ^ " repeats") false
              | Some ms' ->
                check (label ^ " exact counts repeat at one seed")
                  (List.for_all
                     (fun n -> fst (List.assoc n ms) = fst (List.assoc n ms'))
                     exact_counts)
            end)
        [ (0, e2e); (1, layers) ])
    Report.workloads;
  List.iter
    (fun (workload, fault) ->
      let code, line = bench ~bin ~extra:[ "--inject"; fault ] ~workload ~trace:0 () in
      check
        (Printf.sprintf "%s with an injected %s fault fails the run" workload fault)
        (code <> 0 && result_metrics line = None))
    [ ("offline-paper", "ulp"); ("offline-paper", "invalid"); ("serve-open", "ulp") ];
  Printf.printf "%s: %d failure(s)\n" (if !failures = 0 then "PASS" else "FAIL") !failures;
  if !failures = 0 then 0 else 1
