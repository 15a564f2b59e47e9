(* emts-sched: schedule a .ptg file on a platform with a chosen
   algorithm and execution-time model. *)

open Cmdliner

let graph_arg =
  let doc = "Input task graph (.ptg file)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH.ptg" ~doc)

let platform_arg =
  let doc =
    "Platform: a preset name (chti, grelon) or a platform file path."
  in
  Arg.(value & opt string "grelon" & info [ "platform" ] ~docv:"NAME|FILE" ~doc)

let model_arg =
  let doc =
    "Execution-time model: amdahl (model1), synthetic (model2), or a file of \
     measured timings ('procs seconds' per line) used as an empirical table \
     model."
  in
  Arg.(value & opt string "amdahl" & info [ "model" ] ~docv:"NAME|FILE" ~doc)

let algorithm_arg =
  let doc =
    "Scheduling algorithm: seq, cpa, hcpa, mcpa, deltacp, emts1, emts5 or \
     emts10."
  in
  Arg.(value & opt string "emts5" & info [ "algorithm" ] ~docv:"NAME" ~doc)

let seed_arg =
  Arg.(
    value & opt int 0x5EED_CA11
    & info [ "seed" ] ~docv:"INT" ~doc:"Random seed for EMTS.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"INT"
        ~doc:
          "Worker domains for parallel fitness evaluation (EMTS only; \
           results are identical for any value).  The workers form one \
           persistent pool per run.  The work counts that --metrics \
           reports (ea.early_reject.hits, ea.early_reject.misses, \
           sched.delta.scheduled_steps, sched.delta.claim_runs) are \
           exact, the same on every run, only at 1: with parallel \
           workers, which offspring are rejected early depends on \
           which evaluations finish first; the answer does not.")

let islands_arg =
  Arg.(
    value & opt int 1
    & info [ "islands" ] ~docv:"K"
        ~doc:
          "Island-model EA: evolve $(docv) independent sub-populations \
           from split PRNG streams, exchanging migrants on a ring (EMTS \
           only).  1 (default) is the plain strategy, bit-identical to \
           prior releases; results for any fixed (seed, islands, \
           interval, count) are deterministic regardless of --domains.")

let migration_interval_arg =
  Arg.(
    value & opt int 5
    & info [ "migration-interval" ] ~docv:"N"
        ~doc:
          "Generations between island ring exchanges (default 5; needs \
           --islands > 1).")

let migration_count_arg =
  Arg.(
    value & opt int 1
    & info [ "migration-count" ] ~docv:"N"
        ~doc:
          "Emigrants per island exchange (default 1; 0 isolates the \
           islands completely).")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Snapshot the EMTS optimisation state to $(docv) (atomically, \
           checksummed) after the seed ranking, every \
           $(b,--checkpoint-every) generations, and when the run stops for \
           any reason.  EMTS algorithms only.")

let checkpoint_every_arg =
  Arg.(
    value & opt int 1
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Generations between checkpoint snapshots (default 1).")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Continue from the $(b,--checkpoint) file (requires it).  The \
           resumed run is bit-identical to the uninterrupted one; a missing \
           checkpoint file falls back to a fresh run.")

let gantt_arg =
  Arg.(value & flag & info [ "gantt" ] ~doc:"Print an ASCII Gantt chart.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Print the schedule as CSV.")

let svg_arg =
  Arg.(
    value & opt (some string) None
    & info [ "svg" ] ~docv:"FILE" ~doc:"Write the schedule as an SVG file.")

let resolve_platform spec =
  match Emts_platform.find_preset spec with
  | Some p -> Ok p
  | None ->
    if Sys.file_exists spec then Emts_platform.load spec
    else Error (Printf.sprintf "unknown platform %S (no such preset or file)" spec)

let resolve_model spec =
  match Emts_model.find_preset spec with
  | Some m -> Ok m
  | None ->
    if Sys.file_exists spec then
      Result.map
        (fun table ->
          Emts_model.Empirical.model ~name:(Filename.basename spec) table)
        (Emts_model.Empirical.load spec)
    else Error (Printf.sprintf "unknown model %S (no such preset or file)" spec)

let run obs graph_file platform_spec model_spec algorithm seed domains
    islands migration_interval migration_count
    checkpoint checkpoint_every resume gantt csv svg =
  Obs_cli.with_obs_graceful obs @@ fun () ->
  let ( let* ) = Result.bind in
  if domains < 1 then Error "domains must be >= 1"
  else if checkpoint_every < 1 then Error "checkpoint-every must be >= 1"
  else if resume && checkpoint = None then
    Error "--resume requires --checkpoint FILE"
  else if islands < 1 then Error "islands must be >= 1"
  else if migration_interval < 1 then Error "migration-interval must be >= 1"
  else if migration_count < 0 then Error "migration-count must be >= 0"
  else if islands > 1 && (checkpoint <> None || resume) then
    Error "--checkpoint/--resume require --islands 1"
  else
  let* graph =
    Result.map_error Emts_resilience.Error.to_string
      (Emts_ptg.Serial.load graph_file)
  in
  let* platform = resolve_platform platform_spec in
  let* model = resolve_model model_spec in
  let ctx = Emts_alloc.Common.make_ctx ~model ~platform ~graph in
  let* alloc, schedule, label =
    match Emts.Algorithm.preset algorithm with
    | Some config ->
      let config =
        config
        |> Emts.Algorithm.with_domains domains
        |> Emts.Algorithm.with_islands ~migration_interval
             ~migration_count:(min migration_count config.Emts.Algorithm.mu)
             islands
      in
      let rng = Emts_prng.create ~seed () in
      let checkpoint =
        Option.map (fun path -> (path, checkpoint_every)) checkpoint
      in
      let* result =
        match
          Emts.Algorithm.run_ctx ~stop:Emts_resilience.Shutdown.requested
            ?checkpoint ~resume ~rng ~config ~ctx ()
        with
        | result -> Ok result
        | exception Failure msg -> Error msg
      in
      List.iter
        (fun (s : Emts.Seeding.seed) ->
          Printf.printf "seed %-8s makespan %.6g s\n" s.heuristic s.makespan)
        result.seeds;
      let completed =
        List.length result.ea.Emts_ea.history - 1
      in
      if completed < config.Emts.Algorithm.generations then
        Printf.eprintf
          "emts: stopped after generation %d/%d — best-so-far below; resume \
           with --resume\n%!"
          completed config.Emts.Algorithm.generations;
      Ok (result.alloc, result.schedule, String.uppercase_ascii algorithm)
    | None when checkpoint <> None || resume ->
      Error "--checkpoint/--resume apply to EMTS algorithms only"
    | None -> (
      match Emts_alloc.find algorithm with
      | Some h ->
        let alloc = h.allocate ctx in
        Ok (alloc, Emts.Algorithm.schedule_allocation ~ctx alloc, h.name)
      | None -> Error (Printf.sprintf "unknown algorithm %S" algorithm))
  in
  (match Emts_sched.Schedule.validate ~alloc schedule ~graph with
  | Ok () -> ()
  | Error violations ->
    (* Cannot happen with the built-in list scheduler; fail loudly. *)
    List.iter
      (fun v ->
        Format.eprintf "schedule violation: %a@."
          Emts_sched.Schedule.pp_violation v)
      violations;
    exit 2);
  Printf.printf "%s makespan   %.6g s\n" label
    (Emts_sched.Schedule.makespan schedule);
  Printf.printf "utilization     %.1f %%\n"
    (100. *. Emts_sched.Schedule.utilization schedule);
  Printf.printf "total allocation %d procs over %d tasks (platform: %s)\n"
    (Array.fold_left ( + ) 0 alloc)
    (Array.length alloc) platform.Emts_platform.name;
  if gantt then print_string (Emts_sched.Gantt.render ~width:100 schedule);
  if csv then print_string (Emts_sched.Schedule.to_csv schedule);
  (match svg with
  | None -> ()
  | Some path ->
    Emts_sched.Svg.save schedule path;
    Printf.eprintf "wrote %s\n%!" path);
  Ok ()

let () =
  let info =
    Cmd.info "emts-sched" ~version:(Obs_cli.version_string "emts-sched")
      ~doc:"Schedule a parallel task graph onto a homogeneous cluster."
  in
  let term =
    Term.(
      term_result'
        (const run $ Obs_cli.term $ graph_arg $ platform_arg $ model_arg
       $ algorithm_arg $ seed_arg $ domains_arg $ islands_arg
       $ migration_interval_arg $ migration_count_arg $ checkpoint_arg
       $ checkpoint_every_arg $ resume_arg $ gantt_arg $ csv_arg $ svg_arg))
  in
  exit (Cmd.eval (Cmd.v info term))
