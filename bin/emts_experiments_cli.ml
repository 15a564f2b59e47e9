(* emts-experiments: regenerate every table and figure of the paper.
   Subcommands: fig1 fig3 fig4 fig5 fig6 runtime all. *)

open Cmdliner
module E = Emts_experiments

let seed_arg =
  Arg.(
    value & opt int 0x5EED_CA11
    & info [ "seed" ] ~docv:"INT"
        ~doc:
          "Seed of the campaign-wide random stream (the paper fixes one \
           seed for all experiments).")

let scale_arg =
  Arg.(
    value & opt float 0.25
    & info [ "scale" ] ~docv:"FLOAT"
        ~doc:
          "Fraction of the paper's instance counts to run (1.0 = full \
           campaign: 400 FFT + 100 Strassen + 108 layered + 324 irregular \
           instances x 2 platforms).")

let quiet_arg =
  Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress on stderr.")

let domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"INT"
        ~doc:
          "Worker domains for parallel fitness evaluation inside each EMTS \
           run (one persistent pool per run; results are identical for any \
           value).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Record every completed (instance, platform) cell durably to \
           $(docv) (checksummed JSONL, fsynced per cell).  A crashed or \
           interrupted campaign restarted with $(b,--resume) replays the \
           recorded cells from disk and recomputes only the missing ones.  \
           Without $(b,--resume), an existing journal is discarded.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Reuse the cells already recorded in $(b,--journal) (requires it; \
           the seed, scale and classes must match the original run — \
           mismatches are detected and rejected).")

let classes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "classes" ] ~docv:"LIST"
        ~doc:
          "Comma-separated subset of PTG classes to run \
           (fft,strassen,layered,irregular).  Default: all four.")

let classes_of = function
  | None -> Ok None
  | Some spec ->
    let names =
      String.split_on_char ',' spec
      |> List.map String.trim
      |> List.filter (( <> ) "")
    in
    if names = [] then Error "--classes must name at least one class"
    else
      let rec parse acc = function
        | [] -> Ok (Some (List.rev acc))
        | name :: rest -> (
          match E.Campaign.class_of_name name with
          | Some cls -> parse (cls :: acc) rest
          | None ->
            Error
              (Printf.sprintf
                 "unknown PTG class %S (expected fft, strassen, layered or \
                  irregular)"
                 name))
      in
      parse [] names

(* Open the journal around [f] (which receives [Journal.t option]),
   closing it and reporting reuse statistics on every exit path —
   including a graceful interruption, where the journal is precisely
   the state the next run resumes from. *)
let with_journal ~journal ~resume f =
  match journal with
  | None -> if resume then Error "--resume requires --journal FILE" else f None
  | Some path -> (
    match E.Journal.open_ ~path ~resume with
    | exception Failure msg -> Error msg
    | j ->
      Fun.protect
        ~finally:(fun () ->
          E.Journal.close j;
          Printf.eprintf "journal %s: %d cell(s) reused, %d recorded\n%!" path
            (E.Journal.reused j) (E.Journal.recorded j))
        (fun () ->
          (* Journal/campaign mismatches (wrong seed, scale or classes)
             surface as [Failure] from deep inside the cell loop; turn
             them into clean CLI errors. *)
          match f (Some j) with
          | r -> r
          | exception Failure msg -> Error msg))

(* The outcome-preserving performance knob, as a config transform for
   Emts_experiments.Figures and the direct Relative.run call sites. *)
let tune_of ~domains =
  if domains < 1 then Error "domains must be >= 1"
  else Ok (Emts.Algorithm.with_domains domains)

let progress quiet =
  if quiet then fun _ -> ()
  else fun line -> Printf.eprintf "[progress] %s\n%!" line

let counts_of_scale scale =
  if not (scale > 0.) then Error "scale must be > 0"
  else Ok (E.Campaign.scaled scale)

let fig1_cmd =
  let run obs () =
    Obs_cli.with_obs obs @@ fun () ->
    print_string (E.Fig1.render ());
    Ok ()
  in
  Cmd.v
    (Cmd.info "fig1" ~doc:"PDGEMM-shaped non-monotone timings (Figure 1).")
    Term.(term_result' (const run $ Obs_cli.term $ const ()))

let fig3_cmd =
  let samples =
    Arg.(
      value & opt int 1_000_000
      & info [ "samples" ] ~docv:"INT" ~doc:"Mutation draws to histogram.")
  in
  let run obs samples seed =
    Obs_cli.with_obs obs @@ fun () ->
    if samples < 1 then Error "samples must be >= 1"
    else begin
      print_string (E.Fig3.render ~samples (Emts_prng.create ~seed ()));
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Mutation operator density (Figure 3).")
    Term.(term_result' (const run $ Obs_cli.term $ samples $ seed_arg))

let csv_arg =
  Arg.(
    value & opt (some string) None
    & info [ "csv" ] ~docv:"FILE"
        ~doc:"Additionally write machine-readable results to FILE.")

let write_csv csv groups =
  match csv with
  | None -> ()
  | Some path ->
    Emts_resilience.write_string ~path (E.Relative.to_csv groups);
    Printf.eprintf "wrote %s\n%!" path

let fig4_cmd =
  let run obs scale seed quiet csv domains journal resume classes =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    let ( let* ) = Result.bind in
    let* counts = counts_of_scale scale in
    let* tune = tune_of ~domains in
    let* classes = classes_of classes in
    with_journal ~journal ~resume @@ fun journal ->
    let rng = Emts_prng.create ~seed () in
    let groups, text =
      E.Figures.fig4 ~progress:(progress quiet) ?journal ?classes ~tune ~rng
        ~counts ()
    in
    print_string text;
    write_csv csv groups;
    Ok ()
  in
  Cmd.v
    (Cmd.info "fig4" ~doc:"Relative makespans under Model 1 (Figure 4).")
    Term.(
      term_result'
        (const run $ Obs_cli.term $ scale_arg $ seed_arg $ quiet_arg $ csv_arg
       $ domains_arg $ journal_arg $ resume_arg
       $ classes_arg))

let fig5_cmd =
  let run obs scale seed quiet csv domains journal resume classes =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    let ( let* ) = Result.bind in
    let* counts = counts_of_scale scale in
    let* tune = tune_of ~domains in
    let* classes = classes_of classes in
    with_journal ~journal ~resume @@ fun journal ->
    let rng = Emts_prng.create ~seed () in
    let (top, bottom), text =
      E.Figures.fig5 ~progress:(progress quiet) ?journal ?classes ~tune ~rng
        ~counts ()
    in
    print_string text;
    write_csv csv (top @ bottom);
    Ok ()
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Relative makespans under Model 2 (Figure 5).")
    Term.(
      term_result'
        (const run $ Obs_cli.term $ scale_arg $ seed_arg $ quiet_arg $ csv_arg
       $ domains_arg $ journal_arg $ resume_arg
       $ classes_arg))

let fig6_cmd =
  let width =
    Arg.(
      value & opt int 55
      & info [ "width" ] ~docv:"INT" ~doc:"Gantt columns per chart.")
  in
  let svg =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Additionally write the side-by-side chart as an SVG file.")
  in
  let run obs width svg seed =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    if width < 1 then Error "width must be >= 1"
    else begin
      let rng = Emts_prng.create ~seed () in
      let c =
        E.Fig6.compare_schedules ~stop:Emts_resilience.Shutdown.requested rng
      in
      print_string (E.Fig6.render ~width c);
      (match svg with
      | None -> ()
      | Some path ->
        let doc =
          Emts_sched.Svg.render_pair
            ~left:("MCPA", c.E.Fig6.mcpa_schedule)
            ~right:("EMTS10", c.E.Fig6.emts_schedule)
            ()
        in
        Emts_resilience.write_string ~path doc;
        Printf.eprintf "wrote %s\n%!" path);
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"MCPA vs EMTS10 Gantt comparison (Figure 6).")
    Term.(term_result' (const run $ Obs_cli.term $ width $ svg $ seed_arg))

let runtime_cmd =
  let run obs scale seed quiet domains journal resume classes =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    let ( let* ) = Result.bind in
    let* counts = counts_of_scale scale in
    let* tune = tune_of ~domains in
    let* classes = classes_of classes in
    with_journal ~journal ~resume @@ fun journal ->
    let scoped label = Option.map (E.Journal.scope ~label) journal in
    let rng = Emts_prng.create ~seed () in
    let emts5 =
      E.Relative.run ~progress:(progress quiet)
        ?journal:(scoped "runtime-emts5") ?classes ~rng
        ~model:Emts_model.synthetic
        ~config:(tune Emts.Algorithm.emts5)
        ~counts ()
    in
    print_string
      (E.Relative.render_runtime
         ~title:"EMTS5 optimisation time per PTG (Model 2)" emts5);
    let emts10 =
      E.Relative.run ~progress:(progress quiet)
        ?journal:(scoped "runtime-emts10") ?classes ~rng
        ~model:Emts_model.synthetic
        ~config:(tune Emts.Algorithm.emts10)
        ~counts ()
    in
    print_string
      (E.Relative.render_runtime
         ~title:"EMTS10 optimisation time per PTG (Model 2)" emts10);
    Ok ()
  in
  Cmd.v
    (Cmd.info "runtime"
       ~doc:"EMTS5/EMTS10 run-time statistics (Section V text).")
    Term.(
      term_result'
        (const run $ Obs_cli.term $ scale_arg $ seed_arg $ quiet_arg
       $ domains_arg $ journal_arg $ resume_arg
       $ classes_arg))

let all_cmd =
  let run obs scale seed quiet domains journal resume =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    let ( let* ) = Result.bind in
    let* counts = counts_of_scale scale in
    let* tune = tune_of ~domains in
    with_journal ~journal ~resume @@ fun journal ->
    let rng = Emts_prng.create ~seed () in
    print_string (E.Fig1.render ());
    print_newline ();
    print_string (E.Fig3.render (Emts_prng.create ~seed ()));
    print_newline ();
    let groups4, text4 =
      E.Figures.fig4 ~progress:(progress quiet) ?journal ~tune ~rng ~counts ()
    in
    print_string text4;
    print_newline ();
    let (top, bottom), text5 =
      E.Figures.fig5 ~progress:(progress quiet) ?journal ~tune ~rng ~counts ()
    in
    print_string text5;
    print_newline ();
    print_string
      (E.Relative.render_runtime ~title:"EMTS5 run time (Model 1)" groups4);
    print_string
      (E.Relative.render_runtime ~title:"EMTS5 run time (Model 2)" top);
    print_string
      (E.Relative.render_runtime ~title:"EMTS10 run time (Model 2)" bottom);
    print_newline ();
    let c =
      E.Fig6.compare_schedules ~stop:Emts_resilience.Shutdown.requested
        (Emts_prng.create ~seed ())
    in
    print_string (E.Fig6.render c);
    Ok ()
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run the whole campaign: every figure and table.")
    Term.(
      term_result'
        (const run $ Obs_cli.term $ scale_arg $ seed_arg $ quiet_arg
       $ domains_arg $ journal_arg $ resume_arg))

let instances_arg default =
  Arg.(
    value & opt int default
    & info [ "instances" ] ~docv:"INT" ~doc:"PTG instances per experiment.")

let ablation_cmd =
  let run obs instances seed =
    Obs_cli.with_obs obs @@ fun () ->
    if instances < 1 then Error "instances must be >= 1"
    else begin
      let rng = Emts_prng.create ~seed () in
      print_string
        (E.Ablation.render
           ~title:
             "Ablation: seeding (EMTS5, Model 2, Grelon, irregular n=100)"
           (E.Ablation.seeding ~instances ~rng ()));
      print_newline ();
      print_string
        (E.Ablation.render
           ~title:"Ablation: recombination operators (same budget)"
           (E.Ablation.crossover ~instances ~rng ()));
      print_newline ();
      print_string
        (E.Ablation.render
           ~title:"Ablation: selection & step-size strategies (plus baseline)"
           (E.Ablation.selection ~instances ~rng ()));
      print_newline ();
      print_string
        (E.Ablation.render
           ~title:"Ablation: mapping-step ready-queue priority (MCPA allocations)"
           (E.Ablation.mapping_priority ~instances ~rng ()));
      print_newline ();
      print_string
        (E.Ablation.render
           ~title:
             "Ablation: monotonizing the model (Gunther et al.) instead of \
              evolving allocations"
           (E.Ablation.monotonization ~instances ~rng ()));
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:
         "Seeding / crossover / selection / mapping / monotonization \
          ablations (DESIGN.md §5).")
    Term.(term_result' (const run $ Obs_cli.term $ instances_arg 20 $ seed_arg))

let robustness_cmd =
  let draws =
    Arg.(
      value & opt int 5
      & info [ "draws" ] ~docv:"INT" ~doc:"Noise draws per instance.")
  in
  let run obs instances draws seed =
    Obs_cli.with_obs obs @@ fun () ->
    if instances < 1 || draws < 1 then Error "instances and draws must be >= 1"
    else begin
      let rng = Emts_prng.create ~seed () in
      print_string (E.Robustness.render (E.Robustness.run ~instances ~draws ~rng ()));
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:"Execute MCPA and EMTS schedules under duration noise.")
    Term.(term_result' (const run $ Obs_cli.term $ instances_arg 10 $ draws $ seed_arg))

let sweep_cmd =
  let per_combo =
    Arg.(
      value & opt int 1
      & info [ "per-combo" ] ~docv:"INT"
          ~doc:"Instances per parameter combination.")
  in
  let run obs per_combo seed quiet =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    if per_combo < 1 then Error "per-combo must be >= 1"
    else begin
      let rng = Emts_prng.create ~seed () in
      print_string
        (E.Sweep.render
           (E.Sweep.run ~progress:(progress quiet) ~per_combo ~rng ()));
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"EMTS gain as a function of PTG size (n sweep).")
    Term.(term_result' (const run $ Obs_cli.term $ per_combo $ seed_arg $ quiet_arg))

let walltime_cmd =
  let jobs =
    Arg.(
      value & opt int 30
      & info [ "jobs" ] ~docv:"INT" ~doc:"PTG jobs in the workload.")
  in
  let run obs jobs seed =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    if jobs < 1 then Error "jobs must be >= 1"
    else begin
      let rng = Emts_prng.create ~seed () in
      print_string (E.Walltime.render (E.Walltime.run ~jobs ~rng ()));
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "walltime"
       ~doc:"Batch-level cost of walltime overestimation (EASY backfilling).")
    Term.(term_result' (const run $ Obs_cli.term $ jobs $ seed_arg))

let gaps_cmd =
  let run obs scale seed quiet =
    Obs_cli.with_obs_graceful obs @@ fun () ->
    let ( let* ) = Result.bind in
    let* counts = counts_of_scale scale in
    let rng = Emts_prng.create ~seed () in
    print_string
      (E.Gaps.render (E.Gaps.run ~progress:(progress quiet) ~rng ~counts ()));
    Ok ()
  in
  Cmd.v
    (Cmd.info "gaps"
       ~doc:"Optimality gaps: every algorithm against provable lower bounds.")
    Term.(term_result' (const run $ Obs_cli.term $ scale_arg $ seed_arg $ quiet_arg))

let convergence_cmd =
  let run obs instances seed =
    Obs_cli.with_obs obs @@ fun () ->
    if instances < 1 then Error "instances must be >= 1"
    else begin
      let rng = Emts_prng.create ~seed () in
      print_string (E.Convergence.render (E.Convergence.run ~instances ~rng ()));
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "convergence"
       ~doc:"Anytime curve: best makespan per EMTS10 generation.")
    Term.(term_result' (const run $ Obs_cli.term $ instances_arg 15 $ seed_arg))

let () =
  let info =
    Cmd.info "emts-experiments" ~version:(Obs_cli.version_string "emts-experiments")
      ~doc:
        "Reproduce the evaluation of Hunold & Lepping, CLUSTER 2011 \
         (EMTS).  See DESIGN.md for the experiment index."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig1_cmd; fig3_cmd; fig4_cmd; fig5_cmd; fig6_cmd; runtime_cmd;
            all_cmd; ablation_cmd; robustness_cmd; convergence_cmd; gaps_cmd;
            sweep_cmd; walltime_cmd;
          ]))
