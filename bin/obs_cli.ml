(* Shared observability flags for the emts binaries: --trace, --metrics,
   --metrics-json, --gc-profile, --flight-recorder and --progress behave
   identically on emts-gen, emts-sched and emts-experiments. *)

open Cmdliner

type t = {
  trace : string option;
  metrics : bool;
  metrics_json : string option;
  gc_profile : bool;
  flight : string option;
  progress : bool;
}

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace-event JSONL trace to $(docv): one JSON \
           object per line, loadable in Perfetto (ui.perfetto.dev).  \
           Parallel fitness evaluation appears as one lane per worker \
           domain.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect runtime metrics (fitness evaluations, early-reject \
           hits, ready-queue operations, ...) and print a summary table \
           after the run.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:
          "Write the collected metrics as machine-readable JSON to $(docv) \
           (implies metric collection).")

let gc_profile_arg =
  Arg.(
    value & flag
    & info [ "gc-profile" ]
        ~doc:
          "Profile allocation per fitness evaluation: record the bytes \
           (minor plus direct major words) and minor/major collection \
           counts of every evaluation into the gc.eval.* metrics \
           (implies metric collection).")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-recorder" ] ~docv:"FILE"
        ~doc:
          "Keep a fixed-size in-memory ring of recent trace events and \
           dump it to $(docv) as JSONL on SIGQUIT or on an uncaught \
           exception — a postmortem for wedged or crashing runs.")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:"Report per-generation progress lines on stderr.")

let make trace metrics metrics_json gc_profile flight progress =
  { trace; metrics; metrics_json; gc_profile; flight; progress }

let term = Term.(const make $ trace_arg $ metrics_arg $ metrics_json_arg
                 $ gc_profile_arg $ flight_arg $ progress_arg)

(* Enable the requested sinks, run [f], then flush: close the trace,
   print the metrics table to stdout and write the JSON snapshot.  The
   sinks are flushed even when [f] raises or returns an error.
   Unwritable sink paths surface as clean CLI errors, not uncaught
   [Sys_error] exceptions. *)
let with_obs t f =
  match
    match t.trace with
    | Some path -> Emts_obs.Trace.start ~path ()
    | None -> ()
  with
  | exception Sys_error msg -> Error msg
  | () ->
    if t.metrics || t.metrics_json <> None then
      Emts_obs.Metrics.set_enabled true;
    if t.gc_profile then Emts_obs.Gcprof.set_enabled true;
    (match t.flight with
    | Some path -> Emts_obs.Flight.install ~path ()
    | None -> ());
    if t.progress then Emts_obs.Progress.set_enabled true;
    let json_error = ref None in
    let finalize () =
      (match t.trace with
      | Some path ->
        Emts_obs.Trace.stop ();
        Printf.eprintf "wrote %s\n%!" path
      | None -> ());
      (match t.metrics_json with
      | Some path -> (
        try
          Out_channel.with_open_text path (fun oc ->
              Out_channel.output_string oc (Emts_obs.Metrics.to_json ()));
          Printf.eprintf "wrote %s\n%!" path
        with Sys_error msg -> json_error := Some msg)
      | None -> ());
      if t.metrics || t.gc_profile then
        print_string (Emts_obs.Metrics.render ())
    in
    let result = Fun.protect ~finally:finalize f in
    (match (result, !json_error) with
    | Ok _, Some msg -> Error msg
    | _, _ -> result)

(* Same, for commands whose loops poll the shutdown flag at unit
   boundaries (EA generations, campaign cells): install the SIGINT /
   SIGTERM handlers, and turn a graceful interruption into exit code
   130 after the sinks have been flushed by [with_obs]'s finalizer.
   Commands without stop-aware loops keep [with_obs] and the default
   kill-on-signal behaviour — installing a handler there would turn the
   first Ctrl-C into a no-op. *)
let with_obs_graceful t f =
  Emts_resilience.Shutdown.install ();
  match with_obs t f with
  | exception Emts_resilience.Interrupted ->
    (* [with_obs]'s finalizer already flushed every sink. *)
    Printf.eprintf
      "emts: interrupted — completed work is on disk; re-run to resume\n%!";
    exit Emts_resilience.Shutdown.exit_interrupted
  | r ->
    (* A stop that landed inside the final unit still finished the
       command; the distinct exit code tells wrapper scripts the run
       was cut short and a resume may add more work. *)
    if Emts_resilience.Shutdown.requested () then
      exit Emts_resilience.Shutdown.exit_interrupted
    else r

(* Every emts binary answers --version with the same
   "emts-<name> <version>" line (checked by test/cram/version.t). *)
let version = "1.0.0"
let version_string name = name ^ " " ^ version
