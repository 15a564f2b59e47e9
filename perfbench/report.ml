(* Metric names, units and the result line.

   Every workload reports every metric below, so the result line has the
   same keys whatever runs.  The end-to-end metrics take a per-workload
   meaning (README.md); a per-layer metric reads 0 on a workload that
   does not reach that layer. *)

let workloads = [ "offline-paper"; "offline-large"; "serve-open"; "online-sessions" ]

let end_to_end =
  [
    ("setup_s", "s");
    ("op_s.gmean", "s");
    ("ops_per_s", "1/s");
    ("quality_ratio", "ratio");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("ptg.parse.calls", "count");
    ("ptg.parse.s", "s");
    ("ptg.parse.mb_per_s", "MB/s");
    ("alloc.tables.s", "s");
    ("alloc.seed.mcpa.s", "s");
    ("alloc.seed.hcpa.s", "s");
    ("alloc.seed.deltacp.s", "s");
    ("alloc.seed.seq.s", "s");
    ("sched.list.calls", "count");
    ("sched.list.s", "s");
    ("sched.eval.calls", "count");
    ("sched.eval.s", "s");
    ("sched.eval.ns_per_call", "ns");
    ("sched.eval.bytes_per_call", "B");
    ("sched.delta.full_runs", "count");
    ("sched.delta.incremental_runs", "count");
    ("sched.delta.reused_steps", "count");
    ("sched.delta.scheduled_steps", "count");
    ("sched.delta.incremental_share", "ratio");
    ("sched.delta.reuse_share", "ratio");
    ("ea.generations", "count");
    ("ea.evaluations", "count");
    ("ea.self_s", "s");
    ("core.mutate.s", "s");
    ("split.parse_share", "ratio");
    ("split.tables_share", "ratio");
    ("split.seeding_share", "ratio");
    ("split.ea_share", "ratio");
    ("split.final_share", "ratio");
    ("pool.cache.hit_share", "ratio");
    ("serve.queue_wait_s.p50", "s");
    ("serve.queue_wait_s.p95", "s");
    ("serve.solve_s.p50", "s");
    ("serve.solve_s.p95", "s");
    ("serve.encode_s.p50", "s");
    ("serve.steals", "count");
    ("serve.rejected", "count");
    ("serve.ping_rtt_s.p50", "s");
    ("protocol.client_s.p50", "s");
    ("traffic.requests.emts1", "count");
    ("traffic.requests.emts5", "count");
    ("traffic.requests.emts10", "count");
    ("traffic.instance_repeat_share", "ratio");
    ("traffic.exact_repeat_share", "ratio");
    ("loadgen.lag_s.p99", "s");
    ("loadgen.lag_s.max", "s");
    ("loadgen.lag_flagged", "count");
    ("online.submit_s.p50", "s");
    ("online.advance_s.p50", "s");
    ("online.submit.s", "s");
    ("online.advance.s", "s");
    ("online.replans", "count");
    ("online.committed", "count");
    ("online.divergent_sessions", "count");
    ("online.two_clients.failed", "count");
    ("online.two_clients.divergent", "count");
    ("online.unavailable_retries", "count");
    ("router.hop_s.p50", "s");
    ("trace.overhead_share", "ratio");
  ]

(* One printed line per metric a workload is about, with its
   unit and sample count: the human-readable table. *)
type row = { name : string; unit_ : string; value : float; samples : int }

let row name unit_ value samples = { name; unit_; value; samples }

type outcome = {
  violations : string list;  (** correctness-gate failures: non-empty fails the run *)
  attempted : int;
  failed : int;
  rows : row list;
  metrics : (string * float) list;  (** exactly the names of one list above *)
}

let unit_of defs name = List.assoc name defs

(* Exits 1 on any correctness violation (no result line), 2 when the
   metrics do not match their definitions exactly. *)
let emit ~defs (o : outcome) =
  List.iter (fun r ->
      Printf.printf "%-34s %18.9g %-6s n=%d\n" r.name r.value r.unit_ r.samples)
    o.rows;
  if o.violations <> [] then begin
    List.iteri
      (fun i v -> if i < 10 then Printf.eprintf "perfbench: correctness violation: %s\n" v)
      o.violations;
    Printf.eprintf "perfbench: %d violation(s); no result\n%!" (List.length o.violations);
    exit 1
  end;
  let names = List.map fst o.metrics in
  let expected = List.map fst defs in
  if List.sort compare names <> List.sort compare expected then begin
    Printf.eprintf "perfbench: metric set does not match its definition\n%!";
    exit 2
  end;
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "perfbench: metric %s is not finite\n%!" name;
        exit 2
      end)
    o.metrics;
  let module J = Emts_resilience.Json in
  let metrics =
    List.map
      (fun (name, v) ->
        (name, J.Obj [ ("value", J.Num v); ("unit", J.Str (unit_of defs name)) ]))
      o.metrics
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool true);
            ("attempted", J.Num (float_of_int o.attempted));
            ("failed", J.Num (float_of_int o.failed));
            ("metrics", J.Obj metrics);
          ]));
  flush stdout

(* Peak resident set of a process, from /proc (Linux), in MB. *)
let peak_rss_mb pid =
  let path =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let lines = In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n' in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> Float.nan
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
        float_of_int kb /. 1024.)

(* A per-layer metric list with every name present: [given] values,
   zero for the layers this workload does not reach. *)
let layers given =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then invalid_arg ("undefined metric " ^ name))
    given;
  List.map
    (fun (name, _) -> (name, Option.value (List.assoc_opt name given) ~default:0.))
    per_layer
