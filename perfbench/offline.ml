(* offline-paper and offline-large: EMTS solves in process, through the
   public calls a library user makes.

   A run solves the corpus in whole passes (every instance once per
   pass, in corpus order) until the solving time reaches the run length,
   so every run covers the same instances in the same proportions
   however fast the machine is. *)

module Alg = Emts.Algorithm
module Common = Emts_alloc.Common
module Schedule = Emts_sched.Schedule

type workload = {
  algorithm : string;
  config : Alg.config;
  corpus : Corpus.instance list;
  warmup : Corpus.instance;
}

(* Untimed solves of [warmup] before the timed ones; their median, at
   the machine's pace, is setup_s.  The warm-up instance is the same for
   every seed, so setup_s does not move with the corpus. *)
let warmups = 5

let config_of = function
  | "emts1" -> Alg.emts1
  | "emts5" -> Alg.emts5
  | "emts10" -> Alg.emts10
  | a -> invalid_arg ("no EMTS preset " ^ a)

let make ~algorithm ~corpus ~warmup = { algorithm; config = config_of algorithm; corpus; warmup }

let parse (inst : Corpus.instance) =
  match Emts_ptg.Serial.of_string inst.ptg with
  | Ok g -> g
  | Error m -> failwith (Printf.sprintf "%s: generated .ptg does not parse: %s" inst.label m)

let solve w (inst : Corpus.instance) =
  let graph = parse inst in
  let r =
    Alg.run
      ~rng:(Emts_prng.create ~seed:inst.ea_seed ())
      ~config:w.config ~model:inst.model ~platform:inst.platform ~graph ()
  in
  (graph, r)

let timed f =
  let t = Span.now () in
  let x = f () in
  (x, Span.now () -. t)

let bits = Int64.bits_of_float

(* Deliberate faults, used by the self-test to prove the gate bites. *)
type inject = No_fault | Ulp | Invalid_schedule

(* Break precedence: the last task (a sink in every generated graph)
   is moved to time 0. *)
let corrupt_schedule s =
  let entries = Schedule.entries s in
  let last = Array.length entries - 1 in
  let e = entries.(last) in
  entries.(last) <- { e with Schedule.start = 0.; finish = e.finish -. e.start };
  Schedule.make ~platform_procs:(Schedule.platform_procs s) entries

let mcpa_makespan (r : Alg.result) =
  (List.find (fun (s : Emts.Seeding.seed) -> s.heuristic = "MCPA") r.seeds).makespan

(* The correctness gate for one solve: a valid schedule that realises
   the EA's makespan, no worse than the best seed, no better than the
   instance's lower bound. *)
let gate ~(inst : Corpus.instance) ~graph ~schedule ~makespan (r : Alg.result) =
  let ctx = Common.make_ctx ~model:inst.model ~platform:inst.platform ~graph in
  let v = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> v := (inst.label ^ ": " ^ m) :: !v) fmt in
  (match Schedule.validate ~alloc:r.alloc schedule ~graph with
  | Ok () -> ()
  | Error vs ->
    fail "invalid schedule (%s)"
      (String.concat "; " (List.map (Format.asprintf "%a" Schedule.pp_violation) vs)));
  if bits (Schedule.makespan schedule) <> bits makespan then
    fail "schedule makespan %.17g differs from EA makespan %.17g"
      (Schedule.makespan schedule) makespan;
  let best_seed = (Emts.Seeding.best r.seeds).makespan in
  if not (makespan <= best_seed) then
    fail "makespan %.17g above best seed %.17g" makespan best_seed;
  let lb = Emts_alloc.Bounds.lower_bound ctx in
  if not (makespan >= lb) then fail "makespan %.17g below lower bound %.17g" makespan lb;
  List.rev !v

let passes_until ~seconds ~elapsed f =
  let pass = ref 0 in
  while !pass = 0 || elapsed () < seconds do
    f !pass;
    incr pass
  done;
  !pass

let run ~name w ~seconds ~inject =
  let corpus = Array.of_list w.corpus in
  let n = Array.length corpus in
  let setup_pace = Pace.create () in
  let warm =
    List.init warmups (fun _ ->
        let _, dt = timed (fun () -> solve w w.warmup) in
        Pace.sample_n setup_pace 4;
        dt)
  in
  let violations = ref [] in
  let reference = Array.make n None in
  let ratios = Array.make n 1. in
  let times = ref [] and solving = ref 0. in
  let pace = Pace.create () and unpaced = ref 0. in
  Pace.sample pace;
  let passes =
    passes_until ~seconds ~elapsed:(fun () -> !solving) (fun _ ->
        Array.iteri
          (fun i inst ->
            let (graph, r), dt = timed (fun () -> solve w inst) in
            times := dt :: !times;
            solving := !solving +. dt;
            unpaced := !unpaced +. dt;
            if !unpaced >= Pace.every then begin
              Pace.sample pace;
              unpaced := 0.
            end;
            let makespan, schedule =
              match (inject, reference.(i)) with
              | Ulp, None -> (Float.succ r.makespan, r.schedule)
              | Invalid_schedule, None -> (r.makespan, corrupt_schedule r.schedule)
              | _ -> (r.makespan, r.schedule)
            in
            match reference.(i) with
            | None ->
              violations := !violations @ gate ~inst ~graph ~schedule ~makespan r;
              ratios.(i) <- makespan /. mcpa_makespan r;
              reference.(i) <- Some (bits makespan, r.ea.evaluations)
            | Some (b, evals) ->
              if b <> bits makespan || evals <> r.ea.evaluations then
                violations :=
                  !violations
                  @ [ inst.Corpus.label ^ ": a repeated solve differs from the first" ])
          corpus)
  in
  let solves = n * passes in
  let p50 = Stat.median !times and p90 = Stat.quantile !times 0.9 in
  let throughput = float_of_int solves /. !solving in
  let quality = Stat.geomean (Array.to_list ratios) in
  let rss = Report.peak_rss_mb None in
  let setup = Stat.median warm in
  let slow = Pace.slowdown pace in
  let r = Report.row in
  let rows =
    [
      r "setup_s" "s" setup warmups;
      r "solve_s.p50" "s" p50 solves;
    ]
    @ (if name = "offline-paper" then [ r "solve_s.p90" "s" p90 solves ] else [])
    @ [
        r "solve_s.gmean" "s" (Stat.geomean !times) solves;
        r "solves_per_s" "1/s" throughput solves;
        r "makespan_vs_mcpa" "ratio" quality n;
        r "peak_rss_mb" "MB" rss 1;
        r "pace.slowdown" "ratio" slow (Pace.count pace);
      ]
  in
  {
    Report.violations = !violations;
    attempted = solves;
    failed = 0;
    rows;
    metrics =
      [
        ("setup_s", setup /. Pace.slowdown setup_pace);
        ("op_s.gmean", Stat.geomean !times /. slow);
        ("ops_per_s", throughput *. slow);
        ("quality_ratio", quality);
        ("peak_rss_mb", rss);
      ];
  }

(* ---- Traced run ---------------------------------------------------- *)

(* Per-solve exact counts: must repeat bit for bit on every pass. *)
type counts = {
  evaluations : int;
  eval_calls : int;
  generations : int;
  full : int;
  incremental : int;
  reused : int;
  scheduled : int;
}

(* Words a [Gc.minor_words] pair allocates around nothing, so the
   evaluator's own allocation can be isolated. *)
let probe_words () =
  let acc = [| 0. |] in
  let k = 10_000 in
  for _ = 1 to k do
    let w0 = Gc.minor_words () in
    acc.(0) <- acc.(0) +. (Gc.minor_words () -. w0)
  done;
  acc.(0) /. float_of_int k

(* Replays one solve stage by stage through the public calls, with a
   span around each, in the order Emts.Algorithm.run makes them. *)
let replay w spans ev ~words ~final ~op (inst : Corpus.instance) =
  let cfg = w.config in
  let within name ~parent f = Span.within spans ~name ~parent ~op (fun _ -> f ()) in
  Span.within spans ~name:"solve" ~parent:Span.none ~op @@ fun solve ->
  let graph = within "ptg.parse" ~parent:solve (fun () -> parse inst) in
  let ctx =
    within "alloc.tables" ~parent:solve (fun () ->
        Common.make_ctx ~model:inst.model ~platform:inst.platform ~graph)
  in
  let seeds =
    Span.within spans ~name:"seeding" ~parent:solve ~op (fun seeding ->
        List.map
          (fun (h : Emts_alloc.heuristic) ->
            let alloc =
              within ("alloc.seed." ^ String.lowercase_ascii h.name) ~parent:seeding
                (fun () -> h.allocate ctx)
            in
            ignore
              (within "sched.list" ~parent:seeding (fun () ->
                   Alg.schedule_allocation ~ctx alloc));
            alloc)
          cfg.heuristics)
  in
  let before = Emts_sched.Evaluator.stats ev in
  let calls = ref 0 in
  let res =
    Span.within spans ~name:"ea.run" ~parent:solve ~op (fun ea ->
        let fitness alloc =
          incr calls;
          let start = Span.now () in
          let w0 = Gc.minor_words () in
          let m =
            Emts_sched.Evaluator.makespan ev ~graph:ctx.Common.graph
              ~tables:ctx.Common.tables ~procs:ctx.Common.procs ~alloc ~cutoff:infinity ()
          in
          words.(0) <- words.(0) +. (Gc.minor_words () -. w0);
          ignore (Span.add spans ~name:"sched.eval" ~parent:ea ~op ~start ~stop:(Span.now ()));
          m
        in
        let mutate rng ~generation ~total_generations genome =
          let start = Span.now () in
          let g =
            Emts.Mutation.mutate rng cfg.mutation ~procs:ctx.Common.procs ~generation
              ~total_generations genome
          in
          ignore (Span.add spans ~name:"core.mutate" ~parent:ea ~op ~start ~stop:(Span.now ()));
          g
        in
        Emts_ea.run
          ~rng:(Emts_prng.create ~seed:inst.ea_seed ())
          ~config:
            (Emts_ea.config ~domains:1 ~selection:cfg.selection ~islands:cfg.islands
               ~migration_interval:cfg.migration_interval
               ~migration_count:cfg.migration_count ~mu:cfg.mu ~lambda:cfg.lambda
               ~generations:cfg.generations ())
          ~seeds (Emts_ea.mutation_only ~fitness ~mutate))
  in
  let after = Emts_sched.Evaluator.stats ev in
  let t = Span.now () in
  ignore
    (within "sched.list" ~parent:solve (fun () -> Alg.schedule_allocation ~ctx res.best));
  final := !final +. (Span.now () -. t);
  ( res,
    {
      evaluations = res.evaluations;
      eval_calls = !calls;
      generations = List.length res.history - 1;
      full = after.Emts_sched.Evaluator.full_runs - before.full_runs;
      incremental = after.incremental_runs - before.incremental_runs;
      reused = after.reused_steps - before.reused_steps;
      scheduled = after.scheduled_steps - before.scheduled_steps;
    } )

let run_traced w ~seconds ~trace_path =
  let corpus = Array.of_list w.corpus in
  let n = Array.length corpus in
  let spans = Span.create () in
  let ev = Emts_sched.Evaluator.create () in
  let probe = probe_words () in
  let words = [| 0. |] and final = ref 0. in
  let untraced = ref 0. and traced = ref 0. in
  let first = Array.make n None in
  let violations = ref [] in
  let violate m = violations := !violations @ [ m ] in
  let parsed_bytes = ref 0 in
  ignore (solve w w.warmup);
  let passes =
    passes_until ~seconds ~elapsed:(fun () -> !untraced +. !traced) (fun pass ->
        Array.iteri
          (fun i inst ->
            let (_, r), dt = timed (fun () -> solve w inst) in
            untraced := !untraced +. dt;
            let (res, c), dt =
              timed (fun () -> replay w spans ev ~words ~final ~op:((pass * n) + i) inst)
            in
            traced := !traced +. dt;
            parsed_bytes := !parsed_bytes + String.length inst.Corpus.ptg;
            if bits res.Emts_ea.best_fitness <> bits r.Alg.makespan then
              violate
                (Printf.sprintf "%s: replayed makespan %.17g differs from run %.17g"
                   inst.label res.best_fitness r.makespan);
            if c.evaluations <> r.ea.evaluations then
              violate (inst.label ^ ": replay made a different number of evaluations");
            match first.(i) with
            | None -> first.(i) <- Some c
            | Some c0 ->
              if c0 <> c then violate (inst.label ^ ": exact counts differ between passes"))
          corpus)
  in
  Span.write spans ~path:trace_path;
  let per_pass x = x /. float_of_int passes in
  let counts = Array.to_list (Array.map Option.get first) in
  let csum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 counts) in
  let tbl = Span.totals spans in
  let tot name = per_pass (Span.total tbl name) in
  let solve_s = tot "solve" in
  let eval_calls = Span.calls tbl "sched.eval" in
  let eval_s = Span.total tbl "sched.eval" in
  let full = csum (fun c -> c.full) and incremental = csum (fun c -> c.incremental) in
  let reused = csum (fun c -> c.reused) and scheduled = csum (fun c -> c.scheduled) in
  let layers =
    [
      ("ptg.parse.calls", per_pass (float_of_int (Span.calls tbl "ptg.parse")));
      ("ptg.parse.s", tot "ptg.parse");
      ( "ptg.parse.mb_per_s",
        float_of_int !parsed_bytes /. Span.total tbl "ptg.parse" /. 1e6 );
      ("alloc.tables.s", tot "alloc.tables");
      ("alloc.seed.mcpa.s", tot "alloc.seed.mcpa");
      ("alloc.seed.hcpa.s", tot "alloc.seed.hcpa");
      ("alloc.seed.deltacp.s", tot "alloc.seed.deltacp");
      ("alloc.seed.seq.s", tot "alloc.seed.seq");
      ("sched.list.calls", per_pass (float_of_int (Span.calls tbl "sched.list")));
      ("sched.list.s", tot "sched.list");
      ("sched.eval.calls", csum (fun c -> c.eval_calls));
      ("sched.eval.s", per_pass eval_s);
      ("sched.eval.ns_per_call", eval_s /. float_of_int eval_calls *. 1e9);
      ( "sched.eval.bytes_per_call",
        Float.max 0. ((words.(0) /. float_of_int eval_calls) -. probe)
        *. float_of_int (Sys.word_size / 8) );
      ("sched.delta.full_runs", full);
      ("sched.delta.incremental_runs", incremental);
      ("sched.delta.reused_steps", reused);
      ("sched.delta.scheduled_steps", scheduled);
      ("sched.delta.incremental_share", Stat.share incremental (full +. incremental));
      ("sched.delta.reuse_share", Stat.share reused (reused +. scheduled));
      ("ea.generations", csum (fun c -> c.generations));
      ("ea.evaluations", csum (fun c -> c.evaluations));
      ("ea.self_s", per_pass (Span.self tbl "ea.run"));
      ("core.mutate.s", tot "core.mutate");
      ("split.parse_share", Stat.share (tot "ptg.parse") solve_s);
      ("split.tables_share", Stat.share (tot "alloc.tables") solve_s);
      ("split.seeding_share", Stat.share (tot "seeding") solve_s);
      ("split.ea_share", Stat.share (tot "ea.run") solve_s);
      ("split.final_share", Stat.share (per_pass !final) solve_s);
      ("trace.overhead_share", (!traced /. !untraced) -. 1.);
    ]
  in
  let r name unit_ = Report.row name unit_ (List.assoc name layers) passes in
  {
    Report.violations = !violations;
    attempted = n * passes;
    failed = 0;
    rows =
      [
        r "split.parse_share" "ratio";
        r "split.tables_share" "ratio";
        r "split.seeding_share" "ratio";
        r "split.ea_share" "ratio";
        r "split.final_share" "ratio";
        r "sched.delta.reuse_share" "ratio";
        r "trace.overhead_share" "ratio";
      ];
    metrics = Report.layers layers;
  }
