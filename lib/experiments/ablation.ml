type row = {
  label : string;
  ratio_vs_baseline : Emts_stats.summary;
  mean_runtime : float;
}

let default_instances = 20

let irregular_instance rng =
  Emts_daggen.Costs.assign rng
    (Emts_daggen.Random_dag.generate rng
       { n = 100; width = 0.5; regularity = 0.2; density = 0.2; jump = 2 })

(* Run baseline and each variant on the same instances; each run gets a
   split sub-stream derived deterministically from the instance stream,
   so pairing is exact. *)
let paired ~instances ~rng ~baseline ~variants =
  let ratio_accs = List.map (fun (label, _) -> (label, Emts_stats.Acc.create ())) variants in
  let time_accs = List.map (fun (label, _) -> (label, Emts_stats.Acc.create ())) variants in
  let base_time = Emts_stats.Acc.create () in
  for _ = 1 to instances do
    let graph = irregular_instance rng in
    let ctx =
      Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic
        ~platform:Emts_platform.grelon ~graph
    in
    let seed = Emts_prng.bits64 rng in
    let run config =
      let run_rng = Emts_prng.create ~seed:(Int64.to_int seed land max_int) () in
      Emts.Algorithm.run_ctx ~rng:run_rng ~config ~ctx ()
    in
    let base = run baseline in
    Emts_stats.Acc.add base_time base.Emts.Algorithm.ea.Emts_ea.elapsed;
    List.iter2
      (fun (_, racc) ((_, config), (_, tacc)) ->
        let v = run config in
        Emts_stats.Acc.add racc
          (v.Emts.Algorithm.makespan /. base.Emts.Algorithm.makespan);
        Emts_stats.Acc.add tacc v.Emts.Algorithm.ea.Emts_ea.elapsed)
      ratio_accs
      (List.combine variants time_accs)
  done;
  {
    label = "baseline";
    ratio_vs_baseline =
      Emts_stats.summarize (Array.make (max 2 instances) 1.);
    mean_runtime = Emts_stats.Acc.mean base_time;
  }
  :: List.map2
       (fun (label, racc) (_, tacc) ->
         {
           label;
           ratio_vs_baseline = Emts_stats.summary_of_acc racc;
           mean_runtime = Emts_stats.Acc.mean tacc;
         })
       ratio_accs time_accs

let find_heuristic name =
  match Emts_alloc.find name with Some h -> h | None -> assert false

let seeding ?(instances = default_instances) ~rng () =
  paired ~instances ~rng ~baseline:Emts.Algorithm.emts5
    ~variants:
      [
        ( "seed: SEQ only",
          { Emts.Algorithm.emts5 with heuristics = [ find_heuristic "SEQ" ] }
        );
        ( "seed: DeltaCP only",
          {
            Emts.Algorithm.emts5 with
            heuristics = [ find_heuristic "DeltaCP" ];
          } );
      ]

let crossover ?(instances = default_instances) ~rng () =
  let with_kind kind =
    {
      Emts.Algorithm.emts5 with
      recombination = Some (kind, 0.5);
    }
  in
  paired ~instances ~rng ~baseline:Emts.Algorithm.emts5
    ~variants:
      [
        ("crossover: uniform", with_kind Emts.Recombination.Uniform);
        ("crossover: one-point", with_kind Emts.Recombination.One_point);
        ("crossover: level-aware", with_kind Emts.Recombination.Level_aware);
      ]

let early_rejection ?(instances = default_instances) ~rng () =
  paired ~instances ~rng
    ~baseline:{ Emts.Algorithm.emts10 with early_reject = false }
    ~variants:
      [
        ( "early rejection on",
          { Emts.Algorithm.emts10 with early_reject = true } );
      ]

let selection ?(instances = default_instances) ~rng () =
  paired ~instances ~rng ~baseline:Emts.Algorithm.emts5
    ~variants:
      [
        (* rejection relies on parents surviving, so Comma runs without *)
        ( "comma selection",
          {
            Emts.Algorithm.emts5 with
            selection = Emts_ea.Comma;
            early_reject = false;
          } );
        ( "adaptive sigma (1/5 rule)",
          { Emts.Algorithm.emts5 with adaptive_sigma = true } );
      ]

let monotonization ?(instances = default_instances) ~rng () =
  let mono_model = Emts_model.monotonized Emts_model.synthetic in
  let accs =
    [
      ("MCPA on raw Model 2", Emts_stats.Acc.create ());
      ("MCPA on monotonized", Emts_stats.Acc.create ());
      ("EMTS5 + mono-MCPA seed", Emts_stats.Acc.create ());
    ]
  in
  let base_time = Emts_stats.Acc.create () in
  for _ = 1 to instances do
    let graph = irregular_instance rng in
    let ctx_raw =
      Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic
        ~platform:Emts_platform.grelon ~graph
    in
    (* Monotonizing is realisable: a task allocated p processors runs on
       its best q <= p and idles the rest, so scheduling entirely under
       the monotonized model gives an executable schedule. *)
    let ctx_mono =
      Emts_alloc.Common.make_ctx ~model:mono_model
        ~platform:Emts_platform.grelon ~graph
    in
    let emts =
      Emts.Algorithm.run_ctx ~rng:(Emts_prng.split rng)
        ~config:Emts.Algorithm.emts5 ~ctx:ctx_raw ()
    in
    Emts_stats.Acc.add base_time emts.Emts.Algorithm.ea.Emts_ea.elapsed;
    let mcpa_makespan ctx =
      Emts_sched.Schedule.makespan
        (Emts.Algorithm.schedule_allocation ~ctx (Emts_alloc.Mcpa.allocate ctx))
    in
    Emts_stats.Acc.add (List.assoc "MCPA on raw Model 2" accs)
      (mcpa_makespan ctx_raw /. emts.Emts.Algorithm.makespan);
    Emts_stats.Acc.add (List.assoc "MCPA on monotonized" accs)
      (mcpa_makespan ctx_mono /. emts.Emts.Algorithm.makespan);
    (* The synthesis the paper's design invites: EMTS accepts any
       heuristic as a starting solution.  Snap the monotonized-MCPA
       allocation to the arg-min processor counts (so its raw-model
       times equal its monotonized ones) and add it as a seed. *)
    let snap alloc =
      Array.mapi
        (fun v p ->
          let row = ctx_raw.Emts_alloc.Common.tables.(v) in
          let best_q = ref 1 in
          for q = 2 to p do
            if row.(q - 1) < row.(!best_q - 1) then best_q := q
          done;
          !best_q)
        alloc
    in
    let mono_seed = snap (Emts_alloc.Mcpa.allocate ctx_mono) in
    let seeded_config =
      {
        Emts.Algorithm.emts5 with
        heuristics =
          Emts.Seeding.default_heuristics
          @ [ { Emts_alloc.name = "MCPAmono"; allocate = (fun _ -> mono_seed) } ];
      }
    in
    let emts_seeded =
      Emts.Algorithm.run_ctx ~rng:(Emts_prng.split rng) ~config:seeded_config
        ~ctx:ctx_raw ()
    in
    Emts_stats.Acc.add
      (List.assoc "EMTS5 + mono-MCPA seed" accs)
      (emts_seeded.Emts.Algorithm.makespan /. emts.Emts.Algorithm.makespan)
  done;
  {
    label = "baseline (EMTS5, raw)";
    ratio_vs_baseline = Emts_stats.summarize (Array.make (max 2 instances) 1.);
    mean_runtime = Emts_stats.Acc.mean base_time;
  }
  :: List.map
       (fun (label, acc) ->
         {
           label;
           ratio_vs_baseline = Emts_stats.summary_of_acc acc;
           mean_runtime = nan;
         })
       accs

let mapping_priority ?(instances = default_instances) ~rng () =
  let variants =
    [ ("priority: top-level first", `Top); ("priority: random", `Random) ]
  in
  let accs = List.map (fun (l, _) -> (l, Emts_stats.Acc.create ())) variants in
  let base_time = ref 0. and n_done = ref 0 in
  for _ = 1 to instances do
    let graph = irregular_instance rng in
    (* Chti: with only 20 processors the ready queue actually contends;
       on Grelon every ready task fits and all priorities coincide. *)
    let ctx =
      Emts_alloc.Common.make_ctx ~model:Emts_model.synthetic
        ~platform:Emts_platform.chti ~graph
    in
    let alloc = Emts_alloc.Mcpa.allocate ctx in
    let times =
      Emts_sched.Allocation.times_of_tables alloc
        ~tables:ctx.Emts_alloc.Common.tables
    in
    let t0 = Emts_obs.Clock.now () in
    let base =
      Emts_sched.List_scheduler.makespan ~graph ~times ~alloc
        ~procs:ctx.Emts_alloc.Common.procs
    in
    base_time := !base_time +. Emts_obs.Clock.elapsed ~since:t0;
    incr n_done;
    let random_priority =
      Array.init (Emts_ptg.Graph.task_count graph) (fun _ ->
          Emts_prng.float rng 1.)
    in
    List.iter2
      (fun (_, which) (_, acc) ->
        let priority =
          match which with
          | `Top -> Emts_sched.List_scheduler.Top_level_first
          | `Random -> Emts_sched.List_scheduler.Static random_priority
        in
        let m =
          Emts_sched.List_scheduler.makespan_prioritized ~priority ~graph
            ~times ~alloc ~procs:ctx.Emts_alloc.Common.procs
        in
        Emts_stats.Acc.add acc (m /. base))
      variants accs
  done;
  {
    label = "baseline (bottom level)";
    ratio_vs_baseline = Emts_stats.summarize (Array.make (max 2 instances) 1.);
    mean_runtime = !base_time /. float_of_int !n_done;
  }
  :: List.map
       (fun (label, acc) ->
         {
           label;
           ratio_vs_baseline = Emts_stats.summary_of_acc acc;
           mean_runtime = nan;
         })
       accs

let render ~title rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (String.make (String.length title) '=');
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%-26s %22s %14s\n" "variant" "makespan vs baseline"
       "runtime [s]");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "%-26s %14.4f ± %-7.4f %12.4f\n" row.label
           row.ratio_vs_baseline.Emts_stats.mean
           row.ratio_vs_baseline.Emts_stats.ci95_half_width row.mean_runtime))
    rows;
  Buffer.contents buf
