(* Workload inputs, generated from the workload seed.

   Every corpus is stratified: the graph classes, sizes and shape
   parameters are fixed lists, and the seed only draws the random
   structure, the task costs and the EA seeds.  Two seeds therefore give
   corpora of the same make-up, which keeps run-to-run spread across
   seeds small.  The program sees only the generated .ptg text. *)

module Rd = Emts_daggen.Random_dag

type instance = {
  label : string;
  ptg : string;  (** .ptg text, all the program is given *)
  platform : Emts_platform.t;
  model_name : string;  (** wire spelling: amdahl | synthetic *)
  model : Emts_model.t;
  ea_seed : int;
}

let model_of name =
  match Emts_model.find_preset name with
  | Some m -> m
  | None -> invalid_arg ("unknown model " ^ name)

let rng_for ~workload ~seed =
  Emts_prng.create
    ~seed:(Emts_prng.seed_of_label (Printf.sprintf "perfbench/%s/%d" workload seed))
    ()

let random_dag rng (n, width, regularity, density, jump) =
  Emts_daggen.Costs.assign rng
    (Rd.generate rng { Rd.n; width; regularity; density; jump })

let fft rng points = Emts_daggen.Costs.assign rng (Emts_daggen.Fft.generate ~points)
let strassen rng = Emts_daggen.Costs.assign rng (Emts_daggen.Strassen.generate ())

let instance rng ~label ~platform ~model_name graph =
  {
    label;
    ptg = Emts_ptg.Serial.to_string graph;
    platform;
    model_name;
    model = model_of model_name;
    ea_seed = Emts_prng.int rng 1_000_000_000;
  }

let combos =
  Emts_platform.
    [ (chti, "amdahl"); (chti, "synthetic"); (grelon, "amdahl"); (grelon, "synthetic") ]

(* The paper's classes (Section IV-C): layered and irregular random
   DAGs of 20-100 tasks, FFT with 8 and 16 points, Strassen — on both
   clusters under both models. *)
let offline_paper ~tiny ~seed =
  let rng = rng_for ~workload:"offline-paper" ~seed in
  let dags =
    if tiny then [ (20, 0.5, 0.8, 0.5, 0) ]
    else
      [
        (20, 0.5, 0.8, 0.5, 0);
        (50, 0.2, 0.2, 0.8, 1);
        (100, 0.5, 0.8, 0.2, 0);
        (100, 0.8, 0.2, 0.5, 2);
      ]
  in
  let combos = if tiny then [ List.hd combos; List.nth combos 3 ] else combos in
  List.concat_map
    (fun (platform, model_name) ->
      let make label g = instance rng ~label ~platform ~model_name g in
      List.map
        (fun ((n, _, _, _, jump) as p) ->
          make (Printf.sprintf "dag%d-j%d" n jump) (random_dag rng p))
        dags
      @ (if tiny then [] else [ make "fft8" (fft rng 8); make "fft16" (fft rng 16) ])
      @ [ make "strassen" (strassen rng) ])
    combos

(* 500-1000 tasks of varied width and density plus FFT-64 (511 tasks),
   on Grelon under Model 2: the 10^3-task scale. *)
let offline_large ~tiny ~seed =
  let rng = rng_for ~workload:"offline-large" ~seed in
  let platform = Emts_platform.grelon and model_name = "synthetic" in
  let dags =
    if tiny then [ (120, 0.5, 0.5, 0.2, 1) ]
    else
      [
        (500, 0.5, 0.5, 0.2, 1);
        (600, 0.2, 0.8, 0.5, 2);
        (700, 0.8, 0.5, 0.2, 0);
        (800, 0.5, 0.2, 0.8, 1);
        (900, 0.2, 0.5, 0.2, 2);
        (1000, 0.5, 0.2, 0.5, 1);
      ]
  in
  let make label g = instance rng ~label ~platform ~model_name g in
  List.map
    (fun ((n, w, _, d, _) as p) ->
      make (Printf.sprintf "dag%d-w%.1f-d%.1f" n w d) (random_dag rng p))
    dags
  @ [ (if tiny then make "fft16" (fft rng 16) else make "fft64" (fft rng 64)) ]

(* serve-open: an open-loop request stream.  Each request is a fresh
   60-100-task instance, an earlier instance with a fresh EA seed, or an
   exact repeat of an earlier request.  Class and repeat kind are dealt
   from shuffled blocks of [block] requests with fixed counts, so every
   seed offers the same mix: 30% EMTS1, 50% EMTS5, 20% EMTS10; 10% exact
   repeats and 30% instance repeats.  With these shares the median and
   the 90th percentile of latency fall inside the EMTS5 and EMTS10
   modes, not on the edge between two modes, where they would jump. *)
type request = {
  inst : instance;
  algorithm : string;  (** emts1 | emts5 | emts10 *)
  seed : int;
  inst_id : int;
  repeat : [ `Fresh | `Instance | `Exact ];
}

let block = 20
let class_deck =
  List.concat
    [ List.init 6 (fun _ -> "emts1"); List.init 10 (fun _ -> "emts5"); List.init 4 (fun _ -> "emts10") ]
let repeat_deck = List.concat [ List.init 2 (fun _ -> `Exact); List.init 6 (fun _ -> `Instance); List.init 12 (fun _ -> `Fresh) ]

let deal rng deck =
  let a = Array.of_list deck in
  Emts_prng.shuffle rng a;
  a

let serve_requests ~tiny ~seed ~count =
  let rng = rng_for ~workload:"serve-open" ~seed in
  let shapes =
    [|
      (60, 0.5, 0.8, 0.5, 0); (70, 0.2, 0.2, 0.8, 1); (80, 0.8, 0.5, 0.2, 2);
      (90, 0.5, 0.2, 0.5, 1); (100, 0.5, 0.8, 0.2, 4);
    |]
  in
  let fresh = ref 0 in
  let fresh_request algorithm =
    let k = !fresh in
    incr fresh;
    let n, w, r, d, j = shapes.(k mod Array.length shapes) in
    let n = if tiny then n / 3 else n in
    let platform, model_name = List.nth combos (k mod List.length combos) in
    {
      inst =
        instance rng ~label:(Printf.sprintf "req-inst%d" k) ~platform ~model_name
          (random_dag rng (n, w, r, d, j));
      inst_id = k;
      algorithm;
      seed = Emts_prng.int rng 1_000_000_000;
      repeat = `Fresh;
    }
  in
  let reqs = Array.make count None in
  let classes = ref [||] and repeats = ref [||] in
  for k = 0 to count - 1 do
    if k mod block = 0 then begin
      classes := deal rng class_deck;
      repeats := deal rng repeat_deck
    end;
    let algorithm = !classes.(k mod block) in
    let earlier = List.filter_map Fun.id (Array.to_list (Array.sub reqs 0 k)) in
    let pick l = List.nth l (Emts_prng.int rng (List.length l)) in
    let r =
      match (!repeats.(k mod block), List.filter (fun e -> e.algorithm = algorithm) earlier) with
      | `Exact, (_ :: _ as same) -> { (pick same) with repeat = `Exact }
      | `Instance, _ when earlier <> [] ->
        { (pick earlier) with algorithm; seed = Emts_prng.int rng 1_000_000_000; repeat = `Instance }
      | _ -> fresh_request algorithm
    in
    reqs.(k) <- Some r
  done;
  Array.map Option.get reqs

(* online-sessions: arrival traces of 8 DAGs each.  DAG k arrives at
   virtual time k*gap, gap being half the first DAG's single-processor
   critical path, so arrivals overlap running work. *)
type trace = {
  dags : string list;
  gap : float;
  session_seed : int;
  platform_name : string;
  trace_model : string;
}

let online_traces ~tiny ~seed ~count =
  let rng = rng_for ~workload:"online-sessions" ~seed in
  let platform = Emts_platform.grelon and model_name = "synthetic" in
  let shapes =
    [|
      (140, 0.5, 0.5, 0.3, 1); (100, 0.7, 0.5, 0.2, 0); (160, 0.5, 0.3, 0.3, 2);
      (120, 0.3, 0.8, 0.5, 1);
    |]
  in
  let dags_per_session = if tiny then 3 else 8 in
  List.init count (fun _ ->
      let graphs =
        List.init dags_per_session (fun k ->
            if k = 3 then fft rng (if tiny then 4 else 16)
            else
              let n, w, r, d, j = shapes.(k mod Array.length shapes) in
              random_dag rng ((if tiny then n / 2 else n), w, r, d, j))
      in
      let first = List.hd graphs in
      let ctx =
        Emts_alloc.Common.make_ctx ~model:(model_of model_name) ~platform
          ~graph:first
      in
      let gap =
        0.5
        *. Emts_ptg.Analysis.critical_path_length first ~time:(fun v ->
               ctx.Emts_alloc.Common.tables.(v).(0))
      in
      {
        dags = List.map Emts_ptg.Serial.to_string graphs;
        gap;
        session_seed = Emts_prng.int rng 1_000_000_000;
        platform_name = platform.Emts_platform.name;
        trace_model = model_name;
      })
