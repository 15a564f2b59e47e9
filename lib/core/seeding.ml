let default_heuristics =
  let find name =
    match Emts_alloc.find name with
    | Some h -> h
    | None -> assert false
  in
  [ find "MCPA"; find "HCPA"; find "DeltaCP"; find "SEQ" ]

type seed = {
  heuristic : string;
  alloc : Emts_sched.Allocation.t;
  makespan : float;
}

let m_seeds = Emts_obs.Metrics.counter "seeding.seeds"
let m_makespan = Emts_obs.Metrics.histogram "seeding.makespan"

let allocate ~heuristics ctx =
  if heuristics = [] then
    invalid_arg "Seeding.allocate: heuristics must be non-empty";
  List.map
    (fun (h : Emts_alloc.heuristic) ->
      Emts_obs.Trace.span ("seed." ^ h.name) @@ fun () ->
      (h.name, h.allocate ctx))
    heuristics

let rec scored allocated makespans =
  match (allocated, makespans) with
  | (heuristic, alloc) :: allocated, makespan :: makespans ->
    Emts_obs.Metrics.incr m_seeds;
    Emts_obs.Metrics.observe m_makespan makespan;
    { heuristic; alloc; makespan } :: scored allocated makespans
  | _ -> []

let best = function
  | [] -> invalid_arg "Seeding.best: empty seed list"
  | first :: rest ->
    List.fold_left
      (fun acc s -> if s.makespan < acc.makespan then s else acc)
      first rest
