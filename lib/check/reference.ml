module Common = Emts_alloc.Common
module Alg = Emts.Algorithm

let emts ~rng ~(config : Alg.config) ~ctx =
  if config.recombination <> None || config.adaptive_sigma then
    invalid_arg "Reference.emts: mutation-only, fixed-sigma configs only";
  let ev = Emts_sched.Evaluator.create () in
  let fitness alloc =
    Emts_sched.Evaluator.makespan ev ~graph:ctx.Common.graph
      ~tables:ctx.Common.tables ~procs:ctx.Common.procs ~alloc
      ~cutoff:infinity ()
  in
  let mutate rng ~generation ~total_generations genome =
    Emts.Mutation.mutate rng config.mutation ~procs:ctx.Common.procs
      ~generation ~total_generations genome
  in
  Emts_ea.run ~rng
    ~config:
      (Emts_ea.config ~domains:1 ~selection:config.selection
         ~islands:config.islands ~migration_interval:config.migration_interval
         ~migration_count:config.migration_count ~mu:config.mu
         ~lambda:config.lambda ~generations:config.generations ())
    ~seeds:
      (List.map (fun (h : Emts_alloc.heuristic) -> h.allocate ctx)
         config.heuristics)
    (Emts_ea.mutation_only ~fitness ~mutate)
