(** Ablation experiments for EMTS's design decisions (DESIGN.md §5;
    extensions beyond the paper's own evaluation).

    Two claims from the paper are tested head-on:

    + seeding the EA with heuristic solutions matters (Section III-B);
    + a mutation-only strategy is sufficient — recombination does not
      buy a significant improvement at equal budget (Section III-C).

    The third, that the rejection strategy sketched in the conclusion
    changes no result, is checked against a run without any cutoff
    ([test_emts], and at this module's instance scale in
    [test_experiments]), not an ablation.

    Every variant runs on the same PTG instances with split random
    streams, so comparisons are paired. *)

type row = {
  label : string;
  ratio_vs_baseline : Emts_stats.summary;
      (** makespan(variant) / makespan(baseline EMTS5); > 1 = worse *)
  mean_runtime : float;  (** seconds per instance *)
}

val seeding :
  ?instances:int ->
  rng:Emts_prng.t ->
  unit ->
  row list
(** Baseline: EMTS5 with the paper's seeds.  Variants: SEQ-only seeding
    and Δ-critical-only seeding.  Model 2 on Grelon, irregular 100-node
    PTGs; default 20 instances. *)

val crossover :
  ?instances:int ->
  rng:Emts_prng.t ->
  unit ->
  row list
(** Baseline: mutation-only EMTS5.  Variants: uniform, one-point and
    level-aware recombination at rate 0.5, same budget. *)

val selection :
  ?instances:int ->
  rng:Emts_prng.t ->
  unit ->
  row list
(** Plus (the paper's elitist choice, baseline) versus Comma survivor
    selection at the same budget — quantifies the "population can never
    become worse" advantage the paper cites from Schwefel & Rudolph. *)

val monotonization :
  ?instances:int ->
  rng:Emts_prng.t ->
  unit ->
  row list
(** The Günther et al. [17] alternative to EMTS: keep MCPA but refuse
    penalised allocations by monotonizing the model
    ({!Emts_model.monotonized}).  Baseline: EMTS5 on raw Model 2.
    Variants: MCPA on raw Model 2 and MCPA on the monotonized model
    (all makespans evaluated under the raw model — the cluster runs
    what it runs). *)

val mapping_priority :
  ?instances:int ->
  rng:Emts_prng.t ->
  unit ->
  row list
(** Ablates the mapping step itself (no EA): the same MCPA allocations
    are mapped with the paper's decreasing-bottom-level ready queue
    (baseline), with a top-level-first queue, and with random static
    priorities.  Shows how much of the schedule quality the
    bottom-level rule is responsible for. *)

val render : title:string -> row list -> string
