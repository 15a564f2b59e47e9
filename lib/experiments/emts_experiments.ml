(** Experiment harness reproducing every table and figure of the paper;
    see DESIGN.md for the per-experiment index. *)

module Campaign = Campaign
module Journal = Journal
module Relative = Relative
module Fig1 = Fig1
module Fig3 = Fig3
module Fig6 = Fig6
module Ablation = Ablation
module Robustness = Robustness
module Convergence = Convergence
module Gaps = Gaps
module Sweep = Sweep
module Walltime = Walltime

(** One-call drivers for the composite figures.

    [tune] post-processes the EMTS configuration before each campaign —
    the hook the CLIs use for [--domains].  It must stay
    outcome-preserving (that flag is) for the rendered figures to match
    the paper.

    [journal] is the crash-safety hook: each driver scopes the shared
    {!Journal.t} per campaign (["fig4"], ["fig5-top"], ["fig5-bottom"])
    so one journal file can carry a whole [all] run.  [classes]
    restricts the campaign to a subset of PTG classes (the figures use
    all four; the subset exists for quick runs and the crash-resume
    tests). *)
module Figures = struct
  (** Figure 4: Model 1, heuristics vs EMTS5. *)
  let fig4 ?progress ?journal ?classes ?(tune = Fun.id) ~rng ~counts () =
    let journal = Option.map (Journal.scope ~label:"fig4") journal in
    let groups =
      Relative.run ?progress ?journal ?classes ~rng ~model:Emts_model.amdahl
        ~config:(tune Emts.Algorithm.emts5) ~counts ()
    in
    ( groups,
      Relative.render
        ~title:
          "Figure 4 — avg. relative makespan T_heuristic / T_EMTS5 (Model 1, \
           95% CI)"
        groups )

  (** Figure 5: Model 2, heuristics vs EMTS5 (top) and EMTS10 (bottom). *)
  let fig5 ?progress ?journal ?classes ?(tune = Fun.id) ~rng ~counts () =
    let scoped label =
      Option.map (fun j -> Journal.scope j ~label) journal
    in
    let top =
      Relative.run ?progress ?journal:(scoped "fig5-top") ?classes ~rng
        ~model:Emts_model.synthetic
        ~config:(tune Emts.Algorithm.emts5) ~counts ()
    in
    let bottom =
      Relative.run ?progress ?journal:(scoped "fig5-bottom") ?classes ~rng
        ~model:Emts_model.synthetic
        ~config:(tune Emts.Algorithm.emts10) ~counts ()
    in
    ( (top, bottom),
      Relative.render
        ~title:
          "Figure 5 (top) — avg. relative makespan T_heuristic / T_EMTS5 \
           (Model 2, 95% CI)"
        top
      ^ "\n"
      ^ Relative.render
          ~title:
            "Figure 5 (bottom) — avg. relative makespan T_heuristic / \
             T_EMTS10 (Model 2, 95% CI)"
          bottom )

  (** Section V run-time table, from groups produced by fig4/fig5. *)
  let runtime ~title groups = Relative.render_runtime ~title groups
end
