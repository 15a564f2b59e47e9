(** Starting solutions for the EA (paper Section III-B).

    EMTS does not start from random allocations: it encodes the results
    of fast heuristics as the initial individuals.  The paper uses
    MCPA's and HCPA's allocation functions plus its own Δ-critical
    heuristic; we add the sequential baseline as a cheap diversity
    anchor (it is also the all-ones allocation CPA-family heuristics
    grow from). *)

val default_heuristics : Emts_alloc.heuristic list
(** [MCPA; HCPA; DeltaCP; SEQ], in that order. *)

type seed = {
  heuristic : string;                  (** provenance label *)
  alloc : Emts_sched.Allocation.t;
  makespan : float;                    (** under the EMTS list scheduler *)
}

val allocate :
  heuristics:Emts_alloc.heuristic list ->
  Emts_alloc.Common.ctx ->
  (string * Emts_sched.Allocation.t) list
(** Runs each heuristic on the context and pairs its name with its
    allocation, in order; the EA scores them.  Raises
    [Invalid_argument] when [heuristics] is empty. *)

val scored : (string * Emts_sched.Allocation.t) list -> float list -> seed list
(** Pairs each allocation with the makespan at its position (extra
    makespans are ignored) and counts the seeds into [seeding.*]. *)

val best : seed list -> seed
(** Smallest makespan (first on ties). *)
