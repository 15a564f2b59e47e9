(** Differential fuzzing and invariant checking for the EMTS stack.

    The pipeline's correctness rests on a chain of invariants — every
    allocation list-schedules into a valid schedule, the zero-noise
    simulator replays it exactly, one seed yields one result on every
    execution path, the wire survives hostile bytes, durable state
    survives corruption.  This library generates adversarial random
    scenarios ({!Gen}), checks them against an oracle registry
    ({!Oracle}), minimises failures ({!Shrink}) and persists them as
    replayable repro files ({!Corpus}); {!Fuzz} is the driver behind
    the [emts-fuzz] binary.  {!Reference} runs EMTS without early
    rejection, the answer the optimised run must reproduce. *)

module Scenario = Scenario
module Gen = Gen
module Oracle = Oracle
module Shrink = Shrink
module Corpus = Corpus
module Fuzz = Fuzz
module Reference = Reference
