(** The invariant registry: everything the fuzzer knows how to check.

    Each oracle takes one {!Scenario.t} and either accepts it or
    returns a one-line diagnostic.  Oracles are deterministic: all
    internal randomness (random allocations, corruption offsets, bit
    flips) is derived from the scenario's own seed, so a persisted
    failure replays identically ({!Corpus}).

    The registry:
    - [validate] — every algorithm's product (the heuristic seeds and
      the EA's best) passes {!Emts_sched.Schedule.validate}, and the
      fitness fast path agrees with the materialised schedule;
    - [differential] — {!Emts_simulator} under [Noise.none] reproduces
      every list schedule exactly (start times, finish times,
      processor sets, makespan);
    - [determinism] — the same seed yields bit-identical results
      across worker domains, early rejection (against
      {!Reference.emts}, which runs without a cutoff), checkpoint/resume
      at any generation, and the serve {!Engine} path;
    - [wire] — random and bit-flipped frames against a live
      {!Emts_serve} daemon only ever produce typed errors or clean
      closes, and the daemon stays alive;
    - [resilience] — truncated or corrupted journals, checkpoints and
      [.ptg] files are cleanly rejected or torn-tail-truncated, never
      silently misread or crash-inducing;
    - [chaos] — a private live daemon under an armed deterministic
      fault plan ({!Emts_fault}) never dies, answers every accepted
      request with exactly one valid typed reply, respawns crashed
      worker lanes (metrics-visible), keeps shed requests retryable,
      and answers a post-storm request bit-identically to a fresh
      engine;
    - [fleet] — an {!Emts_router} front-end over live backends (one of
      which only ever hangs up) survives malformed client input and a
      mid-storm backend kill, keeps every request answered from the
      survivors, agrees with a fresh engine bit for bit once the storm
      passes, and answers with a typed [unavailable] when every
      backend is gone;
    - [online] — the {!Emts_serve.Online} controller over a
      seed-derived 3-DAG arrival trace: committed (start, finish,
      processors) never change as the trace unfolds, the merged
      realised schedule validates and respects arrivals, the online
      makespan never beats the certified clairvoyant lower bound,
      zero-noise plans commit exactly as planned, re-planning a
      changeless state is a no-op, and commitment logs are
      bit-identical across worker domains for a given island count and
      across repeated noisy runs. *)

type t = {
  name : string;
  doc : string;
  check : Scenario.t -> (unit, string) result;
}

val all : t list
val names : string list

val find : string -> t option
(** Case-insensitive lookup. *)

val run : t -> Scenario.t -> (unit, string) result
(** {!t.check} behind an exception barrier: an escaping exception is
    itself an oracle failure (with the exception text as diagnostic),
    never a fuzzer crash. *)

val shutdown : unit -> unit
(** Stop the shared in-process daemon the [wire] oracle keeps warm
    (idempotent; also registered [at_exit]).  Call between fuzz runs
    that must not share server state. *)
