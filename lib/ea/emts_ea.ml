type selection = Plus | Comma

type config = {
  mu : int;
  lambda : int;
  generations : int;
  time_budget : float option;
  domains : int;
  selection : selection;
  islands : int;
  migration_interval : int;
  migration_count : int;
}

let config ?time_budget ?(domains = 1) ?(selection = Plus) ?(islands = 1)
    ?(migration_interval = 5) ?(migration_count = 1) ~mu ~lambda ~generations
    () =
  if mu < 1 then invalid_arg "Emts_ea.config: mu must be >= 1";
  if lambda < 1 then invalid_arg "Emts_ea.config: lambda must be >= 1";
  if generations < 0 then
    invalid_arg "Emts_ea.config: generations must be >= 0";
  if domains < 1 then invalid_arg "Emts_ea.config: domains must be >= 1";
  if selection = Comma && lambda < mu then
    invalid_arg "Emts_ea.config: Comma selection requires lambda >= mu";
  (match time_budget with
  | Some b when not (b > 0.) ->
    invalid_arg "Emts_ea.config: time_budget must be > 0"
  | _ -> ());
  if islands < 1 then invalid_arg "Emts_ea.config: islands must be >= 1";
  if migration_interval < 1 then
    invalid_arg "Emts_ea.config: migration_interval must be >= 1";
  if migration_count < 0 || migration_count > mu then
    invalid_arg "Emts_ea.config: migration_count must be in [0, mu]";
  { mu; lambda; generations; time_budget; domains; selection; islands;
    migration_interval; migration_count }

type 'g problem = {
  fitness : cutoff:float -> 'g -> float;
  mutate : Emts_prng.t -> generation:int -> total_generations:int -> 'g -> 'g;
  recombine : (Emts_prng.t -> 'g -> 'g -> 'g) option;
  crossover_rate : float;
}

let mutation_only ~fitness ~mutate =
  {
    fitness = (fun ~cutoff:_ genome -> fitness genome);
    mutate;
    recombine = None;
    crossover_rate = 0.;
  }

type generation_stats = {
  generation : int;
  best : float;
  mean : float;
  worst : float;
  evaluations : int;
  fresh_survivors : int;
}

type 'g result = {
  best : 'g;
  best_fitness : float;
  seed_fitness : float list;
  history : generation_stats list;
  evaluations : int;
  elapsed : float;
}

let default_domains () = min 8 (Domain.recommended_domain_count ())

let m_evaluations = Emts_obs.Metrics.counter "ea.evaluations"
let m_generations = Emts_obs.Metrics.counter "ea.generations"
let m_fitness = Emts_obs.Metrics.histogram "ea.fitness"
let m_checkpoint_writes = Emts_obs.Metrics.counter "ea.checkpoint_writes"
let m_checkpoint_resumes = Emts_obs.Metrics.counter "ea.checkpoint_resumes"
let m_migrations =
  Emts_obs.Metrics.counter
    ~help:"island ring-migration exchanges performed" "ea.migrations"
let m_early_reject_hits =
  Emts_obs.Metrics.counter
    ~help:
      "fitness calls that returned above the selection bound they were \
       given: offspring rejected early"
    "ea.early_reject.hits"
let m_early_reject_misses =
  Emts_obs.Metrics.counter
    ~help:"fitness calls that returned at or below their selection bound"
    "ea.early_reject.misses"

type 'g individual = { genome : 'g; fit : float; birth : int }

(* {1 Selection bound}

   Early rejection (paper conclusion) is decided here, by the layer
   that selects.  Each group of an evaluated batch (one island's
   offspring, or the seeds) keeps the [width] best fitness values known
   among the individuals it competes with: its parents under Plus,
   nobody at first under Comma or for the seeds, and then every result
   that comes back at or below its cutoff.  Every fitness call gets the
   [width]-th of them as its cutoff: [mu] for offspring, so a call that
   returns above it scores strictly worse than [mu] members of its own
   selection pool, can neither survive nor be the best ever, whatever
   the tie rule or the order in which workers finish, and decides
   nobody's rank; the seed count for the seeds, scored exactly. *)
type bound = {
  best : float array;  (* the [width] best known, ascending, infinity-padded *)
  cutoff : float Atomic.t;
      (* [best.(width - 1)], boxed once per change: reading it allocates
         nothing, and a fitness call needs it boxed *)
}

(* Pool workers admit concurrently, so they call this under their
   batch's lock. *)
let admit b f =
  let last = Array.length b.best - 1 in
  if f < b.best.(last) then begin
    let i = ref last in
    while !i > 0 && b.best.(!i - 1) > f do
      b.best.(!i) <- b.best.(!i - 1);
      decr i
    done;
    b.best.(!i) <- f;
    Atomic.set b.cutoff b.best.(last)
  end

let bound_of ~width competitors =
  let b = { best = Array.make width infinity; cutoff = Atomic.make infinity } in
  Array.iter (fun i -> admit b i.fit) competitors;
  b

let competitors config population =
  match config.selection with Plus -> population | Comma -> [||]

(* Evaluate all genomes through the persistent worker pool.  Genome [i]
   belongs to group [i / (n / groups)], one per entry of [competitors].
   Results land by index in [out] (grow-only scratch owned by the run,
   reused across generations — entries past the batch length are
   stale), so the outcome is independent of scheduling; the pool's
   workers keep one stable trace lane per worker slot across
   generations. *)
let evaluate_all ~pool ~out ~width ~competitors fitness genomes =
  let n = Array.length genomes in
  let bounds = Array.map (bound_of ~width) competitors in
  let group = n / Array.length bounds in
  let lock = Mutex.create () in
  Emts_obs.Trace.span "ea.eval"
    ~args:[ ("tasks", Emts_obs.Trace.Int n) ]
    (fun () ->
      Emts_pool.run pool ~n (fun i ->
          let b = bounds.(i / group) in
          let cutoff = Atomic.get b.cutoff in
          let f = fitness ~cutoff genomes.(i) in
          if f > cutoff then Emts_obs.Metrics.incr m_early_reject_hits
          else begin
            Emts_obs.Metrics.incr m_early_reject_misses;
            Mutex.lock lock;
            admit b f;
            Mutex.unlock lock
          end;
          out.(i) <- f))

(* Rank: better fitness first; on ties the older individual (smaller
   birth index) wins, which keeps surviving seeds stable. *)
let compare_individual a b =
  let c = Float.compare a.fit b.fit in
  if c <> 0 then c else Int.compare a.birth b.birth

(* Over the union of the island populations, in island order. *)
let stats_of ~generation ~evaluations ~born_after populations =
  let acc = Emts_stats.Acc.create () in
  let fresh = ref 0 in
  Array.iter
    (Array.iter (fun i ->
         Emts_stats.Acc.add acc i.fit;
         if i.birth >= born_after then incr fresh))
    populations;
  {
    generation;
    best = Emts_stats.Acc.min acc;
    mean = Emts_stats.Acc.mean acc;
    worst = Emts_stats.Acc.max acc;
    evaluations;
    fresh_survivors = !fresh;
  }

(* {1 Checkpointing} *)

type 'g codec = {
  encode : 'g -> string;
  decode : string -> ('g, string) Stdlib.result;
}

type 'g checkpoint = { path : string; every : int; codec : 'g codec }

let checkpoint ~path ~every codec =
  if every < 1 then invalid_arg "Emts_ea.checkpoint: every must be >= 1";
  { path; every; codec }

let int_array_codec =
  {
    encode =
      (fun a ->
        String.concat "," (List.map string_of_int (Array.to_list a)));
    decode =
      (fun s ->
        if s = "" then Ok [||]
        else
          try
            Ok
              (Array.of_list
                 (List.map int_of_string (String.split_on_char ',' s)))
          with Failure _ -> Error "int_array_codec: malformed integer list");
  }

module J = Emts_resilience.Json

let checkpoint_magic = "emts-ea-checkpoint"
let checkpoint_version = 1.

let string_of_selection = function Plus -> "plus" | Comma -> "comma"

let json_of_stats s =
  J.Obj
    [
      ("generation", J.Num (float_of_int s.generation));
      ("best", J.float s.best);
      ("mean", J.float s.mean);
      ("worst", J.float s.worst);
      ("evaluations", J.Num (float_of_int s.evaluations));
      ("fresh_survivors", J.Num (float_of_int s.fresh_survivors));
    ]

let json_of_individual codec i =
  J.Obj
    [
      ("genome", J.Str (codec.encode i.genome));
      ("fit", J.float i.fit);
      ("birth", J.Num (float_of_int i.birth));
    ]

let save_checkpoint ck ~config ~generation ~evaluations ~births ~rng
    ~best_ever ~population ~history =
  let payload =
    J.to_string
      (J.Obj
         [
           ("magic", J.Str checkpoint_magic);
           ("version", J.Num checkpoint_version);
           ( "config",
             J.Obj
               [
                 ("mu", J.Num (float_of_int config.mu));
                 ("lambda", J.Num (float_of_int config.lambda));
                 ("generations", J.Num (float_of_int config.generations));
                 ("selection", J.Str (string_of_selection config.selection));
               ] );
           ("generation", J.Num (float_of_int generation));
           ("evaluations", J.Num (float_of_int evaluations));
           ("births", J.Num (float_of_int births));
           ( "rng",
             J.List
               (Array.to_list
                  (Array.map
                     (fun w -> J.Str (Printf.sprintf "%016Lx" w))
                     (Emts_prng.state rng))) );
           ("best", json_of_individual ck.codec best_ever);
           ( "population",
             J.List
               (Array.to_list
                  (Array.map (json_of_individual ck.codec) population)) );
           ("history", J.List (List.map json_of_stats history));
         ])
  in
  Emts_obs.Trace.span "ea.checkpoint"
    ~args:[ ("generation", Emts_obs.Trace.Int generation) ]
    (fun () -> Emts_resilience.Checksummed.save ~path:ck.path payload);
  Emts_obs.Metrics.incr m_checkpoint_writes

(* Everything [resume] needs to continue the run exactly where a
   checkpoint left it.  [history] is chronological. *)
type 'g snapshot = {
  s_generation : int;
  s_evaluations : int;
  s_births : int;
  s_rng : int64 array;
  s_best : 'g individual;
  s_population : 'g individual array;
  s_history : generation_stats list;
}

let ( let* ) = Result.bind

let field name conv json =
  match J.member name json with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v ->
    Result.map_error (fun m -> Printf.sprintf "field %S: %s" name m) (conv v)

let individual_of_json codec json =
  let* genome_s = field "genome" J.to_str json in
  let* genome =
    Result.map_error
      (fun m -> Printf.sprintf "field \"genome\": %s" m)
      (codec.decode genome_s)
  in
  let* fit = field "fit" J.to_float json in
  let* birth = field "birth" J.to_int json in
  Ok { genome; fit; birth }

let stats_of_json json =
  let* generation = field "generation" J.to_int json in
  let* best = field "best" J.to_float json in
  let* mean = field "mean" J.to_float json in
  let* worst = field "worst" J.to_float json in
  let* evaluations = field "evaluations" J.to_int json in
  let* fresh_survivors = field "fresh_survivors" J.to_int json in
  Ok { generation; best; mean; worst; evaluations; fresh_survivors }

let word_of_json = function
  | J.Str s -> (
    try Ok (Int64.of_string ("0x" ^ s))
    with Failure _ -> Error (Printf.sprintf "bad rng word %S" s))
  | _ -> Error "rng word must be a hex string"

let check_config_field name stored expected =
  if stored = expected then Ok ()
  else
    Error
      (Printf.sprintf "config mismatch: checkpoint has %s = %s, run has %s"
         name stored expected)

let load_checkpoint ck ~config =
  let fail msg = Error (Printf.sprintf "%s: %s" ck.path msg) in
  match Emts_resilience.Checksummed.load ~path:ck.path with
  | Error e -> Error (Emts_resilience.Error.to_string e)
  | Ok payload -> (
    match
      let* json = J.of_string payload in
      let* magic = field "magic" J.to_str json in
      let* () =
        if magic = checkpoint_magic then Ok ()
        else Error (Printf.sprintf "not an EA checkpoint (magic %S)" magic)
      in
      let* version = field "version" J.to_float json in
      let* () =
        if version = checkpoint_version then Ok ()
        else Error (Printf.sprintf "unsupported version %g" version)
      in
      let* cfg = field "config" (fun j -> Ok j) json in
      let* mu = field "mu" J.to_int cfg in
      let* () =
        check_config_field "mu" (string_of_int mu) (string_of_int config.mu)
      in
      let* lambda = field "lambda" J.to_int cfg in
      let* () =
        check_config_field "lambda" (string_of_int lambda)
          (string_of_int config.lambda)
      in
      let* generations = field "generations" J.to_int cfg in
      let* () =
        check_config_field "generations"
          (string_of_int generations)
          (string_of_int config.generations)
      in
      let* sel = field "selection" J.to_str cfg in
      let* () =
        check_config_field "selection" sel
          (string_of_selection config.selection)
      in
      let* s_generation = field "generation" J.to_int json in
      let* s_evaluations = field "evaluations" J.to_int json in
      let* s_births = field "births" J.to_int json in
      let* rng_words = field "rng" J.to_list json in
      let* s_rng =
        List.fold_left
          (fun acc w ->
            let* acc = acc in
            let* w = word_of_json w in
            Ok (w :: acc))
          (Ok []) rng_words
        |> Result.map (fun ws -> Array.of_list (List.rev ws))
      in
      let* () =
        if Array.length s_rng = 4 then Ok ()
        else Error "rng state must have 4 words"
      in
      let* s_best = field "best" (individual_of_json ck.codec) json in
      let* pop = field "population" J.to_list json in
      let* s_population =
        List.fold_left
          (fun acc j ->
            let* acc = acc in
            let* i = individual_of_json ck.codec j in
            Ok (i :: acc))
          (Ok []) pop
        |> Result.map (fun is -> Array.of_list (List.rev is))
      in
      let* () =
        if Array.length s_population = config.mu then Ok ()
        else
          Error
            (Printf.sprintf "population has %d individuals, config.mu is %d"
               (Array.length s_population) config.mu)
      in
      let* hist = field "history" J.to_list json in
      let* s_history =
        List.fold_left
          (fun acc j ->
            let* acc = acc in
            let* s = stats_of_json j in
            Ok (s :: acc))
          (Ok []) hist
        |> Result.map List.rev
      in
      Ok
        {
          s_generation;
          s_evaluations;
          s_births;
          s_rng;
          s_best;
          s_population;
          s_history;
        }
    with
    | Ok snap -> Ok snap
    | Error msg -> fail msg)

(* {1 The engine}

   One generation loop, [evolve], serves [run] at any island count and
   [resume].  It evolves [k = config.islands] populations of [mu], each
   drawing from its own stream: the caller's [rng] itself when [k = 1]
   (never split, so one island is exactly the plain (mu+lambda)
   strategy), else one {!Emts_prng.split} of it per island, in island
   order, before anything else consumes it.  Each generation draws
   every island's [lambda] offspring, island by island, before anything
   is evaluated, so the streams are the same whether evaluation is
   parallel or not; results depend on (seed, islands, interval, count),
   never on [domains].  The offspring go through the pool as one batch,
   in which island [i] owns entries [i * lambda .. (i + 1) * lambda - 1]
   and has a selection bound of its own from its own parents: an
   offspring competes only within its island.  Selection is per island,
   and stats cover the union of the populations.

   With [k > 1], migration is a ring: every [migration_interval]
   generations island [i] sends copies of its [migration_count] best to
   island [(i + 1) mod k], where they replace the worst.  Emigrants are
   snapshotted from every island before any replacement happens, so the
   exchange order cannot leak an individual around the ring twice in
   one step.

   Checkpoint/resume stays islands = 1 territory: a faithful island
   snapshot would need all [k] populations and streams, a format change
   this mode does not justify yet. *)

(* The caller has already built (or restored) the populations,
   best-ever, counters and history through generation
   [first_generation - 1]; when a checkpoint is configured, the state
   through that generation is on disk iff
   [saved_through = first_generation - 1]. *)
let evolve ~stop ~deadline ~checkpoint ~rngs ~config ~started ~eval_batch
    ~record ~evaluations ~births ~history ~populations ~best_ever
    ~seed_fitness ~first_generation ~saved_through problem =
  let k = Array.length populations and lambda = config.lambda in
  let consider candidate =
    if compare_individual candidate !best_ever < 0 then best_ever := candidate
  in
  let last_saved = ref saved_through in
  let save u =
    match checkpoint with
    | None -> ()
    | Some ck ->
      save_checkpoint ck ~config ~generation:u ~evaluations:!evaluations
        ~births:!births ~rng:rngs.(0) ~best_ever:!best_ever
        ~population:populations.(0) ~history:(List.rev !history);
      last_saved := u
  in
  if Option.is_some checkpoint && !last_saved < first_generation - 1 then
    save (first_generation - 1);
  let out_of_time () =
    (match config.time_budget with
    | None -> false
    | Some budget -> Emts_obs.Clock.elapsed ~since:started > budget)
    ||
    match deadline with
    | None -> false
    | Some d -> Emts_obs.Clock.now () > d
  in
  let u = ref first_generation in
  while !u <= config.generations && not (out_of_time ()) && not (stop ()) do
    Emts_obs.Trace.span "ea.generation"
      ~args:[ ("generation", Emts_obs.Trace.Int !u) ]
    @@ fun () ->
    Emts_obs.Metrics.incr m_generations;
    let born_after = !births in
    let offspring_genomes =
      Array.init (k * lambda) (fun j ->
          let isl = j / lambda in
          let rng = rngs.(isl) and population = populations.(isl) in
          let slot = Emts_prng.int rng config.mu in
          let parent = population.(slot) in
          let base =
            match problem.recombine with
            | Some recombine
              when config.mu > 1
                   && Emts_prng.bernoulli rng ~p:problem.crossover_rate ->
              (* a second parent from a distinct population slot *)
              let other_slot =
                let j = Emts_prng.int rng (config.mu - 1) in
                if j >= slot then j + 1 else j
              in
              recombine rng parent.genome population.(other_slot).genome
            | Some _ | None -> parent.genome
          in
          problem.mutate rng ~generation:!u
            ~total_generations:config.generations base)
    in
    let offspring =
      eval_batch ~width:config.mu
        ~competitors:(Array.map (competitors config) populations)
        offspring_genomes
    in
    Array.iter consider offspring;
    Array.iteri
      (fun isl population ->
        let own = Array.sub offspring (isl * lambda) lambda in
        let pool =
          match config.selection with
          | Plus -> Array.append population own
          | Comma -> own
        in
        Array.sort compare_individual pool;
        Array.blit pool 0 population 0 config.mu)
      populations;
    (* Ring migration: populations are sorted, so emigrants are the
       leading [migration_count] entries and immigrants replace the
       trailing ones. *)
    if
      k > 1 && config.migration_count > 0
      && !u mod config.migration_interval = 0
    then begin
      Emts_obs.Metrics.incr m_migrations;
      let count = config.migration_count in
      let emigrants = Array.map (fun p -> Array.sub p 0 count) populations in
      Array.iteri
        (fun isl population ->
          Array.blit emigrants.((isl + k - 1) mod k) 0 population
            (config.mu - count) count;
          Array.sort compare_individual population)
        populations
    end;
    record ~born_after !u;
    (match checkpoint with
    | Some ck when !u mod ck.every = 0 -> save !u
    | _ -> ());
    incr u
  done;
  (* Final save: a graceful stop, a time-budget expiry, or normal
     completion between [every] multiples must still be resumable from
     the exact generation reached. *)
  if Option.is_some checkpoint && !last_saved < !u - 1 then save (!u - 1);
  {
    best = !best_ever.genome;
    best_fitness = !best_ever.fit;
    seed_fitness;
    history = List.rev !history;
    evaluations = !evaluations;
    elapsed = Emts_obs.Clock.elapsed ~since:started;
  }

let make_eval_batch ~pool ~evaluations ~births problem =
  (* One fitness buffer per run, not per batch: the seed batch sizes it
     (seeds can outnumber lambda) and every generation reuses it. *)
  let scratch = ref [||] in
  fun ~width ~competitors genomes ->
    let n = Array.length genomes in
    if Array.length !scratch < n then scratch := Array.make n nan;
    let fits = !scratch in
    evaluate_all ~pool ~out:fits ~width ~competitors problem.fitness genomes;
    evaluations := !evaluations + n;
    Emts_obs.Metrics.add m_evaluations n;
    if Emts_obs.Metrics.enabled () then
      for i = 0 to n - 1 do
        if Float.is_finite fits.(i) then Emts_obs.Metrics.observe m_fitness fits.(i)
      done;
    Array.mapi
      (fun i genome ->
        let birth = !births in
        incr births;
        { genome; fit = fits.(i); birth })
      genomes

let make_record ~on_generation ~config ~evaluations ~history ~populations
    ~born_after generation =
  let s =
    stats_of ~generation ~evaluations:!evaluations ~born_after populations
  in
  history := s :: !history;
  Emts_obs.Progress.report (fun () ->
      Printf.sprintf "ea generation %d/%d best %.6g evaluations %d"
        s.generation config.generations s.best s.evaluations);
  on_generation s

(* Run [f] with the caller's persistent pool when one is supplied (the
   serving layer keeps one per worker across requests), else with a
   fresh pool for the duration of the run. *)
let with_pool_opt ~domains pool f =
  match pool with
  | Some p -> f p
  | None -> Emts_pool.with_pool ~domains f

let run ?(on_generation = fun _ -> ()) ?(stop = fun () -> false) ?deadline
    ?pool ?checkpoint ~rng ~config ~seeds problem =
  if seeds = [] then invalid_arg "Emts_ea.run: seeds must be non-empty";
  if config.islands > 1 && Option.is_some checkpoint then
    invalid_arg "Emts_ea.run: checkpointing requires islands = 1";
  (* Span context is ambient (Domain.DLS): when the serving layer runs
     this under a request's [serve.solve] span, ea.run and everything
     below it inherit that request's trace_id with no plumbing here.
     The pool re-installs the submitting context inside worker domains
     (see Emts_pool), so ea.eval spans correlate too. *)
  Emts_obs.Trace.span "ea.run"
    ~args:
      [
        ("mu", Emts_obs.Trace.Int config.mu);
        ("lambda", Emts_obs.Trace.Int config.lambda);
        ("generations", Emts_obs.Trace.Int config.generations);
        ("domains", Emts_obs.Trace.Int config.domains);
        ("islands", Emts_obs.Trace.Int config.islands);
      ]
  @@ fun () ->
  (* One pool for the whole run: worker domains are spawned here once
     and joined on every exit path (normal return or raising fitness),
     not re-spawned every generation.  A caller-supplied pool outlives
     the run instead. *)
  with_pool_opt ~domains:config.domains pool
  @@ fun pool ->
  let started = Emts_obs.Clock.now () in
  let evaluations = ref 0 in
  let births = ref 0 in
  let eval_batch = make_eval_batch ~pool ~evaluations ~births problem in
  let rngs =
    if config.islands = 1 then [| rng |]
    else Array.init config.islands (fun _ -> Emts_prng.split rng)
  in
  (* Seeds are evaluated once, exactly.  Every island starts from their
     best mu, padded with the best seed when there are fewer than mu. *)
  let seed_pop =
    eval_batch ~width:(List.length seeds) ~competitors:[| [||] |]
      (Array.of_list seeds)
  in
  let seed_fitness = Array.fold_right (fun i acc -> i.fit :: acc) seed_pop [] in
  Array.sort compare_individual seed_pop;
  let populations =
    Array.init config.islands (fun _ ->
        Array.init config.mu (fun i ->
            if i < Array.length seed_pop then seed_pop.(i) else seed_pop.(0)))
  in
  (* best-ever tracking, needed under Comma selection where the
     population may lose the incumbent *)
  let best_ever = ref populations.(0).(0) in
  let history = ref [] in
  let record =
    make_record ~on_generation ~config ~evaluations ~history ~populations
  in
  record ~born_after:0 0;
  evolve ~stop ~deadline ~checkpoint ~rngs ~config ~started ~eval_batch ~record
    ~evaluations ~births ~history ~populations ~best_ever ~seed_fitness
    ~first_generation:1 ~saved_through:(-1) problem

let resume ?(on_generation = fun _ -> ()) ?(stop = fun () -> false) ?deadline
    ?pool ~from ~config problem =
  if config.islands > 1 then
    Error "Emts_ea.resume: resuming requires islands = 1"
  else
  match load_checkpoint from ~config with
  | Error _ as e -> e
  | Ok snap ->
    Emts_obs.Metrics.incr m_checkpoint_resumes;
    Ok
      ( Emts_obs.Trace.span "ea.resume"
          ~args:
            [
              ("generation", Emts_obs.Trace.Int snap.s_generation);
              ("mu", Emts_obs.Trace.Int config.mu);
              ("lambda", Emts_obs.Trace.Int config.lambda);
              ("domains", Emts_obs.Trace.Int config.domains);
            ]
      @@ fun () ->
        with_pool_opt ~domains:config.domains pool
        @@ fun pool ->
        let started = Emts_obs.Clock.now () in
        let evaluations = ref snap.s_evaluations in
        let births = ref snap.s_births in
        let eval_batch =
          make_eval_batch ~pool ~evaluations ~births problem
        in
        let populations = [| snap.s_population |] in
        let best_ever = ref snap.s_best in
        let history = ref [] in
        let record =
          make_record ~on_generation ~config ~evaluations ~history ~populations
        in
        (* Replay the restored history through [on_generation] in
           chronological order: callers derive state from the stream of
           generation stats (1/5-rule step sizes), and
           replaying rebuilds that state exactly as the uninterrupted
           run built it — this is what makes resumption bit-identical
           even under adaptive operators. *)
        List.iter
          (fun s ->
            history := s :: !history;
            on_generation s)
          snap.s_history;
        evolve ~stop ~deadline ~checkpoint:(Some from)
          ~rngs:[| Emts_prng.of_state snap.s_rng |] ~config ~started
          ~eval_batch ~record ~evaluations ~births ~history ~populations
          ~best_ever ~seed_fitness:[]
          ~first_generation:(snap.s_generation + 1)
          ~saved_through:snap.s_generation problem )
