(* Tests for the generic (mu+lambda) evolution strategy. *)

module EA = Emts_ea

(* Toy problem: minimise (x - 7)^2 over float genomes.  sigma must be
   large enough for 30 generations to cross from the seeds to 7. *)
let toy_problem ?(sigma = 5.) () =
  EA.mutation_only
    ~fitness:(fun x -> (x -. 7.) ** 2.)
    ~mutate:(fun rng ~generation:_ ~total_generations:_ x ->
      x +. Emts_prng.normal rng ~mu:0. ~sigma)

let config ?time_budget ?(domains = Testutil.test_domains) ?(mu = 4)
    ?(lambda = 12) ?(generations = 30) () =
  EA.config ?time_budget ~domains ~mu ~lambda ~generations ()

let run ?(seed = 1) ?config:(c = config ()) ?(seeds = [ 100.; -50. ]) () =
  EA.run ~rng:(Emts_prng.create ~seed ()) ~config:c ~seeds (toy_problem ())

let test_converges () =
  let r = run () in
  Alcotest.(check bool) "near optimum" true (r.EA.best_fitness < 4.);
  Alcotest.(check bool) "genome near 7" true (Float.abs (r.EA.best -. 7.) < 2.)

let test_config_validation () =
  let reject label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "mu 0" (fun () -> EA.config ~mu:0 ~lambda:1 ~generations:1 ());
  reject "lambda 0" (fun () -> EA.config ~mu:1 ~lambda:0 ~generations:1 ());
  reject "negative generations" (fun () ->
      EA.config ~mu:1 ~lambda:1 ~generations:(-1) ());
  reject "domains 0" (fun () ->
      EA.config ~domains:0 ~mu:1 ~lambda:1 ~generations:1 ());
  reject "bad budget" (fun () ->
      EA.config ~time_budget:0. ~mu:1 ~lambda:1 ~generations:1 ())

let test_empty_seeds_rejected () =
  Alcotest.(check bool) "empty seeds" true
    (try
       ignore
         (EA.run
            ~rng:(Emts_prng.create ())
            ~config:(config ()) ~seeds:[] (toy_problem ()));
       false
     with Invalid_argument _ -> true)

let test_elitism_monotone_history () =
  let r = run () in
  let rec check_monotone : EA.generation_stats list -> unit = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "best never worsens" true
        (b.EA.best <= a.EA.best +. 1e-12);
      check_monotone rest
    | [ _ ] | [] -> ()
  in
  check_monotone r.EA.history

let test_never_worse_than_seeds () =
  let r = run () in
  let seed_best = Float.min ((100. -. 7.) ** 2.) ((-50. -. 7.) ** 2.) in
  Alcotest.(check bool) "<= best seed" true (r.EA.best_fitness <= seed_best)

let test_generation_accounting () =
  let c = config ~mu:3 ~lambda:10 ~generations:5 () in
  let r = run ~config:c () in
  Alcotest.(check int) "evaluations = seeds + U * lambda" (2 + (5 * 10))
    r.EA.evaluations;
  Alcotest.(check int) "history = seeds entry + U" 6 (List.length r.EA.history);
  let last = List.nth r.EA.history 5 in
  Alcotest.(check int) "last generation index" 5 last.EA.generation

let test_zero_generations () =
  let c = config ~generations:0 () in
  let r = run ~config:c () in
  Alcotest.(check int) "only seed evaluations" 2 r.EA.evaluations;
  (* seed fitnesses: (100-7)^2 = 8649 and (-50-7)^2 = 3249 *)
  Alcotest.(check (float 0.)) "best is the better seed" 3249.
    r.EA.best_fitness

let test_determinism () =
  let r1 = run ~seed:42 () and r2 = run ~seed:42 () in
  Alcotest.(check (float 0.)) "same best fitness" r1.EA.best_fitness
    r2.EA.best_fitness;
  Alcotest.(check (float 0.)) "same genome" r1.EA.best r2.EA.best;
  let r3 = run ~seed:43 () in
  Alcotest.(check bool) "different seed, different trajectory" true
    (r1.EA.best <> r3.EA.best)

let test_parallel_eval_equivalent () =
  let sequential = run ~config:(config ~domains:1 ~lambda:16 ()) () in
  let parallel = run ~config:(config ~domains:4 ~lambda:16 ()) () in
  Alcotest.(check (float 0.)) "identical best" sequential.EA.best_fitness
    parallel.EA.best_fitness;
  Alcotest.(check (float 0.)) "identical genome" sequential.EA.best
    parallel.EA.best;
  Alcotest.(check int) "identical evaluation count" sequential.EA.evaluations
    parallel.EA.evaluations;
  Alcotest.(check bool) "bit-identical history" true
    (sequential.EA.history = parallel.EA.history)

let test_time_budget_stops () =
  (* A microscopic budget: the run must stop before its 1000 nominal
     generations. *)
  let c = config ~time_budget:1e-6 ~generations:1000 () in
  let r = run ~config:c () in
  Alcotest.(check bool) "stopped early" true
    (List.length r.EA.history < 1001)

let test_on_generation_callback () =
  let seen = ref [] in
  let c = config ~generations:3 () in
  ignore
    (EA.run
       ~on_generation:(fun s -> seen := s.EA.generation :: !seen)
       ~rng:(Emts_prng.create ~seed:1 ())
       ~config:c ~seeds:[ 0. ] (toy_problem ()));
  Alcotest.(check (list int)) "called for 0..U" [ 0; 1; 2; 3 ] (List.rev !seen)

let test_seed_padding () =
  (* one seed, mu=4: the population pads by reusing the seed. *)
  let c = config ~mu:4 ~generations:1 () in
  let r =
    EA.run
      ~rng:(Emts_prng.create ~seed:2 ())
      ~config:c ~seeds:[ 3. ] (toy_problem ())
  in
  Alcotest.(check bool) "works with fewer seeds than mu" true
    (r.EA.best_fitness <= (3. -. 7.) ** 2.)

let test_seed_padding_uses_best_seed () =
  (* Regression: with mu > #seeds the padded slots must replicate the
     BEST seed, not the worst.  Seeds 10. (fitness 9) and 3. (fitness
     16) with mu = 3: the initial population is {10., 3., 10.}, so the
     generation-0 mean over fitnesses is (9 + 16 + 9) / 3.  The old
     code padded with the worst seed, giving (9 + 16 + 16) / 3. *)
  let c = config ~mu:3 ~generations:0 () in
  let r =
    EA.run
      ~rng:(Emts_prng.create ~seed:2 ())
      ~config:c ~seeds:[ 3.; 10. ] (toy_problem ())
  in
  match r.EA.history with
  | s0 :: _ ->
    Alcotest.(check (float 1e-9)) "mean reflects best-seed padding"
      ((9. +. 16. +. 9.) /. 3.)
      s0.EA.mean;
    Alcotest.(check (float 0.)) "worst survivor is the worst seed" 16.
      s0.EA.worst;
    Alcotest.(check (float 0.)) "best is the best seed" 9. s0.EA.best
  | [] -> Alcotest.fail "empty history"

exception Fitness_failed of int

let test_worker_exception_propagates () =
  (* A fitness exception inside a parallel evaluation must reach the
     caller with every worker domain joined — observable because a
     fresh run on the same process still works afterwards. *)
  let failing =
    EA.mutation_only
      ~fitness:(fun x ->
        if x > 50. then raise (Fitness_failed (int_of_float x));
        (x -. 7.) ** 2.)
      ~mutate:(fun rng ~generation:_ ~total_generations:_ x ->
        x +. Emts_prng.normal rng ~mu:0. ~sigma:5.)
  in
  let c = config ~domains:4 ~mu:4 ~lambda:16 ~generations:2 () in
  let raised =
    try
      ignore
        (EA.run
           ~rng:(Emts_prng.create ~seed:3 ())
           ~config:c
           ~seeds:[ 0.; 10.; 20.; 99. ]
           failing);
      false
    with Fitness_failed _ -> true
  in
  Alcotest.(check bool) "fitness exception propagates" true raised;
  let r = run ~config:(config ~domains:4 ()) () in
  Alcotest.(check bool) "later runs unaffected" true (r.EA.best_fitness < 4.)

let test_stats_fields () =
  let r = run () in
  List.iter
    (fun (s : EA.generation_stats) ->
      Alcotest.(check bool) "best <= mean <= worst" true
        (s.EA.best <= s.EA.mean +. 1e-9 && s.EA.mean <= s.EA.worst +. 1e-9);
      Alcotest.(check bool) "fresh survivors within [0, mu]" true
        (0 <= s.EA.fresh_survivors && s.EA.fresh_survivors <= 4))
    r.EA.history;
  (* the seed-ranking entry counts the whole population as fresh *)
  (match r.EA.history with
  | s0 :: _ -> Alcotest.(check int) "seed generation all fresh" 4 s0.EA.fresh_survivors
  | [] -> Alcotest.fail "empty history")

let test_comma_selection () =
  (* Comma requires lambda >= mu *)
  Alcotest.(check bool) "lambda < mu rejected" true
    (try
       ignore (EA.config ~selection:EA.Comma ~mu:5 ~lambda:3 ~generations:1 ());
       false
     with Invalid_argument _ -> true);
  (* comma runs still return the best individual ever seen *)
  let c = config ~mu:3 ~lambda:12 ~generations:25 () in
  let c = { c with EA.selection = EA.Comma } in
  let r = run ~seed:5 ~config:c () in
  Alcotest.(check bool) "best-ever at least as good as the best seed" true
    (r.EA.best_fitness <= ((-50.) -. 7.) ** 2.);
  Alcotest.(check bool) "still converges on the toy problem" true
    (r.EA.best_fitness < 25.)

let test_comma_population_can_worsen () =
  (* the population best may oscillate under Comma (no elitism), while
     the returned best-ever never exceeds any history entry *)
  let c = config ~mu:2 ~lambda:4 ~generations:40 () in
  let c = { c with EA.selection = EA.Comma } in
  let r = run ~seed:9 ~config:c () in
  let worsened =
    let rec scan = function
      | (a : EA.generation_stats) :: (b :: _ as rest) ->
        b.EA.best > a.EA.best +. 1e-12 || scan rest
      | [ _ ] | [] -> false
    in
    scan r.EA.history
  in
  Alcotest.(check bool) "population best oscillates at least once" true
    worsened;
  List.iter
    (fun (s : EA.generation_stats) ->
      Alcotest.(check bool) "best-ever <= every generation best" true
        (r.EA.best_fitness <= s.EA.best +. 1e-12))
    r.EA.history

(* The selection bound, pinned call by call.  At domains = 1 the calls
   run in batch order.  A toy fitness records the cutoff each call gets
   and, as the contract allows, returns something else above it: the
   true value plus 1000.  A replay of the run from the recorded values
   rebuilds each group's bound.  The group is the seed batch, or one
   generation's offspring of one island.  Its bound holds the parents'
   fitness under Plus, then every earlier call of the group that came
   back at or below its cutoff.  Each offspring's cutoff must be the
   mu-th smallest of it, or infinity while fewer than mu are known.
   The seed batch's bound is as wide as the seed list, so every seed
   gets infinity and the result reports its exact fitness.  The run must
   return what the exact fitness returns, and some offspring's cutoff
   must be below the worst parent (Plus) or finite (Comma), where the
   older worst-survivor rule would have set it.  The replay migrates as
   the run does; at 3 islands that pins the ring's direction too. *)
let test_selection_bound () =
  let mu = 3 and lambda = 8 and generations = 6 in
  let seeds = [ 100.; -50.; 30.; 12.; -4. ] in
  let nth_smallest width known =
    Option.value ~default:infinity
      (List.nth_opt (List.sort compare known) (width - 1))
  in
  let mu_th = nth_smallest mu in
  List.iter
    (fun (selection, islands) ->
      let label =
        Printf.sprintf "%s, %d island(s)"
          (match selection with EA.Plus -> "plus" | EA.Comma -> "comma")
          islands
      in
      let config =
        EA.config ~domains:1 ~selection ~islands ~migration_interval:2 ~mu
          ~lambda ~generations ()
      in
      let calls = ref [] in
      let fitness ~cutoff x =
        let f = (x -. 7.) ** 2. in
        let f = if f > cutoff then f +. 1000. else f in
        calls := (cutoff, f) :: !calls;
        f
      in
      let run problem =
        EA.run ~rng:(Emts_prng.create ~seed:5 ()) ~config ~seeds problem
      in
      let r = run { (toy_problem ()) with EA.fitness } in
      let exact = run (toy_problem ()) in
      Alcotest.(check (float 0.)) (label ^ ": best") exact.EA.best_fitness
        r.EA.best_fitness;
      Alcotest.(check bool) (label ^ ": history") true
        (exact.EA.history = r.EA.history);
      Alcotest.(check int) (label ^ ": evaluations") exact.EA.evaluations
        r.EA.evaluations;
      let calls = Array.of_list (List.rev !calls) in
      let next = ref 0 and hits = ref 0 and tighter = ref 0 in
      (* Replays one group of [n] calls whose bound is [width] wide;
         returns its (fitness, birth)s. *)
      let group ?(width = mu) ~parents n =
        let known = ref (Array.to_list (Array.map fst parents)) in
        let old_rule = mu_th !known in
        Array.init n (fun _ ->
            let i = !next in
            let cutoff, f = calls.(i) in
            incr next;
            let want = nth_smallest width !known in
            if Int64.bits_of_float cutoff <> Int64.bits_of_float want then
              Alcotest.failf "%s: call %d got cutoff %h, the bound is %h" label
                i cutoff want;
            if cutoff < old_rule then incr tighter;
            if f > cutoff then incr hits else known := f :: !known;
            (f, i))
      in
      let best_mu pool =
        Array.sort compare pool;
        Array.sub pool 0 mu
      in
      let seed_pop =
        group ~width:(List.length seeds) ~parents:[||] (List.length seeds)
      in
      Alcotest.(check (list (float 0.))) (label ^ ": seed fitness")
        (List.map (fun x -> (x -. 7.) ** 2.) seeds)
        r.EA.seed_fitness;
      Array.sort compare seed_pop;
      (* from here on, count offspring only *)
      tighter := 0;
      let populations =
        Array.init islands (fun _ ->
            Array.init mu (fun i ->
                seed_pop.(if i < Array.length seed_pop then i else 0)))
      in
      for u = 1 to generations do
        let offspring =
          Array.map
            (fun pop ->
              group
                ~parents:(if selection = EA.Plus then pop else [||])
                lambda)
            populations
        in
        Array.iteri
          (fun isl pop ->
            populations.(isl) <-
              best_mu
                (if selection = EA.Plus then Array.append pop offspring.(isl)
                 else offspring.(isl)))
          populations;
        if islands > 1 && u mod 2 = 0 then begin
          let emigrants = Array.map (fun pop -> pop.(0)) populations in
          Array.iteri
            (fun isl pop ->
              pop.(mu - 1) <- emigrants.((isl + islands - 1) mod islands);
              Array.sort compare pop)
            populations
        end
      done;
      Alcotest.(check int) (label ^ ": every call replayed")
        (Array.length calls) !next;
      Alcotest.(check bool) (label ^ ": some calls rejected") true (!hits > 0);
      Alcotest.(check bool)
        (label ^ ": tighter than the worst-survivor cutoff")
        true (!tighter > 0))
    [
      (EA.Plus, 1); (EA.Comma, 1); (EA.Plus, 2); (EA.Comma, 2); (EA.Plus, 3);
      (EA.Comma, 3);
    ]

(* Lossless float codec for checkpoint tests: %h hex floats
   round-trip every finite double exactly. *)
let float_codec =
  {
    EA.encode = (fun x -> Printf.sprintf "%h" x);
    decode =
      (fun s ->
        match float_of_string_opt s with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "not a float: %S" s));
  }

let with_ckpt_file f =
  let path = Filename.temp_file "emts_ea" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_checkpoint_resume_bit_identical () =
  (* Interrupt at generation k (stop polled at generation boundaries),
     resume from the checkpoint, and demand the exact trajectory of an
     uninterrupted run: same best genome, fitness, history and
     evaluation count. *)
  let generations = 12 in
  let c = config ~mu:4 ~lambda:12 ~generations () in
  let reference = run ~seed:11 ~config:c () in
  List.iter
    (fun k ->
      with_ckpt_file @@ fun path ->
      let ck = EA.checkpoint ~path ~every:1 float_codec in
      let completed = ref (-1) in
      let partial =
        EA.run
          ~on_generation:(fun s -> completed := s.EA.generation)
          ~stop:(fun () -> !completed >= k)
          ~checkpoint:ck
          ~rng:(Emts_prng.create ~seed:11 ())
          ~config:c ~seeds:[ 100.; -50. ] (toy_problem ())
      in
      Alcotest.(check int)
        (Printf.sprintf "k=%d: stopped after generation k" k)
        (k + 1)
        (List.length partial.EA.history);
      match EA.resume ~from:ck ~config:c (toy_problem ()) with
      | Error msg -> Alcotest.fail (Printf.sprintf "k=%d: %s" k msg)
      | Ok r ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "k=%d: best fitness" k)
          reference.EA.best_fitness r.EA.best_fitness;
        Alcotest.(check (float 0.))
          (Printf.sprintf "k=%d: best genome" k)
          reference.EA.best r.EA.best;
        Alcotest.(check int)
          (Printf.sprintf "k=%d: evaluations" k)
          reference.EA.evaluations r.EA.evaluations;
        Alcotest.(check bool)
          (Printf.sprintf "k=%d: bit-identical history" k)
          true
          (r.EA.history = reference.EA.history))
    [ 0; 1; generations / 2; generations ]

let test_checkpoint_resume_parallel () =
  (* The resume guarantee must hold under parallel evaluation too. *)
  let c = config ~domains:4 ~mu:4 ~lambda:16 ~generations:8 () in
  let reference = run ~seed:21 ~config:c () in
  with_ckpt_file @@ fun path ->
  let ck = EA.checkpoint ~path ~every:2 float_codec in
  let completed = ref (-1) in
  ignore
    (EA.run
       ~on_generation:(fun s -> completed := s.EA.generation)
       ~stop:(fun () -> !completed >= 4)
       ~checkpoint:ck
       ~rng:(Emts_prng.create ~seed:21 ())
       ~config:c ~seeds:[ 100.; -50. ] (toy_problem ()));
  match EA.resume ~from:ck ~config:c (toy_problem ()) with
  | Error msg -> Alcotest.fail msg
  | Ok r ->
    Alcotest.(check (float 0.)) "best fitness" reference.EA.best_fitness
      r.EA.best_fitness;
    Alcotest.(check bool) "bit-identical history" true
      (r.EA.history = reference.EA.history)

let test_resume_rejects_mismatched_config () =
  let c = config ~mu:4 ~lambda:12 ~generations:4 () in
  with_ckpt_file @@ fun path ->
  let ck = EA.checkpoint ~path ~every:1 float_codec in
  ignore
    (EA.run ~checkpoint:ck
       ~rng:(Emts_prng.create ~seed:31 ())
       ~config:c ~seeds:[ 100.; -50. ] (toy_problem ()));
  let mismatched = config ~mu:5 ~lambda:12 ~generations:4 () in
  (match EA.resume ~from:ck ~config:mismatched (toy_problem ()) with
  | Ok _ -> Alcotest.fail "mu mismatch accepted"
  | Error msg ->
    Alcotest.(check bool) "error names the file" true
      (Testutil.contains_substring msg path));
  (* A corrupted checkpoint file is a clean error, not an exception. *)
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let broken = Bytes.of_string raw in
  Bytes.set broken (Bytes.length broken / 2) '#';
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc broken);
  match EA.resume ~from:ck ~config:c (toy_problem ()) with
  | Ok _ -> Alcotest.fail "corrupt checkpoint accepted"
  | Error _ -> ()

let test_stop_flag_halts () =
  (* stop = always true: only the seed ranking happens, and the exit
     checkpoint is still written so the run can resume. *)
  let c = config ~generations:30 () in
  with_ckpt_file @@ fun path ->
  let ck = EA.checkpoint ~path ~every:5 float_codec in
  let r =
    EA.run
      ~stop:(fun () -> true)
      ~checkpoint:ck
      ~rng:(Emts_prng.create ~seed:41 ())
      ~config:c ~seeds:[ 100.; -50. ] (toy_problem ())
  in
  Alcotest.(check int) "only the seed ranking ran" 1
    (List.length r.EA.history);
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path)

let test_default_domains () =
  let d = EA.default_domains () in
  Alcotest.(check bool) "in [1, 8]" true (1 <= d && d <= 8)

(* {1 Island mode} *)

let island_config ?(domains = 1) ?(mu = 4) ?(lambda = 8) ?(generations = 12)
    ?(islands = 3) ?(migration_interval = 3) ?(migration_count = 1) () =
  EA.config ~domains ~islands ~migration_interval ~migration_count ~mu ~lambda
    ~generations ()

let test_island_config_validation () =
  let reject label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "islands 0" (fun () -> island_config ~islands:0 ());
  reject "interval 0" (fun () -> island_config ~migration_interval:0 ());
  reject "negative count" (fun () -> island_config ~migration_count:(-1) ());
  reject "count > mu" (fun () ->
      island_config ~mu:3 ~migration_count:4 ())

let test_island_accounting () =
  (* k islands each draw lambda offspring per generation, all evaluated
     in one flat batch: evaluations = seeds + U * k * lambda, and the
     history still has one union entry per generation. *)
  let c = island_config ~islands:3 ~lambda:8 ~generations:5 () in
  let r = run ~seed:7 ~config:c () in
  Alcotest.(check int) "evaluations = seeds + U * k * lambda"
    (2 + (5 * 3 * 8))
    r.EA.evaluations;
  Alcotest.(check int) "history = seeds entry + U" 6
    (List.length r.EA.history)

let test_island_elitism () =
  (* Plus selection is elitist per island, and the union best is the
     min over islands, so the recorded best never worsens. *)
  let r = run ~seed:13 ~config:(island_config ()) () in
  let rec check = function
    | (a : EA.generation_stats) :: (b :: _ as rest) ->
      Alcotest.(check bool) "union best never worsens" true
        (b.EA.best <= a.EA.best +. 1e-12);
      check rest
    | [ _ ] | [] -> ()
  in
  check r.EA.history;
  Alcotest.(check bool) "still converges" true (r.EA.best_fitness < 4.)

let test_island_domains_invariant () =
  (* Offspring are drawn from per-island streams before any evaluation,
     so the trajectory cannot depend on how the flat batch is spread
     over worker domains. *)
  let seq = run ~seed:19 ~config:(island_config ~domains:1 ()) () in
  let par = run ~seed:19 ~config:(island_config ~domains:4 ()) () in
  Alcotest.(check (float 0.)) "identical best" seq.EA.best_fitness
    par.EA.best_fitness;
  Alcotest.(check (float 0.)) "identical genome" seq.EA.best par.EA.best;
  Alcotest.(check bool) "bit-identical history" true
    (seq.EA.history = par.EA.history)

let test_island_migration_changes_trajectory () =
  (* Migration must actually move individuals: with every other
     parameter fixed, isolated islands (count = 0) and a migrating ring
     explore differently.  (Equal outcomes would mean the exchange is a
     no-op.) *)
  let isolated =
    run ~seed:23 ~config:(island_config ~migration_count:0 ()) ()
  in
  let ring =
    run ~seed:23
      ~config:(island_config ~migration_interval:1 ~migration_count:2 ())
      ()
  in
  Alcotest.(check bool) "distinct history" true
    (isolated.EA.history <> ring.EA.history)

let test_island_checkpoint_rejected () =
  with_ckpt_file @@ fun path ->
  let ck = EA.checkpoint ~path ~every:1 float_codec in
  Alcotest.(check bool) "run with checkpoint rejected" true
    (try
       ignore
         (EA.run ~checkpoint:ck
            ~rng:(Emts_prng.create ~seed:3 ())
            ~config:(island_config ()) ~seeds:[ 100.; -50. ] (toy_problem ()));
       false
     with Invalid_argument _ -> true);
  (* resume with an island config is a typed error, not an exception *)
  ignore
    (EA.run ~checkpoint:ck
       ~rng:(Emts_prng.create ~seed:3 ())
       ~config:(config ~generations:2 ())
       ~seeds:[ 100.; -50. ] (toy_problem ()));
  match EA.resume ~from:ck ~config:(island_config ()) (toy_problem ()) with
  | Ok _ -> Alcotest.fail "island resume accepted"
  | Error _ -> ()

(* Property: island runs are a pure function of
   (seed, islands, interval, count) — repeating a run is bit-identical,
   and parallel evaluation cannot change it. *)
let prop_island_determinism =
  QCheck.Test.make ~name:"island runs deterministic and domain-invariant"
    ~count:25
    QCheck.(
      quad (int_range 2 4) (int_range 1 4) (int_range 0 2) small_int)
    (fun (islands, migration_interval, migration_count, seed) ->
      let go domains =
        EA.run
          ~rng:(Emts_prng.create ~seed ())
          ~config:
            (island_config ~domains ~islands ~migration_interval
               ~migration_count ~generations:6 ())
          ~seeds:[ 50.; -10.; 3. ] (toy_problem ())
      in
      let a = go 1 and b = go 1 and c = go 3 in
      a.EA.best = b.EA.best
      && a.EA.best_fitness = b.EA.best_fitness
      && a.EA.history = b.EA.history
      && a.EA.history = c.EA.history
      && a.EA.best = c.EA.best
      && a.EA.evaluations = 3 + (6 * islands * 8))

(* Property: for any toy configuration the invariants hold. *)
let prop_invariants =
  QCheck.Test.make ~name:"EA invariants across configurations" ~count:50
    QCheck.(
      quad (int_range 1 6) (int_range 1 20) (int_range 0 10) small_int)
    (fun (mu, lambda, generations, seed) ->
      let c = EA.config ~mu ~lambda ~generations () in
      let r =
        EA.run
          ~rng:(Emts_prng.create ~seed ())
          ~config:c ~seeds:[ 50.; -10.; 3. ] (toy_problem ())
      in
      r.EA.evaluations = 3 + (generations * lambda)
      && r.EA.best_fitness <= (3. -. 7.) ** 2.
      && List.length r.EA.history = generations + 1)

let () =
  Alcotest.run "ea"
    [
      ( "behaviour",
        [
          Alcotest.test_case "converges" `Quick test_converges;
          Alcotest.test_case "elitism" `Quick test_elitism_monotone_history;
          Alcotest.test_case "never worse than seeds" `Quick
            test_never_worse_than_seeds;
          Alcotest.test_case "accounting" `Quick test_generation_accounting;
          Alcotest.test_case "zero generations" `Quick test_zero_generations;
          Alcotest.test_case "seed padding" `Quick test_seed_padding;
          Alcotest.test_case "seed padding uses best seed" `Quick
            test_seed_padding_uses_best_seed;
          Alcotest.test_case "stats ordering" `Quick test_stats_fields;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same result" `Quick test_determinism;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_eval_equivalent;
        ] );
      ( "control",
        [
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "empty seeds" `Quick test_empty_seeds_rejected;
          Alcotest.test_case "time budget" `Quick test_time_budget_stops;
          Alcotest.test_case "callback" `Quick test_on_generation_callback;
          Alcotest.test_case "comma selection" `Quick test_comma_selection;
          Alcotest.test_case "comma oscillation" `Quick
            test_comma_population_can_worsen;
          Alcotest.test_case "selection bound" `Quick test_selection_bound;
          Alcotest.test_case "worker exception" `Quick
            test_worker_exception_propagates;
          Alcotest.test_case "default domains" `Quick test_default_domains;
        ] );
      ( "checkpointing",
        [
          Alcotest.test_case "resume is bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "resume under parallel eval" `Quick
            test_checkpoint_resume_parallel;
          Alcotest.test_case "mismatch and corruption rejected" `Quick
            test_resume_rejects_mismatched_config;
          Alcotest.test_case "stop flag" `Quick test_stop_flag_halts;
        ] );
      ( "islands",
        [
          Alcotest.test_case "config validation" `Quick
            test_island_config_validation;
          Alcotest.test_case "accounting" `Quick test_island_accounting;
          Alcotest.test_case "elitism" `Quick test_island_elitism;
          Alcotest.test_case "domain invariance" `Quick
            test_island_domains_invariant;
          Alcotest.test_case "migration moves individuals" `Quick
            test_island_migration_changes_trajectory;
          Alcotest.test_case "checkpointing rejected" `Quick
            test_island_checkpoint_rejected;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_invariants;
          QCheck_alcotest.to_alcotest prop_island_determinism;
        ] );
    ]
