(* Tests for the EMTS mutation operator (paper Sections III-C/III-D). *)

module M = Emts.Mutation

let test_default_params () =
  Alcotest.(check (float 0.)) "a" 0.2 M.default.M.a;
  Alcotest.(check (float 0.)) "sigma shrink" 5. M.default.M.sigma_shrink;
  Alcotest.(check (float 0.)) "sigma stretch" 5. M.default.M.sigma_stretch;
  Alcotest.(check (float 0.)) "fm" 0.33 M.default.M.fm

let test_validate () =
  Alcotest.(check bool) "default ok" true (M.validate M.default = Ok M.default);
  let bad p = Result.is_error (M.validate p) in
  Alcotest.(check bool) "a > 1" true (bad { M.default with M.a = 1.5 });
  Alcotest.(check bool) "negative sigma" true
    (bad { M.default with M.sigma_shrink = -1. });
  Alcotest.(check bool) "fm = 0" true (bad { M.default with M.fm = 0. });
  Alcotest.(check bool) "fm > 1" true (bad { M.default with M.fm = 1.1 })

let test_draw_never_zero () =
  let rng = Emts_prng.create ~seed:1 () in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "C <> 0" true (M.draw_adjustment rng M.default <> 0)
  done

let test_draw_sign_proportions () =
  let rng = Emts_prng.create ~seed:2 () in
  let negatives = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if M.draw_adjustment rng M.default < 0 then incr negatives
  done;
  let rate = float_of_int !negatives /. float_of_int n in
  (* the paper: allocations shrink with probability a = 0.2 *)
  Alcotest.(check bool) "shrink rate ~ 0.2" true (Float.abs (rate -. 0.2) < 0.01)

let test_draw_small_steps_more_likely () =
  let rng = Emts_prng.create ~seed:3 () in
  let small = ref 0 and large = ref 0 in
  for _ = 1 to 50_000 do
    let c = abs (M.draw_adjustment rng M.default) in
    if c <= 3 then incr small else if c >= 10 then incr large
  done;
  Alcotest.(check bool) "mass concentrates on small steps" true
    (!small > 3 * !large)

let test_deterministic_extremes () =
  let rng = Emts_prng.create ~seed:4 () in
  (* a = 1: always shrink; a = 0: always stretch *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "a=1 shrinks" true
      (M.draw_adjustment rng { M.default with M.a = 1. } < 0);
    Alcotest.(check bool) "a=0 stretches" true
      (M.draw_adjustment rng { M.default with M.a = 0. } > 0)
  done;
  (* sigma = 0: |N(0,0)| = 0, so steps are exactly +-1 *)
  let unit_params =
    { M.default with M.sigma_shrink = 0.; sigma_stretch = 0. }
  in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "unit steps" true
      (abs (M.draw_adjustment rng unit_params) = 1)
  done

let test_allele_count_formula () =
  (* V = 100, fm = 0.33, U = 5: generation 1 -> 33, annealing down. *)
  let count g =
    M.allele_count M.default ~generation:g ~total_generations:5
      ~genome_length:100
  in
  Alcotest.(check int) "first generation 33%" 33 (count 1);
  Alcotest.(check int) "second" 26 (count 2);
  Alcotest.(check int) "third" 20 (count 3);
  Alcotest.(check int) "fourth" 13 (count 4);
  Alcotest.(check int) "fifth" 7 (count 5);
  (* tiny genomes still mutate at least one allele *)
  Alcotest.(check int) "at least 1" 1
    (M.allele_count M.default ~generation:5 ~total_generations:5
       ~genome_length:2)

let test_allele_count_validation () =
  let reject label f =
    Alcotest.(check bool) label true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  reject "generation 0" (fun () ->
      M.allele_count M.default ~generation:0 ~total_generations:5
        ~genome_length:10);
  reject "generation > U" (fun () ->
      M.allele_count M.default ~generation:6 ~total_generations:5
        ~genome_length:10);
  reject "empty genome" (fun () ->
      M.allele_count M.default ~generation:1 ~total_generations:5
        ~genome_length:0)

let test_mutate_bounds_and_count () =
  let rng = Emts_prng.create ~seed:5 () in
  let genome = Array.make 50 10 in
  for generation = 1 to 5 do
    let child =
      M.mutate rng M.default ~procs:20 ~generation ~total_generations:5 genome
    in
    Alcotest.(check int) "same length" 50 (Array.length child);
    Array.iter
      (fun s -> Alcotest.(check bool) "in [1, procs]" true (1 <= s && s <= 20))
      child
  done;
  (* the parent is never modified *)
  Alcotest.(check (array int)) "parent intact" (Array.make 50 10) genome

let test_mutate_changes_at_most_m () =
  let rng = Emts_prng.create ~seed:6 () in
  for generation = 1 to 5 do
    let genome = Array.make 100 10 in
    let child =
      M.mutate rng M.default ~procs:200 ~generation ~total_generations:5
        genome
    in
    let m =
      M.allele_count M.default ~generation ~total_generations:5
        ~genome_length:100
    in
    let changed = ref 0 in
    Array.iteri (fun i s -> if s <> genome.(i) then incr changed) child;
    (* with procs = 200 no clamping hides a change, and C <> 0 means
       every selected allele really changes *)
    Alcotest.(check int)
      (Printf.sprintf "gen %d changes exactly m" generation)
      m !changed
  done

(* Known answers: children of one fixed genome under both parameter
   sets, as the (index, value) pairs where they differ from it.  They
   pin the draw order: all m positions first, then per position a
   Bernoulli(a) draw and one normal draw. *)
let kat_genome = Array.init 37 (fun i -> 1 + (i * 7 mod 20))

let shrink_only = { M.default with M.a = 1. }

(* (params, seed, procs, generation of 10, changed alleles) *)
let known_children =
  [
    (M.default, 1, 20, 1, [ (3, 7); (8, 20); (9, 14); (10, 12); (12, 11); (13, 19); (16, 11); (17, 16); (21, 15); (24, 20); (26, 8); (32, 14) ]);
    (M.default, 1, 20, 5, [ (3, 11); (12, 1); (13, 19); (21, 14); (26, 10); (32, 11) ]);
    (M.default, 1, 20, 10, [ (32, 12) ]);
    (M.default, 1, 120, 1, [ (3, 7); (8, 24); (9, 14); (10, 12); (12, 11); (13, 19); (16, 11); (17, 16); (21, 15); (24, 21); (26, 8); (32, 14) ]);
    (M.default, 1, 120, 5, [ (3, 11); (12, 1); (13, 19); (17, 25); (21, 14); (26, 10); (32, 11) ]);
    (M.default, 1, 120, 10, [ (32, 12) ]);
    (M.default, 2, 20, 1, [ (3, 5); (4, 16); (13, 5); (15, 14); (24, 11); (25, 20); (29, 3); (31, 20); (33, 15); (35, 13); (36, 20) ]);
    (M.default, 2, 20, 5, [ (13, 18); (15, 12); (24, 5); (25, 17); (29, 9); (36, 14) ]);
    (M.default, 2, 20, 10, []);
    (M.default, 2, 120, 1, [ (3, 5); (4, 16); (13, 5); (15, 14); (17, 24); (24, 11); (25, 21); (29, 3); (31, 20); (33, 15); (35, 13); (36, 25) ]);
    (M.default, 2, 120, 5, [ (13, 18); (15, 12); (17, 24); (24, 5); (25, 17); (29, 9); (36, 14) ]);
    (M.default, 2, 120, 10, [ (17, 24) ]);
    (M.default, 42, 20, 1, [ (2, 17); (4, 13); (7, 16); (8, 19); (15, 1); (19, 18); (21, 10); (24, 11); (28, 20); (30, 13); (31, 20); (32, 7) ]);
    (M.default, 42, 20, 5, [ (8, 20); (15, 10); (19, 16); (21, 12); (24, 11); (31, 20); (32, 9) ]);
    (M.default, 42, 20, 10, [ (31, 20) ]);
    (M.default, 42, 120, 1, [ (2, 17); (4, 13); (7, 16); (8, 19); (15, 1); (19, 18); (21, 10); (24, 11); (28, 21); (30, 13); (31, 23); (32, 7) ]);
    (M.default, 42, 120, 5, [ (8, 24); (15, 10); (19, 16); (21, 12); (24, 11); (31, 26); (32, 9) ]);
    (M.default, 42, 120, 10, [ (31, 20) ]);
    (shrink_only, 1, 20, 1, [ (3, 1); (8, 10); (9, 1); (10, 10); (12, 1); (13, 5); (16, 11); (17, 16); (21, 1); (24, 1); (26, 1); (32, 1) ]);
    (shrink_only, 1, 20, 5, [ (3, 1); (12, 1); (13, 5); (17, 15); (21, 2); (26, 1); (32, 1) ]);
    (shrink_only, 1, 20, 10, [ (32, 1) ]);
    (shrink_only, 1, 120, 1, [ (3, 1); (8, 10); (9, 1); (10, 10); (12, 1); (13, 5); (16, 11); (17, 16); (21, 1); (24, 1); (26, 1); (32, 1) ]);
    (shrink_only, 1, 120, 5, [ (3, 1); (12, 1); (13, 5); (17, 15); (21, 2); (26, 1); (32, 1) ]);
    (shrink_only, 1, 120, 10, [ (32, 1) ]);
    (shrink_only, 2, 20, 1, [ (3, 1); (4, 2); (13, 5); (15, 1); (17, 16); (24, 7); (25, 11); (29, 3); (31, 16); (33, 9); (35, 1); (36, 1) ]);
    (shrink_only, 2, 20, 5, [ (13, 6); (15, 1); (17, 16); (24, 5); (25, 15); (29, 1); (36, 12) ]);
    (shrink_only, 2, 20, 10, [ (17, 16) ]);
    (shrink_only, 2, 120, 1, [ (3, 1); (4, 2); (13, 5); (15, 1); (17, 16); (24, 7); (25, 11); (29, 3); (31, 16); (33, 9); (35, 1); (36, 1) ]);
    (shrink_only, 2, 120, 5, [ (13, 6); (15, 1); (17, 16); (24, 5); (25, 15); (29, 1); (36, 12) ]);
    (shrink_only, 2, 120, 10, [ (17, 16) ]);
    (shrink_only, 42, 20, 1, [ (2, 13); (4, 5); (7, 4); (8, 15); (15, 1); (19, 10); (21, 6); (24, 7); (28, 13); (30, 9); (31, 13); (32, 3) ]);
    (shrink_only, 42, 20, 5, [ (8, 10); (15, 2); (19, 12); (21, 4); (24, 7); (31, 10); (32, 1) ]);
    (shrink_only, 42, 20, 10, [ (31, 16) ]);
    (shrink_only, 42, 120, 1, [ (2, 13); (4, 5); (7, 4); (8, 15); (15, 1); (19, 10); (21, 6); (24, 7); (28, 13); (30, 9); (31, 13); (32, 3) ]);
    (shrink_only, 42, 120, 5, [ (8, 10); (15, 2); (19, 12); (21, 4); (24, 7); (31, 10); (32, 1) ]);
    (shrink_only, 42, 120, 10, [ (31, 16) ]);
  ]
[@@ocamlformat "disable"]

let test_known_answers () =
  List.iter
    (fun (params, seed, procs, generation, changed) ->
      let expected = Array.copy kat_genome in
      List.iter (fun (i, v) -> expected.(i) <- v) changed;
      Alcotest.(check (array int))
        (Printf.sprintf "a = %g, seed %d, procs %d, generation %d" params.M.a
           seed procs generation)
        expected
        (M.mutate (Emts_prng.create ~seed ()) params ~procs ~generation
           ~total_generations:10 kat_genome))
    known_children;
  let rng = Emts_prng.create ~seed:7 () in
  List.iteri
    (fun i e ->
      Alcotest.(check int) (Printf.sprintf "draw_adjustment %d" i) e
        (M.draw_adjustment rng M.default))
    [ 3; 2; 1; 9; 1; -6; 5; -3; -1; -4; 2; 2; 6; -3; 8; 3 ]

(* One call allocates the child (n + 1 words), the sampler's scratch
   (n + 1) and its m-element sample (m + 1), plus per allele the three
   floats boxed where they cross into Emts_prng: bernoulli's p, normal's
   sigma and normal's result (6 words). *)
let test_mutate_allocation () =
  List.iter
    (fun n ->
      let rng = Emts_prng.create ~seed:8 () in
      let genome = Array.init n (fun i -> 1 + (i mod 20)) in
      let m =
        M.allele_count M.default ~generation:1 ~total_generations:10
          ~genome_length:n
      in
      let sink = [| [||] |] in
      let words =
        Testutil.bytes_per_call ~rounds:100 (fun _ ->
            sink.(0) <-
              M.mutate rng M.default ~procs:120 ~generation:1
                ~total_generations:10 genome)
        /. float_of_int (Sys.word_size / 8)
      in
      let budget = (2 * n) + (8 * m) + 32 in
      if words > float_of_int budget then
        Alcotest.failf "n = %d, m = %d: %.1f words per call (budget %d)" n m
          words budget)
    [ 20; 100; 1000 ]

(* --- recombination --- *)

module R = Emts.Recombination

let test_recombination_alleles_from_parents () =
  let rng = Emts_prng.create ~seed:10 () in
  let a = Array.make 30 1 and b = Array.make 30 9 in
  let levels = Array.init 30 (fun i -> i / 10) in
  List.iter
    (fun kind ->
      let child = R.apply kind ~levels rng a b in
      Alcotest.(check int) "length" 30 (Array.length child);
      Array.iter
        (fun v ->
          Alcotest.(check bool)
            (R.kind_to_string kind ^ " allele from a parent")
            true (v = 1 || v = 9))
        child)
    [ R.Uniform; R.One_point; R.Level_aware ]

let test_one_point_is_contiguous () =
  let rng = Emts_prng.create ~seed:11 () in
  let a = Array.make 20 1 and b = Array.make 20 9 in
  for _ = 1 to 50 do
    let child = R.apply R.One_point ~levels:(Array.make 20 0) rng a b in
    (* exactly one switch point from a-alleles to b-alleles *)
    let switches = ref 0 in
    for i = 1 to 19 do
      if child.(i) <> child.(i - 1) then incr switches
    done;
    Alcotest.(check bool) "at most one switch" true (!switches <= 1);
    Alcotest.(check int) "prefix from a" 1 child.(0)
  done

let test_level_aware_keeps_levels_together () =
  let rng = Emts_prng.create ~seed:12 () in
  let a = Array.make 30 1 and b = Array.make 30 9 in
  let levels = Array.init 30 (fun i -> i mod 5) in
  for _ = 1 to 50 do
    let child = R.apply R.Level_aware ~levels rng a b in
    (* all tasks of one level come from the same parent *)
    let source = Array.make 5 0 in
    Array.iteri (fun i v -> source.(levels.(i)) <- v) child;
    Array.iteri
      (fun i v ->
        Alcotest.(check int) "level travels together" source.(levels.(i)) v)
      child
  done

let test_recombination_validation () =
  let rng = Emts_prng.create ~seed:13 () in
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (R.apply R.Uniform ~levels:[| 0 |] rng [| 1 |] [| 1; 2 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty parents" true
    (try
       ignore (R.apply R.Uniform ~levels:[||] rng [||] [||]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "levels mismatch (level-aware)" true
    (try
       ignore (R.apply R.Level_aware ~levels:[| 0 |] rng [| 1; 2 |] [| 3; 4 |]);
       false
     with Invalid_argument _ -> true)

let prop_mutate_valid =
  QCheck.Test.make ~name:"mutants always valid allocations" ~count:300
    QCheck.(
      quad small_int (int_range 1 64) (int_range 1 100) (int_range 1 10))
    (fun (seed, procs, len, total_generations) ->
      let rng = Emts_prng.create ~seed () in
      let genome =
        Array.init len (fun i -> 1 + (i mod procs))
      in
      let generation = 1 + (seed mod total_generations) in
      let child =
        M.mutate rng M.default ~procs ~generation ~total_generations genome
      in
      Array.for_all (fun s -> 1 <= s && s <= procs) child)

let () =
  Alcotest.run "mutation"
    [
      ( "operator",
        [
          Alcotest.test_case "defaults" `Quick test_default_params;
          Alcotest.test_case "validate" `Quick test_validate;
          Alcotest.test_case "never zero" `Quick test_draw_never_zero;
          Alcotest.test_case "sign proportions" `Slow
            test_draw_sign_proportions;
          Alcotest.test_case "small steps likely" `Slow
            test_draw_small_steps_more_likely;
          Alcotest.test_case "extreme params" `Quick test_deterministic_extremes;
        ] );
      ( "annealing",
        [
          Alcotest.test_case "allele count formula" `Quick
            test_allele_count_formula;
          Alcotest.test_case "allele count validation" `Quick
            test_allele_count_validation;
        ] );
      ( "mutate",
        [
          Alcotest.test_case "bounds" `Quick test_mutate_bounds_and_count;
          Alcotest.test_case "changes exactly m" `Quick
            test_mutate_changes_at_most_m;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "allocation per call" `Quick
            test_mutate_allocation;
        ] );
      ( "recombination",
        [
          Alcotest.test_case "alleles from parents" `Quick
            test_recombination_alleles_from_parents;
          Alcotest.test_case "one-point contiguous" `Quick
            test_one_point_is_contiguous;
          Alcotest.test_case "level-aware grouping" `Quick
            test_level_aware_keeps_levels_together;
          Alcotest.test_case "validation" `Quick test_recombination_validation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_mutate_valid ]);
    ]
