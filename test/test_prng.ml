(* Tests for Emts_prng: determinism, ranges, and distribution sanity. *)

module P = Emts_prng

let check_float = Alcotest.(check (float 1e-9))

let test_determinism () =
  let a = P.create ~seed:123 () and b = P.create ~seed:123 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (P.bits64 a) (P.bits64 b)
  done

let test_seed_changes_stream () =
  let a = P.create ~seed:1 () and b = P.create ~seed:2 () in
  let same = ref 0 in
  for _ = 1 to 64 do
    if P.bits64 a = P.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds differ" true (!same < 4)

let test_copy_independent () =
  let a = P.create ~seed:7 () in
  ignore (P.bits64 a);
  let b = P.copy a in
  let expected = P.bits64 b in
  Alcotest.(check int64) "copy replays the future" expected (P.bits64 a);
  (* advancing the copy does not affect the original *)
  ignore (P.bits64 b);
  let c = P.copy a in
  Alcotest.(check int64) "original unaffected" (P.bits64 c) (P.bits64 a)

let test_split_decorrelates () =
  let a = P.create ~seed:9 () in
  let s1 = P.split a and s2 = P.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if P.bits64 s1 = P.bits64 s2 then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same = 0)

let test_state_round_trip () =
  let a = P.create ~seed:42 () in
  (* Restore mid-stream: drain some draws, snapshot, then compare the
     next 1000 draws of the original and the restored generator. *)
  for _ = 1 to 257 do
    ignore (P.bits64 a)
  done;
  let snap = P.state a in
  let b = P.of_state snap in
  for i = 1 to 1000 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d identical" i)
      (P.bits64 a) (P.bits64 b)
  done;
  (* Snapshotting must not advance or mutate the generator. *)
  let c = P.of_state snap in
  for _ = 1 to 1001 do
    ignore (P.bits64 c)
  done;
  Alcotest.(check bool)
    "snapshot array is a copy" true
    (P.state (P.of_state snap) = snap)

let test_state_validation () =
  (match P.of_state [| 1L; 2L |] with
  | _ -> Alcotest.fail "short state accepted"
  | exception Invalid_argument _ -> ());
  match P.of_state [| 0L; 0L; 0L; 0L |] with
  | _ -> Alcotest.fail "all-zero state accepted"
  | exception Invalid_argument _ -> ()

let prop_state_round_trip =
  QCheck.Test.make ~name:"state/of_state round-trips mid-stream" ~count:100
    QCheck.(pair small_int (int_range 0 500))
    (fun (seed, drain) ->
      let a = P.create ~seed () in
      for _ = 1 to drain do
        ignore (P.bits64 a)
      done;
      let b = P.of_state (P.state a) in
      let ok = ref true in
      for _ = 1 to 1000 do
        if P.bits64 a <> P.bits64 b then ok := false
      done;
      !ok)

let test_seed_of_label () =
  Alcotest.(check bool)
    "stable" true
    (P.seed_of_label "fig4/fft/0" = P.seed_of_label "fig4/fft/0");
  Alcotest.(check bool)
    "distinct labels, distinct seeds" true
    (P.seed_of_label "a" <> P.seed_of_label "b");
  Alcotest.(check bool) "non-negative" true (P.seed_of_label "anything" >= 0)

(* Known answers, recorded from the generator as it stands:
   xoshiro256** seeded through splitmix64.  The other cases check
   properties any generator meets; these pin the exact stream and the
   draws derived from it, so a rewrite of the generator's state has a
   spec to meet. *)
let test_known_answers () =
  let check_bits label r expected =
    List.iteri
      (fun i e ->
        Alcotest.(check int64) (Printf.sprintf "%s, draw %d" label i) e
          (P.bits64 r))
      expected
  in
  check_bits "create ()" (P.create ())
    [
      0x21291E4DF0ABA8A4L; 0x7B1E610058BF5900L; 0xD89B6443D43780D0L;
      0x8047A360FFE57D97L; 0x9B2474E13B640EE7L; 0xA6FC961349037639L;
      0x6553DF72F16EFD22L; 0x13CA4750652E1D13L;
    ];
  check_bits "seed 42" (P.create ~seed:42 ())
    [
      0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L;
      0xECB8AD4703B360A1L; 0xFDE6DC7FE2EC5E64L; 0xC50DA53101795238L;
      0xB82154855A65DDB2L; 0xD99A2743EBE60087L;
    ];
  check_bits "first split of seed 42"
    (P.split (P.create ~seed:42 ()))
    [
      0x8EE445D14631C453L; 0x106FA1A13296FE62L; 0x729A768806244CE5L;
      0x91D83A17B20E6585L;
    ];
  let r = P.create ~seed:7 () in
  List.iteri
    (fun i e ->
      Alcotest.(check int) (Printf.sprintf "int, draw %d" i) e (P.int r 1000))
    [ 998; 668; 909; 416; 166; 930 ];
  let check_floats label draw expected =
    List.iteri
      (fun i e ->
        Alcotest.(check int64)
          (Printf.sprintf "%s, draw %d" label i)
          (Int64.bits_of_float e)
          (Int64.bits_of_float (draw ())))
      expected
  in
  check_floats "float"
    (fun () -> P.float r 1.)
    [ 0x1.f1ae5852bd8bp-5; 0x1.abc4dcb546f6p-4; 0x1.9d653e5b2b22p-2;
      0x1.36eb5d000c7p-3 ];
  check_floats "normal"
    (fun () -> P.normal r ~mu:0. ~sigma:1.)
    [ 0x1.381c0324118c3p-2; -0x1.b375fc61f0764p+0; -0x1.ab9043786fd34p+0;
      -0x1.088cef0d25c93p+0 ];
  Alcotest.(check (array int)) "sample_without_replacement" [| 3; 2; 12; 0; 1 |]
    (P.sample_without_replacement r ~k:5 ~n:20);
  let check_draws label testable draw expected =
    List.iteri
      (fun i e ->
        Alcotest.check testable
          (Printf.sprintf "%s, draw %d" label i)
          e (draw ()))
      expected
  in
  let r = P.create ~seed:11 () in
  check_draws "int_in -50 50" Alcotest.int
    (fun () -> P.int_in r (-50) 50)
    [ -25; 20; 10; -41; 40; 9 ];
  check_draws "int_in 1000 1000000" Alcotest.int
    (fun () -> P.int_in r 1_000 1_000_000)
    [ 962685; 327927; 657746; 47184 ];
  let r = P.create ~seed:12 () in
  check_floats "float_in"
    (fun () -> P.float_in r (-3.) 7.5)
    [ 0x1.e83117f70d4bp-3; 0x1.60f749bdd92fcp+2; 0x1.994b0f11e09fp+2;
      0x1.b4949e52c7092p+2 ];
  let r = P.create ~seed:13 () in
  check_draws "bool" Alcotest.bool
    (fun () -> P.bool r)
    [ false; true; false; false; false; true; true; true; true; false; true;
      false; true; false; false; false ];
  let r = P.create ~seed:14 () in
  check_floats "log_uniform"
    (fun () -> P.log_uniform r ~lo:64. ~hi:512.)
    [ 0x1.1f1a45ce2d943p+8; 0x1.d67ba87d3518dp+7; 0x1.b6c7886826028p+8;
      0x1.c692328f16f27p+8 ];
  check_floats "exponential"
    (fun () -> P.exponential r ~lambda:2.)
    [ 0x1.683c8764a50a4p-3; 0x1.7bf7d89a7e559p-1; 0x1.d869e29a6aa38p-4;
      0x1.68e56e7299da5p-1 ];
  let a = Array.init 10 Fun.id in
  P.shuffle r a;
  Alcotest.(check (array int)) "shuffle" [| 4; 0; 8; 3; 9; 5; 6; 7; 1; 2 |] a;
  check_draws "choose" Alcotest.int
    (fun () -> P.choose r [| 0; 1; 2; 3; 4 |])
    [ 3; 0; 3; 2; 2; 1; 3; 3 ];
  (* Every bernoulli call takes one draw, whatever p: the draw after
     them pins the stream position. *)
  let r = P.create ~seed:15 () in
  let bernoulli p () = P.bernoulli r ~p in
  check_draws "bernoulli 0.2" Alcotest.bool (bernoulli 0.2)
    [ false; false; false; true; false; false; false; false; false; false;
      false; false; false; false; false; false ];
  check_draws "bernoulli -0.5" Alcotest.bool (bernoulli (-0.5))
    [ false; false; false; false ];
  check_draws "bernoulli 1.5" Alcotest.bool (bernoulli 1.5)
    [ true; true; true; true ];
  check_draws "bernoulli nan" Alcotest.bool (bernoulli nan)
    [ false; false; false; false ];
  check_bits "after bernoulli" r [ 0x998FD37320854A46L ];
  let r = P.create ~seed:16 () in
  for _ = 1 to 5 do
    ignore (P.bits64 r)
  done;
  let c = P.copy r in
  let after_five =
    [ 0xB36D64A3C9AEB31DL; 0xFBEDB0784EE938F9L; 0x6869A9B97F5E72C2L ]
  in
  check_bits "original after copy" r after_five;
  check_bits "copy taken mid-stream" c after_five;
  (* Checkpoints store the four [state] words, so they are a file
     format: pin them, and the stream [of_state] resumes from them. *)
  let r = P.create ~seed:17 () in
  for _ = 1 to 1000 do
    ignore (P.bits64 r)
  done;
  let words =
    [| 0x716E71EFF14E05ACL; 0xFAFB59A6B6EA2A66L; 0xEBFCF7C0D944C073L;
       0xB6570BA618568711L |]
  in
  Alcotest.(check (array int64)) "state after 1000 draws" words (P.state r);
  let resumed =
    [ 0x1761271394B9FB0BL; 0x4E259876C511C679L; 0x34135D2F2D7D9DBBL;
      0xBF45F071F09D900AL ]
  in
  check_bits "stream after 1000 draws" r resumed;
  check_bits "of_state resumes" (P.of_state words) resumed

let test_int_bounds () =
  let rng = P.create ~seed:3 () in
  for _ = 1 to 10_000 do
    let v = P.int rng 7 in
    Alcotest.(check bool) "0 <= v < 7" true (0 <= v && v < 7)
  done;
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Emts_prng.int: bound must be positive") (fun () ->
      ignore (P.int rng 0))

let test_int_uniform () =
  let rng = P.create ~seed:4 () in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = P.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d within 5%%" i)
        true
        (abs (c - expected) < expected / 20))
    counts

let test_int_in () =
  let rng = P.create ~seed:5 () in
  for _ = 1 to 1000 do
    let v = P.int_in rng (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (-3 <= v && v <= 3)
  done;
  Alcotest.(check int) "degenerate range" 5 (P.int_in rng 5 5);
  Alcotest.check_raises "lo > hi rejected"
    (Invalid_argument "Emts_prng.int_in: lo > hi") (fun () ->
      ignore (P.int_in rng 2 1))

let test_int_in_wide () =
  let rng = P.create ~seed:19 () in
  let overflow =
    Invalid_argument "Emts_prng.int_in: hi - lo must be below max_int"
  in
  Alcotest.check_raises "0 .. max_int" overflow (fun () ->
      ignore (P.int_in rng 0 max_int));
  Alcotest.check_raises "min_int .. -1" overflow (fun () ->
      ignore (P.int_in rng min_int (-1)));
  Alcotest.check_raises "min_int .. max_int" overflow (fun () ->
      ignore (P.int_in rng min_int max_int));
  (* the widest ranges allowed: max_int values *)
  for _ = 1 to 1000 do
    Alcotest.(check bool) "in [1, max_int]" true (P.int_in rng 1 max_int >= 1);
    Alcotest.(check bool) "in [min_int + 1, -1]" true
      (P.int_in rng (min_int + 1) (-1) < 0)
  done

let test_float_bounds () =
  let rng = P.create ~seed:6 () in
  for _ = 1 to 10_000 do
    let v = P.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (0. <= v && v < 2.5)
  done

(* [lo + u·(hi − lo)] rounds up to [hi] for about half the draws when
   [hi] is one ulp above [lo]; [float_in] must still stay below [hi]. *)
let test_float_in_narrow () =
  let rng = P.create ~seed:20 () in
  for _ = 1 to 1000 do
    Alcotest.(check (float 0.)) "[1, succ 1) holds only 1" 1.
      (P.float_in rng 1. (Float.succ 1.))
  done;
  for _ = 1 to 500 do
    let sign = if P.bool rng then 1. else -1. in
    let lo =
      sign *. Float.ldexp (1. +. P.float rng 1.) (P.int_in rng (-1000) 1000)
    in
    let hi = ref lo in
    for _ = 1 to P.int_in rng 1 4 do
      hi := Float.succ !hi
    done;
    for _ = 1 to 20 do
      let v = P.float_in rng lo !hi in
      if not (lo <= v && v < !hi) then
        Alcotest.failf "float_in %h %h returned %h" lo !hi v
    done
  done

let test_float_in_overflow () =
  let rng = P.create ~seed:21 () in
  let infinite =
    Invalid_argument "Emts_prng.float_in: hi - lo must be finite"
  in
  Alcotest.check_raises "-max_float .. max_float" infinite (fun () ->
      ignore (P.float_in rng (-.max_float) max_float));
  Alcotest.check_raises "0 .. infinity" infinite (fun () ->
      ignore (P.float_in rng 0. infinity));
  Alcotest.check_raises "lo = hi"
    (Invalid_argument "Emts_prng.float_in: requires lo < hi") (fun () ->
      ignore (P.float_in rng 1. 1.));
  (* the widest finite span *)
  for _ = 1 to 1000 do
    let v = P.float_in rng (-.max_float /. 2.) (max_float /. 2.) in
    Alcotest.(check bool) "in range" true
      (-.max_float /. 2. <= v && v < max_float /. 2.)
  done

let test_float_mean () =
  let rng = P.create ~seed:7 () in
  let acc = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    acc := !acc +. P.float rng 1.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_bernoulli () =
  let rng = P.create ~seed:8 () in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if P.bernoulli rng ~p:0.2 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p=0.2 within 1%" true (Float.abs (rate -. 0.2) < 0.01);
  Alcotest.(check bool) "p=0 never" false (P.bernoulli rng ~p:0.);
  Alcotest.(check bool) "p=1 always" true (P.bernoulli rng ~p:1.);
  Alcotest.(check bool) "p>1 clamps" true (P.bernoulli rng ~p:2.)

let test_normal_moments () =
  let rng = P.create ~seed:9 () in
  let acc = Emts_stats.Acc.create () in
  for _ = 1 to 200_000 do
    Emts_stats.Acc.add acc (P.normal rng ~mu:3. ~sigma:2.)
  done;
  Alcotest.(check bool)
    "mean near 3" true
    (Float.abs (Emts_stats.Acc.mean acc -. 3.) < 0.05);
  Alcotest.(check bool)
    "stddev near 2" true
    (Float.abs (Emts_stats.Acc.stddev acc -. 2.) < 0.05);
  check_float "sigma=0 returns mu" 5. (P.normal rng ~mu:5. ~sigma:0.)

let test_log_uniform () =
  let rng = P.create ~seed:10 () in
  for _ = 1 to 10_000 do
    let v = P.log_uniform rng ~lo:64. ~hi:512. in
    Alcotest.(check bool) "in [64, 512]" true (64. <= v && v <= 512.)
  done

let test_exponential () =
  let rng = P.create ~seed:11 () in
  let acc = Emts_stats.Acc.create () in
  for _ = 1 to 100_000 do
    let v = P.exponential rng ~lambda:2. in
    Alcotest.(check bool) "non-negative" true (v >= 0.);
    Emts_stats.Acc.add acc v
  done;
  Alcotest.(check bool)
    "mean near 1/lambda" true
    (Float.abs (Emts_stats.Acc.mean acc -. 0.5) < 0.01)

let test_shuffle_is_permutation () =
  let rng = P.create ~seed:12 () in
  let a = Array.init 50 Fun.id in
  P.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = P.create ~seed:13 () in
  for _ = 1 to 200 do
    let sample = P.sample_without_replacement rng ~k:10 ~n:30 in
    Alcotest.(check int) "k elements" 10 (Array.length sample);
    let sorted = Array.copy sample in
    Array.sort compare sorted;
    for i = 1 to 9 do
      Alcotest.(check bool) "distinct" true (sorted.(i - 1) < sorted.(i))
    done;
    Array.iter
      (fun v -> Alcotest.(check bool) "in range" true (0 <= v && v < 30))
      sample
  done;
  Alcotest.(check (array int)) "k=0 empty" [||]
    (P.sample_without_replacement rng ~k:0 ~n:5);
  let all = P.sample_without_replacement rng ~k:5 ~n:5 in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "k=n is a permutation" [| 0; 1; 2; 3; 4 |] sorted

let test_choose () =
  let rng = P.create ~seed:14 () in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (P.choose rng a) a)
  done;
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Emts_prng.choose: empty array") (fun () ->
      ignore (P.choose rng [||]))

(* Words per draw, counted in a fresh domain: a draw that returns an
   int or a bool allocates nothing, a float draw at most its boxed
   result (2 words) and [bits64] at most its boxed int64 (3 words). *)
let test_allocation () =
  let r = P.create ~seed:22 () in
  let isink = [| 0 |] and fsink = [| 0. |] in
  let budget name words f =
    let per_draw =
      Testutil.bytes_per_call ~rounds:10_000 f
      /. float_of_int (Sys.word_size / 8)
    in
    if per_draw > words then
      Alcotest.failf "%s: %.2f words/draw (budget %.0f)" name per_draw words
  in
  budget "int" 0. (fun _ -> isink.(0) <- isink.(0) + P.int r 1000);
  budget "int_in" 0. (fun _ -> isink.(0) <- isink.(0) + P.int_in r (-5) 5);
  budget "bool" 0. (fun _ -> if P.bool r then isink.(0) <- isink.(0) + 1);
  budget "bernoulli" 0. (fun _ ->
      if P.bernoulli r ~p:0.2 then isink.(0) <- isink.(0) + 1);
  budget "float" 2. (fun _ -> fsink.(0) <- P.float r 1.);
  budget "float_in" 2. (fun _ -> fsink.(0) <- P.float_in r (-1.) 1.);
  budget "normal" 2. (fun _ -> fsink.(0) <- P.normal r ~mu:0. ~sigma:5.);
  budget "log_uniform" 2. (fun _ ->
      fsink.(0) <- P.log_uniform r ~lo:64. ~hi:512.);
  budget "exponential" 2. (fun _ -> fsink.(0) <- P.exponential r ~lambda:2.);
  budget "bits64" 3. (fun _ ->
      isink.(0) <- isink.(0) lxor Int64.to_int (P.bits64 r))

(* qcheck properties *)

let prop_int_in_range =
  QCheck.Test.make ~name:"int always below bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = P.create ~seed () in
      let v = P.int rng bound in
      0 <= v && v < bound)

let prop_float_in =
  QCheck.Test.make ~name:"float_in stays in [lo, hi)" ~count:500
    QCheck.(triple small_int (float_range (-100.) 100.) (float_range 0.001 50.))
    (fun (seed, lo, span) ->
      let rng = P.create ~seed () in
      let hi = lo +. span in
      let v = P.float_in rng lo hi in
      lo <= v && v < hi)

let prop_sample_distinct =
  QCheck.Test.make ~name:"sample_without_replacement distinct" ~count:300
    QCheck.(pair small_int (pair (int_range 0 20) (int_range 20 60)))
    (fun (seed, (k, n)) ->
      let rng = P.create ~seed () in
      let sample = P.sample_without_replacement rng ~k ~n in
      let module IS = Set.Make (Int) in
      IS.cardinal (IS.of_list (Array.to_list sample)) = k)

let () =
  Alcotest.run "prng"
    [
      ( "stream",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed changes stream" `Quick
            test_seed_changes_stream;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "split" `Quick test_split_decorrelates;
          Alcotest.test_case "state round-trip" `Quick test_state_round_trip;
          Alcotest.test_case "state validation" `Quick test_state_validation;
          Alcotest.test_case "seed_of_label" `Quick test_seed_of_label;
          Alcotest.test_case "known answers" `Quick test_known_answers;
        ] );
      ( "draws",
        [
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_int_uniform;
          Alcotest.test_case "int_in" `Quick test_int_in;
          Alcotest.test_case "int_in wide ranges" `Quick test_int_in_wide;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "float_in narrow spans" `Quick
            test_float_in_narrow;
          Alcotest.test_case "float_in overflow" `Quick test_float_in_overflow;
          Alcotest.test_case "float mean" `Slow test_float_mean;
          Alcotest.test_case "allocation per draw" `Quick test_allocation;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "bernoulli" `Slow test_bernoulli;
          Alcotest.test_case "normal moments" `Slow test_normal_moments;
          Alcotest.test_case "log_uniform" `Quick test_log_uniform;
          Alcotest.test_case "exponential" `Slow test_exponential;
          Alcotest.test_case "shuffle" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "choose" `Quick test_choose;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_int_in_range;
            prop_float_in;
            prop_sample_distinct;
            prop_state_round_trip;
          ] );
    ]
