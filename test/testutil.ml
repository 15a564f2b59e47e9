(* Shared helpers for the test suite: hand-built graphs with known
   analytic answers and QCheck generators for random PTG inputs. *)

module Graph = Emts_ptg.Graph

(* Diamond with asymmetric costs:

        0 (10 FLOP)
       / \
      1   2      (20 / 30 FLOP)
       \ /
        3 (40 FLOP)

   With unit-speed sequential times t(v) = cost, bottom levels are
   bl3 = 40, bl1 = 60, bl2 = 70, bl0 = 80; critical path 0-2-3. *)
let diamond_graph () =
  let b = Graph.Builder.create () in
  let t0 = Graph.Builder.add_task ~flop:10. b in
  let t1 = Graph.Builder.add_task ~flop:20. b in
  let t2 = Graph.Builder.add_task ~flop:30. b in
  let t3 = Graph.Builder.add_task ~flop:40. b in
  List.iter
    (fun (src, dst) -> Graph.Builder.add_edge b ~src ~dst)
    [ (t0, t1); (t0, t2); (t1, t3); (t2, t3) ];
  Graph.Builder.build b

(* Two independent chains of two tasks: 0->1, 2->3 (no shared nodes). *)
let two_chains_graph () =
  let b = Graph.Builder.create () in
  let ids = Array.init 4 (fun _ -> Graph.Builder.add_task ~flop:1. b) in
  Graph.Builder.add_edge b ~src:ids.(0) ~dst:ids.(1);
  Graph.Builder.add_edge b ~src:ids.(2) ~dst:ids.(3);
  Graph.Builder.build b

(* The paper's Figure 2 shape: five nodes, two levels of parallelism. *)
let figure2_graph () =
  let b = Graph.Builder.create () in
  let n1 = Graph.Builder.add_task ~flop:1. b in
  let n2 = Graph.Builder.add_task ~flop:1. b in
  let n3 = Graph.Builder.add_task ~flop:1. b in
  let n4 = Graph.Builder.add_task ~flop:1. b in
  let n5 = Graph.Builder.add_task ~flop:1. b in
  List.iter
    (fun (src, dst) -> Graph.Builder.add_edge b ~src ~dst)
    [ (n1, n2); (n1, n3); (n2, n4); (n3, n4); (n3, n5) ];
  Graph.Builder.build b

let const_time t _ = t
let unit_speed_times g = fun v -> (Graph.task g v).Emts_ptg.Task.flop

(* Random graph constructors live in Emts_check.Gen so the fuzzing
   harness and the alcotest suites draw from one implementation; the
   aliases keep existing call sites stable. *)
let random_triangular_dag = Emts_check.Gen.random_triangular_dag
let costed_daggen = Emts_check.Gen.costed_daggen

(* QCheck generator of (graph, seed): graphs of 1..max_n tasks. *)
let gen_dag ?(max_n = 25) () =
  QCheck.Gen.(
    pair (int_range 1 max_n) (pair int (float_range 0.05 0.5))
    >|= fun (n, (seed, p)) ->
    let rng = Emts_prng.create ~seed () in
    random_triangular_dag rng ~n ~p)

let arbitrary_dag ?max_n () =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graph.pp_stats g)
    (gen_dag ?max_n ())

(* Graph plus a valid random allocation for a platform of [procs]. *)
let arbitrary_dag_alloc ~procs ?max_n () =
  QCheck.make
    ~print:(fun (g, alloc) ->
      Format.asprintf "%a / %a" Graph.pp_stats g Emts_sched.Allocation.pp
        alloc)
    QCheck.Gen.(
      pair (gen_dag ?max_n ()) int >|= fun (g, seed) ->
      let rng = Emts_prng.create ~seed () in
      (g, Emts_check.Gen.random_valid_alloc rng g ~procs))

(* A full random fuzzing scenario (graph, platform size, model, seed),
   wrapped as a QCheck arbitrary so property suites can range over the
   same adversarial input distribution as [emts-fuzz]. *)
let gen_scenario =
  QCheck.Gen.(
    int >|= fun seed ->
    Emts_check.Gen.scenario (Emts_prng.create ~seed ()))

let arbitrary_scenario =
  QCheck.make ~print:Emts_check.Scenario.describe gen_scenario

(* Substring check for error-message assertions. *)
let contains_substring hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Times for every task under an allocation, via a model and platform. *)
let times_for ~model ~platform g alloc =
  Emts_sched.Allocation.times alloc ~model ~platform ~graph:g

(* Worker domains for EA/EMTS tests: 1 by default, overridden by the CI
   multi-domain job (EMTS_TEST_DOMAINS=4) so the parallel evaluation
   paths are exercised by the whole suite on every PR. *)
let test_domains =
  match Sys.getenv_opt "EMTS_TEST_DOMAINS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> d
    | Some _ | None -> 1)

(* Bytes allocated per call of [f] over [rounds] calls, counted in
   words in a freshly spawned domain that runs only the loop: minor
   words, plus major words net of promotions (a promoted word was
   counted when the minor heap took it), so minor collections inside
   the loop do not disturb the count.  The window opens on the last
   counter read and closes on the first, so the records [Gc.counters]
   returns fall outside it and the count is exact.
   [Gc.allocated_bytes] is unfit for this on OCaml 5.1: it weighs words
   still in the minor heap as one byte each and as eight once a minor
   collection has run. *)
let bytes_per_call ~rounds f =
  Domain.join
    (Domain.spawn (fun () ->
         let _, promoted0, major0 = Gc.counters () in
         let minor0 = Gc.minor_words () in
         for i = 0 to rounds - 1 do
           f i
         done;
         let minor1 = Gc.minor_words () in
         let _, promoted1, major1 = Gc.counters () in
         (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
         *. float_of_int (Sys.word_size / 8)
         /. float_of_int rounds))
