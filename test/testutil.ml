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

(* Reference spec of the list scheduler: the mapping loop as it stood
   while processor selection still sorted, independent of the shipped
   kernel.  A task takes the first [s] ids of the (avail, id) order,
   which are copied, sorted with [Int.compare] and merged back into the
   rest at their new availability.  The ready set is a list scanned for
   the highest priority (ties: smaller id), where the kernel uses a
   heap; both pop the same task.  Priorities come from [Analysis], not
   from the scheduler.  [release] and [avail] give the online variant;
   all zero, the offline one.  Returns the entries by task. *)
let reference_entries ~priority ~graph ~times ~alloc ~procs ~release
    ~avail:avail0 =
  let n = Graph.task_count graph in
  let time v = times.(v) in
  let prio =
    match priority with
    | Emts_sched.List_scheduler.Bottom_level ->
      Emts_ptg.Analysis.bottom_levels graph ~time
    | Top_level_first ->
      Array.map (fun t -> -.t) (Emts_ptg.Analysis.top_levels graph ~time)
    | Static p -> p
  in
  let indeg = Array.init n (fun v -> Array.length (Graph.preds graph v)) in
  let data_ready = Array.copy release in
  let avail = Array.copy avail0 in
  let order = Array.init procs Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare avail.(a) avail.(b) in
      if c <> 0 then c else Int.compare a b)
    order;
  let scratch = Array.make procs 0 in
  let merge_front s =
    let chosen = Array.sub order 0 s in
    Array.sort Int.compare chosen;
    Array.blit order s scratch 0 (procs - s);
    let finish = avail.(chosen.(0)) in
    let i = ref 0 and j = ref 0 in
    for k = 0 to procs - 1 do
      let take_chosen =
        !j >= procs - s
        || (!i < s
           &&
           let b = scratch.(!j) in
           let c = Float.compare finish avail.(b) in
           c < 0 || (c = 0 && chosen.(!i) < b))
      in
      if take_chosen then begin
        order.(k) <- chosen.(!i);
        incr i
      end
      else begin
        order.(k) <- scratch.(!j);
        incr j
      end
    done;
    chosen
  in
  let ready = ref (List.filter (fun v -> indeg.(v) = 0) (List.init n Fun.id)) in
  let entries = Array.make n None in
  while !ready <> [] do
    let v =
      List.fold_left
        (fun b v ->
          let c = Float.compare prio.(v) prio.(b) in
          if c > 0 || (c = 0 && v < b) then v else b)
        (List.hd !ready) !ready
    in
    ready := List.filter (( <> ) v) !ready;
    let s = alloc.(v) in
    let start = Float.max data_ready.(v) avail.(order.(s - 1)) in
    let finish = start +. times.(v) in
    for k = 0 to s - 1 do
      avail.(order.(k)) <- finish
    done;
    let procs = merge_front s in
    entries.(v) <- Some { Emts_sched.Schedule.task = v; start; finish; procs };
    Array.iter
      (fun w ->
        if finish > data_ready.(w) then data_ready.(w) <- finish;
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := w :: !ready)
      (Graph.succs graph v)
  done;
  Array.map Option.get entries

(* The reference makespan: the largest finish, [+0.] for none; and
   [infinity] when it exceeds [cutoff], as a bounded call rejects
   exactly then.  Bottom-level priorities. *)
let reference_makespan ?release ?avail ~graph ~times ~alloc ~procs ~cutoff ()
    =
  let zeros k = function Some a -> a | None -> Array.make k 0. in
  let m =
    Array.fold_left
      (fun m (e : Emts_sched.Schedule.entry) ->
        if e.finish > m then e.finish else m)
      0.
      (reference_entries ~priority:Emts_sched.List_scheduler.Bottom_level
         ~graph ~times ~alloc ~procs
         ~release:(zeros (Graph.task_count graph) release)
         ~avail:(zeros procs avail))
  in
  if m > cutoff then infinity else m

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
