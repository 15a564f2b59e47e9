(* Tests for Emts_ptg.Task and Emts_ptg.Graph. *)

module Task = Emts_ptg.Task
module Graph = Emts_ptg.Graph

let check_float = Alcotest.(check (float 1e-9))

(* --- Task --- *)

let test_task_make () =
  let t = Task.make ~id:3 ~flop:5e9 () in
  Alcotest.(check string) "default name" "t3" t.Task.name;
  check_float "alpha defaults to 0" 0. t.Task.alpha;
  Alcotest.(check bool) "pattern direct" true (t.Task.pattern = Task.Direct)

let test_task_validation () =
  Alcotest.check_raises "negative id"
    (Invalid_argument "Task.make: id must be >= 0") (fun () ->
      ignore (Task.make ~id:(-1) ~flop:1. ()));
  Alcotest.check_raises "negative flop"
    (Invalid_argument "Task.make: flop must be >= 0") (fun () ->
      ignore (Task.make ~id:0 ~flop:(-1.) ()));
  Alcotest.check_raises "alpha out of range"
    (Invalid_argument "Task.make: alpha must lie in [0, 1]") (fun () ->
      ignore (Task.make ~id:0 ~flop:1. ~alpha:1.5 ()))

let test_flop_of_pattern () =
  check_float "stencil a*d" 600. (Task.flop_of_pattern Task.Stencil ~a:6. ~d:100.);
  check_float "sort a*d*log2 d" (2. *. 8. *. 3.)
    (Task.flop_of_pattern Task.Sort ~a:2. ~d:8.);
  check_float "matmul d^1.5" 1000. (Task.flop_of_pattern Task.Matmul ~a:0. ~d:100.);
  Alcotest.check_raises "direct has no formula"
    (Invalid_argument "Task.flop_of_pattern: Direct has no formula") (fun () ->
      ignore (Task.flop_of_pattern Task.Direct ~a:1. ~d:1.))

let test_pattern_strings () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "round-trip" true
        (Task.pattern_of_string (Task.pattern_to_string p) = Some p))
    [ Task.Stencil; Task.Sort; Task.Matmul; Task.Direct ];
  Alcotest.(check bool) "unknown" true (Task.pattern_of_string "weird" = None)

(* --- Graph construction --- *)

let test_builder_basics () =
  let g = Testutil.diamond_graph () in
  Alcotest.(check int) "tasks" 4 (Graph.task_count g);
  Alcotest.(check int) "edges" 4 (Graph.edge_count g);
  Alcotest.(check (list int)) "sources" [ 0 ] (Graph.sources g);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Graph.sinks g);
  Alcotest.(check (array int)) "succs of 0" [| 1; 2 |] (Graph.succs g 0);
  Alcotest.(check (array int)) "preds of 3" [| 1; 2 |] (Graph.preds g 3);
  Alcotest.(check int) "in_degree" 2 (Graph.in_degree g 3);
  Alcotest.(check int) "out_degree" 2 (Graph.out_degree g 0);
  Alcotest.(check bool) "has_edge" true (Graph.has_edge g ~src:0 ~dst:1);
  Alcotest.(check bool) "no reverse edge" false (Graph.has_edge g ~src:1 ~dst:0)

let test_duplicate_edges_ignored () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_task ~flop:1. b in
  let c = Graph.Builder.add_task ~flop:1. b in
  Graph.Builder.add_edge b ~src:a ~dst:c;
  Graph.Builder.add_edge b ~src:a ~dst:c;
  let g = Graph.Builder.build b in
  Alcotest.(check int) "one edge" 1 (Graph.edge_count g)

let test_builder_errors () =
  let b = Graph.Builder.create () in
  let a = Graph.Builder.add_task ~flop:1. b in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Builder.add_edge: self-loop") (fun () ->
      Graph.Builder.add_edge b ~src:a ~dst:a);
  Alcotest.check_raises "unknown dst"
    (Invalid_argument "Builder.add_edge: unknown dst") (fun () ->
      Graph.Builder.add_edge b ~src:a ~dst:99)

let test_cycle_detection () =
  let tasks = Array.init 3 (fun id -> Task.make ~id ~flop:1. ()) in
  (try
     ignore (Graph.of_tasks_and_edges tasks [ (0, 1); (1, 2); (2, 0) ]);
     Alcotest.fail "cycle not detected"
   with Graph.Cycle nodes ->
     Alcotest.(check (list int)) "all three on the cycle" [ 0; 1; 2 ] nodes);
  (* a diamond is fine *)
  ignore (Graph.of_tasks_and_edges tasks [ (0, 1); (0, 2); (1, 2) ])

let test_of_tasks_and_edges_dense_ids () =
  let tasks = [| Task.make ~id:0 ~flop:1. (); Task.make ~id:5 ~flop:1. () |] in
  Alcotest.check_raises "non-dense ids"
    (Invalid_argument "Graph.of_tasks_and_edges: task ids must be dense")
    (fun () -> ignore (Graph.of_tasks_and_edges tasks []))

let test_empty_graph () =
  let g = Graph.Builder.build (Graph.Builder.create ()) in
  Alcotest.(check int) "no tasks" 0 (Graph.task_count g);
  Alcotest.(check int) "no levels" 0 (Graph.level_count g);
  Alcotest.(check int) "width 0" 0 (Graph.max_level_width g)

(* --- Orderings --- *)

let test_topological_order () =
  let g = Testutil.diamond_graph () in
  Alcotest.(check (array int)) "stable Kahn order" [| 0; 1; 2; 3 |]
    (Graph.topological_order g)

let test_precedence_levels () =
  let g = Testutil.figure2_graph () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2; 2 |]
    (Graph.precedence_level g);
  Alcotest.(check int) "level count" 3 (Graph.level_count g);
  Alcotest.(check (list int)) "level 1" [ 1; 2 ] (Graph.nodes_at_level g 1);
  Alcotest.(check int) "max width" 2 (Graph.max_level_width g)

let test_reachable () =
  let g = Testutil.two_chains_graph () in
  let from0 = Graph.reachable g 0 in
  Alcotest.(check (array bool)) "chain 0 only" [| true; true; false; false |]
    from0

let test_transitive_edge () =
  let tasks = Array.init 3 (fun id -> Task.make ~id ~flop:1. ()) in
  let g = Graph.of_tasks_and_edges tasks [ (0, 1); (1, 2); (0, 2) ] in
  Alcotest.(check bool) "0->2 is transitive" true
    (Graph.is_edge_transitive g ~src:0 ~dst:2);
  Alcotest.(check bool) "0->1 is not" false
    (Graph.is_edge_transitive g ~src:0 ~dst:1)

let test_map_tasks () =
  let g = Testutil.diamond_graph () in
  let doubled =
    Graph.map_tasks
      (fun t ->
        Task.make ~name:t.Task.name ~id:t.Task.id ~flop:(2. *. t.Task.flop) ())
      g
  in
  check_float "flop doubled" 20. (Graph.task doubled 0).Task.flop;
  check_float "total flop" 200. (Graph.total_flop doubled);
  Alcotest.(check bool) "structure preserved" true
    (Graph.equal_structure g doubled);
  Alcotest.check_raises "id change rejected"
    (Invalid_argument "Graph.map_tasks: transform must preserve ids")
    (fun () ->
      ignore
        (Graph.map_tasks
           (fun t -> Task.make ~id:(t.Task.id + 1) ~flop:1. ())
           g))

let test_transitive_reduction () =
  let tasks = Array.init 4 (fun id -> Task.make ~id ~flop:1. ()) in
  let g =
    Graph.of_tasks_and_edges tasks [ (0, 1); (1, 2); (0, 2); (0, 3); (2, 3) ]
  in
  let reduced = Graph.transitive_reduction g in
  (* 0->2 (via 1) and 0->3 (via 2) are transitive *)
  Alcotest.(check (list (pair int int))) "minimal edges"
    [ (0, 1); (1, 2); (2, 3) ]
    (Graph.edges reduced);
  (* reachability is preserved *)
  for v = 0 to 3 do
    Alcotest.(check (array bool))
      (Printf.sprintf "reachability from %d" v)
      (Graph.reachable g v) (Graph.reachable reduced v)
  done;
  (* a reduction is idempotent *)
  Alcotest.(check bool) "idempotent" true
    (Graph.equal_structure reduced (Graph.transitive_reduction reduced))

let test_metrics () =
  let g = Testutil.diamond_graph () in
  let m = Emts_ptg.Metrics.compute ~time:(Testutil.unit_speed_times g) g in
  Alcotest.(check int) "tasks" 4 m.Emts_ptg.Metrics.tasks;
  Alcotest.(check int) "edges" 4 m.Emts_ptg.Metrics.edges;
  Alcotest.(check int) "levels" 3 m.Emts_ptg.Metrics.levels;
  Alcotest.(check int) "max width" 2 m.Emts_ptg.Metrics.max_width;
  check_float "work" 100. m.Emts_ptg.Metrics.total_work;
  check_float "cp" 80. m.Emts_ptg.Metrics.critical_path;
  check_float "avg parallelism" 1.25 m.Emts_ptg.Metrics.average_parallelism;
  (* empty graph: all zeros, no division blow-ups *)
  let empty =
    Emts_ptg.Metrics.compute ~time:(fun _ -> 1.)
      (Graph.Builder.build (Graph.Builder.create ()))
  in
  Alcotest.(check int) "empty tasks" 0 empty.Emts_ptg.Metrics.tasks;
  check_float "empty parallelism" 0. empty.Emts_ptg.Metrics.average_parallelism

(* --- reference specs: the graph layer before the bucketed build ---

   [Ref] keeps the old [Builder] verbatim (a [Hashtbl] on edge pairs and
   a [Set]-based Kahn sort); it returns the observable shape of the
   graph it would build.  [ref_transitive_reduction] is the old
   reduction, one [is_edge_transitive] query per edge. *)

type shape = {
  edges : (int * int) list;
  succ : int array array;
  pred : int array array;
  n_edges : int;
  topo : int array;
  level : int array;
  n_levels : int;
}

let shape_of g =
  let n = Graph.task_count g in
  {
    edges = Graph.edges g;
    succ = Array.init n (Graph.succs g);
    pred = Array.init n (Graph.preds g);
    n_edges = Graph.edge_count g;
    topo = Graph.topological_order g;
    level = Graph.precedence_level g;
    n_levels = Graph.level_count g;
  }

module Ref = struct
  let topo_sort ~n ~succ ~pred =
    let indeg = Array.init n (fun i -> Array.length pred.(i)) in
    let module IS = Set.Make (Int) in
    let ready = ref IS.empty in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then ready := IS.add i !ready
    done;
    let order = Array.make n (-1) in
    let k = ref 0 in
    while not (IS.is_empty !ready) do
      let v = IS.min_elt !ready in
      ready := IS.remove v !ready;
      order.(!k) <- v;
      incr k;
      Array.iter
        (fun w ->
          indeg.(w) <- indeg.(w) - 1;
          if indeg.(w) = 0 then ready := IS.add w !ready)
        succ.(v)
    done;
    if !k < n then begin
      let stuck = ref [] in
      for i = n - 1 downto 0 do
        if indeg.(i) > 0 then stuck := i :: !stuck
      done;
      raise (Graph.Cycle !stuck)
    end;
    order

  let compute_levels ~n ~pred ~topo =
    let level = Array.make n 0 in
    let n_levels = ref (if n = 0 then 0 else 1) in
    Array.iter
      (fun v ->
        let lv =
          Array.fold_left (fun acc p -> max acc (level.(p) + 1)) 0 pred.(v)
        in
        level.(v) <- lv;
        if lv + 1 > !n_levels then n_levels := lv + 1)
      topo;
    (level, !n_levels)

  (* The old [add_edge] per pair, then the old [build]. *)
  let build n pairs =
    let edges = Hashtbl.create 64 in
    List.iter
      (fun (src, dst) ->
        if not (Hashtbl.mem edges (src, dst)) then
          Hashtbl.add edges (src, dst) ())
      pairs;
    let succ_l = Array.make n [] and pred_l = Array.make n [] in
    Hashtbl.iter
      (fun (src, dst) () ->
        succ_l.(src) <- dst :: succ_l.(src);
        pred_l.(dst) <- src :: pred_l.(dst))
      edges;
    let to_sorted_array l =
      let a = Array.of_list l in
      Array.sort compare a;
      a
    in
    let succ = Array.map to_sorted_array succ_l in
    let pred = Array.map to_sorted_array pred_l in
    let topo = topo_sort ~n ~succ ~pred in
    let level, n_levels = compute_levels ~n ~pred ~topo in
    let n_edges = Hashtbl.length edges in
    let edges =
      List.concat
        (List.init n (fun src ->
             Array.to_list (Array.map (fun dst -> (src, dst)) succ.(src))))
    in
    { edges; succ; pred; n_edges; topo; level; n_levels }
end

let ref_transitive_reduction g =
  let keep =
    List.filter
      (fun (src, dst) -> not (Graph.is_edge_transitive g ~src ~dst))
      (Graph.edges g)
  in
  Graph.of_tasks_and_edges (Graph.tasks g) keep

let unit_tasks n = Array.init n (fun id -> Task.make ~id ~flop:1. ())

(* [n] tasks and an edge list with duplicates, in shuffled order.  An
   acyclic list orients every pair along a random permutation, so ids
   are not a topological order; an unrestricted list is mostly cyclic. *)
let arbitrary_edge_list =
  QCheck.make
    ~print:(fun (n, pairs) ->
      Printf.sprintf "%d tasks: %s" n
        (String.concat " "
           (List.map (fun (s, d) -> Printf.sprintf "%d>%d" s d) pairs)))
    QCheck.Gen.(
      triple (int_range 1 40) int bool >|= fun (n, seed, acyclic) ->
      let rng = Emts_prng.create ~seed () in
      let rank = Array.init n Fun.id in
      Emts_prng.shuffle rng rank;
      let pairs =
        List.concat
          (List.init (Emts_prng.int rng (3 * n + 1)) (fun _ ->
               let a = Emts_prng.int rng n and b = Emts_prng.int rng n in
               if a = b then []
               else begin
                 let e =
                   if acyclic && rank.(a) > rank.(b) then (b, a) else (a, b)
                 in
                 if Emts_prng.bernoulli rng ~p:0.3 then [ e; e ] else [ e ]
               end))
      in
      let pairs = Array.of_list pairs in
      Emts_prng.shuffle rng pairs;
      (n, Array.to_list pairs))

let prop_build_matches_reference =
  QCheck.Test.make ~name:"build = reference build (shape or Cycle payload)"
    ~count:500 arbitrary_edge_list (fun (n, pairs) ->
      let got =
        match Graph.of_tasks_and_edges (unit_tasks n) pairs with
        | g -> Ok (shape_of g)
        | exception Graph.Cycle nodes -> Error nodes
      in
      let want =
        match Ref.build n pairs with
        | shape -> Ok shape
        | exception Graph.Cycle nodes -> Error nodes
      in
      got = want)

(* Daggen DAGs over the density and jump ranges, relabelled by a random
   permutation so that topological positions differ from ids. *)
let arbitrary_daggen =
  QCheck.make
    ~print:(fun g -> Format.asprintf "%a" Graph.pp_stats g)
    QCheck.Gen.(
      int >|= fun seed ->
      let rng = Emts_prng.create ~seed () in
      let g =
        Emts_daggen.Random_dag.generate rng
          {
            Emts_daggen.Random_dag.n = Emts_prng.int_in rng 2 120;
            width = Emts_prng.float_in rng 0.1 1.0;
            regularity = Emts_prng.float rng 1.0;
            density = Emts_prng.float_in rng 0.05 0.95;
            jump = Emts_prng.int_in rng 0 4;
          }
      in
      let n = Graph.task_count g in
      let label = Array.init n Fun.id in
      Emts_prng.shuffle rng label;
      Graph.of_tasks_and_edges (unit_tasks n)
        (List.map (fun (s, d) -> (label.(s), label.(d))) (Graph.edges g)))

let prop_reduction_matches_reference =
  QCheck.Test.make ~name:"transitive reduction = reference on daggen DAGs"
    ~count:300 arbitrary_daggen (fun g ->
      let got = Graph.transitive_reduction g
      and want = ref_transitive_reduction g in
      shape_of got = shape_of want && Graph.tasks got = Graph.tasks want)

(* 4100 tasks, past the 4032 columns of one bitset block: a chain in a
   scrambled id order (position i holds task [i * 2957 mod 4100]) with
   every 2-step skip and every 7th 41-step jump, many of which cross the
   block boundary.  Only the chain survives the reduction. *)
let test_reduction_across_blocks () =
  let n = 4100 in
  let at i = i * 2957 mod n in
  let chain = List.init (n - 1) (fun i -> (at i, at (i + 1))) in
  let skips = List.init (n - 2) (fun i -> (at i, at (i + 2))) in
  let jumps =
    List.filter_map
      (fun i -> if i mod 7 = 0 then Some (at i, at (i + 41)) else None)
      (List.init (n - 41) Fun.id)
  in
  let g = Graph.of_tasks_and_edges (unit_tasks n) (jumps @ skips @ chain) in
  let reduced = Graph.transitive_reduction g in
  Alcotest.(check (list (pair int int))) "only the chain remains"
    (List.sort compare chain) (Graph.edges reduced);
  for v = 0 to n - 1 do
    if Graph.reachable g v <> Graph.reachable reduced v then
      Alcotest.failf "reachability from %d changed" v
  done;
  Alcotest.(check bool) "idempotent" true
    (Graph.equal_structure reduced (Graph.transitive_reduction reduced))

(* --- Properties --- *)

let prop_transitive_reduction_preserves_levels =
  QCheck.Test.make ~name:"transitive reduction preserves precedence levels"
    ~count:100 (Testutil.arbitrary_dag ())
    (fun g ->
      let reduced = Graph.transitive_reduction g in
      Graph.precedence_level g = Graph.precedence_level reduced)

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topological order puts src before dst" ~count:200
    (Testutil.arbitrary_dag ())
    (fun g ->
      let pos = Array.make (Graph.task_count g) 0 in
      Array.iteri (fun k v -> pos.(v) <- k) (Graph.topological_order g);
      List.for_all (fun (src, dst) -> pos.(src) < pos.(dst)) (Graph.edges g))

let prop_levels_are_longest_paths =
  QCheck.Test.make ~name:"level = 1 + max level of preds" ~count:200
    (Testutil.arbitrary_dag ())
    (fun g ->
      let level = Graph.precedence_level g in
      List.init (Graph.task_count g) Fun.id
      |> List.for_all (fun v ->
             let preds = Graph.preds g v in
             if Array.length preds = 0 then level.(v) = 0
             else
               level.(v)
               = 1 + Array.fold_left (fun m p -> max m level.(p)) 0 preds))

let prop_edges_sorted_and_consistent =
  QCheck.Test.make ~name:"edges list matches succs/preds" ~count:200
    (Testutil.arbitrary_dag ())
    (fun g ->
      let edges = Graph.edges g in
      List.length edges = Graph.edge_count g
      && List.for_all
           (fun (src, dst) ->
             Graph.has_edge g ~src ~dst
             && Array.exists (( = ) src) (Graph.preds g dst))
           edges)

let prop_level_widths_sum_to_n =
  QCheck.Test.make ~name:"levels partition the node set" ~count:200
    (Testutil.arbitrary_dag ())
    (fun g ->
      let total = ref 0 in
      for lv = 0 to Graph.level_count g - 1 do
        total := !total + List.length (Graph.nodes_at_level g lv)
      done;
      !total = Graph.task_count g)

let () =
  Alcotest.run "ptg"
    [
      ( "task",
        [
          Alcotest.test_case "make" `Quick test_task_make;
          Alcotest.test_case "validation" `Quick test_task_validation;
          Alcotest.test_case "flop_of_pattern" `Quick test_flop_of_pattern;
          Alcotest.test_case "pattern strings" `Quick test_pattern_strings;
        ] );
      ( "construction",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basics;
          Alcotest.test_case "duplicate edges" `Quick
            test_duplicate_edges_ignored;
          Alcotest.test_case "builder errors" `Quick test_builder_errors;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "dense ids" `Quick
            test_of_tasks_and_edges_dense_ids;
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
        ] );
      ( "structure",
        [
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "precedence levels" `Quick test_precedence_levels;
          Alcotest.test_case "reachable" `Quick test_reachable;
          Alcotest.test_case "transitive edge" `Quick test_transitive_edge;
          Alcotest.test_case "transitive reduction" `Quick
            test_transitive_reduction;
          Alcotest.test_case "reduction across bitset blocks" `Quick
            test_reduction_across_blocks;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "map_tasks" `Quick test_map_tasks;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_topo_respects_edges;
            prop_levels_are_longest_paths;
            prop_edges_sorted_and_consistent;
            prop_level_widths_sum_to_n;
            prop_transitive_reduction_preserves_levels;
            prop_build_matches_reference;
            prop_reduction_matches_reference;
          ] );
    ]
