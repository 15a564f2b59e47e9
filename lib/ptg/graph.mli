(** Parallel task graphs: immutable DAGs of moldable tasks.

    A PTG [G = (V, E)] has tasks as nodes and precedence constraints as
    edges (paper Section II-A).  Node ids are dense: task [i] lives at
    index [i] of the internal arrays, which keeps every traversal an
    array walk. *)

type t
(** An immutable, validated DAG. *)

exception Cycle of int list
(** Raised by {!build} when the edge set contains a cycle; the payload is
    one offending node sequence. *)

(** {1 Construction} *)

module Builder : sig
  type graph := t
  type t

  val create : unit -> t

  val add_task :
    ?name:string ->
    ?data_size:float ->
    ?alpha:float ->
    ?pattern:Task.pattern ->
    flop:float ->
    t ->
    int
  (** Appends a task and returns its id (dense, starting at 0). *)

  val add_edge : t -> src:int -> dst:int -> unit
  (** Adds the precedence constraint [src -> dst].  Duplicate edges are
      ignored (dropped by {!build}).  Raises [Invalid_argument] on
      unknown ids or self-loops. *)

  val task_count : t -> int

  val build : t -> graph
  (** Validates acyclicity and freezes the graph.  Raises {!Cycle}.
      O((V + E) log V), E counting duplicates: the edges are bucketed
      by source, each bucket is sorted and deduplicated, and Kahn's sort
      draws from a min-heap of ids. *)
end

val of_tasks_and_edges : Task.t array -> (int * int) list -> t
(** Direct construction: [of_tasks_and_edges tasks edges] requires
    [tasks.(i).id = i]; validates like {!Builder.build}. *)

(** {1 Accessors} *)

val task_count : t -> int
val edge_count : t -> int
val task : t -> int -> Task.t
val tasks : t -> Task.t array
(** A fresh copy of the task array. *)

val succs : t -> int -> int array
(** Successor ids of a node (do not mutate). *)

val preds : t -> int -> int array
(** Predecessor ids of a node (do not mutate). *)

val edges : t -> (int * int) list
(** All edges as [(src, dst)] pairs, in ascending [(src, dst)] order. *)

val has_edge : t -> src:int -> dst:int -> bool
val in_degree : t -> int -> int
val out_degree : t -> int -> int
val sources : t -> int list
(** Nodes with no predecessors, ascending. *)

val sinks : t -> int list
(** Nodes with no successors, ascending. *)

(** {1 Orderings and structure} *)

val topological_order : t -> int array
(** A topological order of all nodes (Kahn's algorithm; stable: among
    ready nodes, smallest id first — deterministic across runs). *)

val precedence_level : t -> int array
(** [precedence_level g] maps each node to its depth: sources are at
    level 0 and [level v = 1 + max (level pred)] otherwise.  This is the
    layering used by MCPA and the Δ-critical heuristic. *)

val level_count : t -> int
val nodes_at_level : t -> int -> int list
(** Nodes of a given precedence level, ascending id. *)

val max_level_width : t -> int
(** Maximum number of nodes in any single precedence level. *)

val is_edge_transitive : t -> src:int -> dst:int -> bool
(** Whether [src -> dst] is implied by some longer path (and could thus
    be removed by transitive reduction without changing schedules). *)

val transitive_reduction : t -> t
(** The unique minimal DAG with the same reachability: every transitive
    edge removed.  Precedence-feasible schedules are unchanged, but
    analyses touching every edge get cheaper.  The result shares the
    tasks, topological order and levels of the input, which the same
    reachability leaves equal.

    O(E·V/63) word operations: each node's strict descendants are a
    bitset over topological positions, built from the sinks up, and an
    edge [u -> w] goes iff [w] descends from another successor of [u].
    The positions are processed in column blocks of 64 words (4032
    columns), so the bitsets take at most V × 64 words: one block and
    V²/63 words up to 4032 tasks, about 51 MB at 10⁵ tasks. *)

val reachable : t -> int -> bool array
(** [reachable g v] flags every node reachable from [v] (including v). *)

val map_tasks : (Task.t -> Task.t) -> t -> t
(** Rebuilds the graph with transformed tasks.  The transform must
    preserve [id]; raises [Invalid_argument] otherwise. *)

val total_flop : t -> float
(** Sum of task costs, the sequential work of the PTG. *)

val equal_structure : t -> t -> bool
(** Same task count and identical edge sets (task payloads ignored). *)

val pp_stats : Format.formatter -> t -> unit
(** One-line summary: nodes, edges, levels, width. *)
