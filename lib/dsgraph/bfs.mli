(** Breadth-first traversals, with optional alive-masks.

    These are the sequential reference implementations; the CONGEST-model
    algorithms charge their round cost separately (see [Congest.Cost]).
    Distances are hop counts; [-1] means unreachable (or outside the mask). *)

val distances : ?mask:Mask.t -> Graph.t -> source:int -> int array
(** Single-source BFS distances in [G\[mask\]]. *)

val multi_distances : ?mask:Mask.t -> Graph.t -> sources:int list -> int array
(** Multi-source BFS: distance to the nearest source. *)

val parents : ?mask:Mask.t -> Graph.t -> source:int -> int array
(** BFS-tree parent pointers; [parents.(source) = source], [-1] if
    unreachable. *)

val ball : ?mask:Mask.t -> Graph.t -> center:int -> radius:int -> int list
(** Nodes at distance [<= radius] from [center] in [G\[mask\]]. *)

val layer_sizes : ?mask:Mask.t -> Graph.t -> sources:int list -> int array
(** [layer_sizes g ~sources] where cell [r] holds [|B_r(sources)|], the
    number of nodes within distance [r]; the array extends to the largest
    finite distance. Cumulative, i.e. non-decreasing. *)

val eccentricity : ?mask:Mask.t -> Graph.t -> int -> int
(** Largest finite distance from the node within its component. *)

val diameter_of_set : Graph.t -> int list -> int
(** Strong diameter of the sub{i graph induced by} the set: max pairwise
    distance measured inside the set. Returns [-1] if the induced subgraph
    is disconnected, [0] for singletons and the empty set. O(k·(k+m))
    time — one BFS per member, stopping at the first that misses a
    member — on one mask and one {!distances_into} buffer pair. *)

val weak_diameter_of_set : ?mask:Mask.t -> Graph.t -> int list -> int
(** Max pairwise distance between set members measured in [G\[mask\]]
    (paths may leave the set). [-1] if some pair is disconnected. *)

val component_of : ?mask:Mask.t -> Graph.t -> int -> int list
(** The connected component of a node in [G\[mask\]], sorted. *)

val distances_into :
  ?mask:Mask.t -> Graph.t -> source:int -> dist:int array -> queue:int array -> int
(** Allocation-free BFS into caller-owned scratch, for per-cluster loops
    at scale. [dist] (length [>= n], every reachable cell [-1] on entry)
    receives hop counts; [queue] (length [>= n]) receives the visited
    nodes in BFS order — it doubles as the touched-list, so the caller
    restores the [-1] invariant by resetting exactly
    [dist.(queue.(0 .. k-1))], where [k] is the returned visit count
    ([0] when the source is outside the mask). Distances along [queue]
    are non-decreasing; results equal {!distances} on the same mask. *)

type scratch = private {
  mutable gen : int;  (** generation of the latest {!within} call *)
  stamp : int array;  (** [stamp.(v) = gen] iff [v] was reached *)
  dist : int array;  (** hop count from the source, for reached nodes *)
  parent : int array;
      (** BFS-tree parent, for reached nodes; the source is its own *)
  queue : int array;
      (** reached nodes in visit order, cells [0 .. k-1] *)
}
(** Caller-owned, reusable buffers for {!within}, sized for one graph.
    Only the cells of nodes reached by the {e latest} call are
    meaningful: a call bumps [gen] instead of clearing anything, so a
    search costs its own volume however often the scratch is reused.
    One scratch serves one traversal at a time. *)

val scratch : int -> scratch
(** [scratch n]: buffers for graphs with at most [n] nodes. *)

val reached : scratch -> int -> bool
(** Whether the latest {!within} call visited the node. *)

val within :
  scratch -> Graph.t -> label:int array -> c:int -> source:int -> int
(** [within s g ~label ~c ~source]: BFS from [source] over the subgraph
    induced by the nodes [v] with [label.(v) = c] (a cluster, given the
    per-node cluster ids), in O(|C| + m_C) time for the reached part [C]
    and no allocation. Returns the visit count [k] ([0] when [source]
    is not labelled [c]); [s.queue.(0 .. k-1)] lists the reached nodes
    with non-decreasing [s.dist], and [s.dist]/[s.parent] hold their
    hop counts and BFS parents ([parent.(source) = source]). Neighbours
    are visited in CSR order, as in {!distances}/{!parents}, so
    distances, parents and visit order equal theirs under the mask of
    the same node set. [label] and the scratch must cover [Graph.n g]
    nodes. *)
