(** Clusterings: assignments of (a subset of) nodes to disjoint clusters.

    A clustering does not carry colors (see {!Decomposition}) or dead-node
    bookkeeping (see {!Carving}); it is the common core both build on.
    Cluster identifiers are normalized to [0 .. num_clusters - 1];
    unclustered nodes carry [-1]. *)

type t

val make : Dsgraph.Graph.t -> cluster_of:int array -> t
(** [make g ~cluster_of] normalizes arbitrary non-negative cluster labels
    to dense ids. [cluster_of.(v) < 0] marks [v] unclustered. The array is
    copied. *)

val graph : t -> Dsgraph.Graph.t

val cluster_of : t -> int -> int
(** [-1] when unclustered. *)

val num_clusters : t -> int

val members : t -> int -> int list
(** Sorted members of a cluster. *)

val clusters : t -> int list list
(** All clusters' member lists, by cluster id. *)

val sizes : t -> int array

val clustered_count : t -> int

val unclustered : t -> int list

val largest_cluster : t -> int
(** Id of a maximum-size cluster; [-1] if there are none. *)

val non_adjacent : t -> bool
(** True when no edge joins two {e distinct} clusters — the ball-carving
    separation requirement. *)

val adjacent_cluster_pairs : t -> (int * int) list
(** Distinct-cluster pairs joined by at least one edge (each pair once). *)

val strong_diameter : t -> int -> int
(** Exact diameter of the subgraph induced by a cluster; [-1] if
    disconnected. All-pairs BFS inside the cluster: O(k·(k+m)) for [k]
    members of volume [m] — for reporting, and for the rare check that
    {!strong_diameter_upto} cannot settle from one BFS tree. *)

val max_strong_diameter : t -> int
(** Max over clusters of the exact {!strong_diameter} (reporting only);
    [-1] if any cluster is internally disconnected; [0] when there are
    no clusters. *)

val strong_diameter_upto :
  ?scratch:Dsgraph.Bfs.scratch -> t -> int -> bound:int -> int
(** The certificate check behind {!Carving.check_strong} and
    {!Decomposition.check}: [-1] when the cluster's induced subgraph is
    disconnected, otherwise a value that is [<= bound] exactly when the
    strong diameter is, and equals the strong diameter when it exceeds
    [bound]. One BFS from the first member gives a tree of height [h]
    with [h <= diam <= 2h]; when [2h <= bound] the answer is [2h], in
    O(|C| + m_C). Only when [2h > bound] does it fall back to the exact
    {!strong_diameter}. [scratch] (default: a fresh one) must be sized
    for the clustering's graph; pass one across clusters. *)

val weak_diameter : ?within:Dsgraph.Mask.t -> t -> int -> int
(** Max pairwise distance of a cluster's members measured in the (masked)
    host graph. *)

val max_weak_diameter : ?within:Dsgraph.Mask.t -> t -> int

val strong_diameter_estimate : ?scratch:Dsgraph.Bfs.scratch -> t -> int -> int
(** Double-sweep estimate of {!strong_diameter}: BFS inside the cluster
    from an arbitrary member, then from the farthest node found. Exact on
    trees, a lower bound within a factor 2 in general, O(cluster) instead
    of O(cluster²). [-1] when disconnected. Used by the measurement
    harness at large [n]; the test suite cross-checks it against the exact
    value on small graphs. *)

val max_strong_diameter_estimate : t -> int

val weak_diameter_estimate : t -> int -> int
(** Double-sweep in the host graph between cluster members. *)

val max_weak_diameter_estimate : t -> int

val witness_tree :
  ?scratch:Dsgraph.Bfs.scratch -> t -> int -> (int * (int * int) list * int) option
(** [(root, parents, height)] of a BFS tree {e inside} the cluster's
    induced subgraph: [parents] is one [(node, parent)] pair per
    non-root member (sorted by node), every pair a real graph edge with
    both endpoints in the cluster, and [height] the largest BFS depth
    over the members. Such a tree certifies that the induced subgraph
    is connected with strong diameter at most [2 * height]. [None] when
    the induced subgraph is disconnected (then only a weak witness
    exists — see {!weak_witness_tree}). One {!Dsgraph.Bfs.within}
    search on [scratch] (default: a fresh one); parents are those of
    {!Dsgraph.Bfs.parents} under the cluster's mask. *)

val weak_witness_tree : ?within:Dsgraph.Mask.t -> t -> int -> (int * (int * int) list * int) option
(** As {!witness_tree} but the BFS runs in the (masked) host graph, so
    the tree may route through non-members (Steiner nodes); it is
    pruned to the union of the root-to-member paths. Certifies weak
    diameter at most [2 * height]. [None] when some member is
    unreachable even in the host graph. *)

val eccentric_pair : ?scratch:Dsgraph.Bfs.scratch -> t -> int -> int * int * int
(** [(u, v, d)] — a double-sweep witness pair inside the cluster's
    induced subgraph: members at distance exactly [d], so [d] is a
    certified lower bound on the strong diameter (within a factor 2 of
    it, exact on trees). [(-1, -1, -1)] when the induced subgraph is
    disconnected. *)

val weak_eccentric_pair : ?within:Dsgraph.Mask.t -> t -> int -> int * int * int
(** As {!eccentric_pair}, measured in the (masked) host graph: a lower
    bound on the weak diameter. *)

val pp : Format.formatter -> t -> unit
