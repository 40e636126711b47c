(** Ball-carving results: a clustering of part of a node set, with the
    remaining nodes {i dead} (removed). This is the output type of both the
    weak-diameter algorithm [A] and the paper's strong-diameter algorithm
    [B] of Theorem 2.1. *)

type t = {
  clustering : Clustering.t;
  domain : Dsgraph.Mask.t;
      (** The node set the carving ran on (the algorithm may be invoked on
          an induced subgraph [G\[S\]]). *)
}

val make : Clustering.t -> domain:Dsgraph.Mask.t -> t
(** @raise Invalid_argument if a clustered node lies outside the domain. *)

val dead : t -> int list
(** Domain nodes left unclustered. *)

val dead_fraction : t -> float
(** [|dead| / |domain|]; [0] on an empty domain. *)

val check_weak :
  ?epsilon:float ->
  ?steiner:Steiner.forest ->
  ?depth_bound:int ->
  ?congestion_bound:int ->
  t ->
  (unit, string) result
(** Validates the weak-carving contract: clusters are non-adjacent and
    confined to the domain, the dead fraction is at most [epsilon], and —
    when a Steiner forest is supplied — each cluster has a valid tree
    within the given depth and congestion bounds. *)

val check_strong :
  ?epsilon:float -> ?diameter_bound:int -> t -> (unit, string) result
(** Validates the strong-carving contract: additionally every cluster's
    {e induced} subgraph is connected with diameter at most
    [diameter_bound]. Each cluster costs one BFS inside it,
    O(|C| + m_C) (see {!Clustering.strong_diameter_upto}): the tree of
    height [h] settles connectivity, and any bound [>= 2h]. Only a
    cluster with [h <= diameter_bound < 2h] pays for the exact
    all-pairs diameter, so the verdict and the reported diameter are
    exact. *)
