(** Colored network decompositions: every node clustered, clusters colored
    so that same-color clusters are non-adjacent. The [(C, D)] parameters
    of the paper are {!num_colors} and {!max_strong_diameter} (or the weak
    variant). *)

type t

val make : Clustering.t -> color_of_cluster:int array -> t
(** @raise Invalid_argument on length mismatch or negative colors. *)

val clustering : t -> Clustering.t

val color_of_cluster : t -> int -> int

val color_of_node : t -> int -> int
(** [-1] for unclustered nodes (a valid decomposition has none). *)

val num_colors : t -> int
(** [1 + max color] (colors are not renumbered). *)

val clusters_of_color : t -> int -> int list
(** Cluster ids of one color. *)

val check :
  ?colors_bound:int ->
  ?strong_diameter_bound:int ->
  ?weak_diameter_bound:int ->
  ?domain:Dsgraph.Mask.t ->
  t ->
  (unit, string) result
(** Validates the decomposition contract: every domain node (default: all
    nodes) belongs to a cluster; any two {e adjacent} clusters have
    different colors; and the optional color/diameter bounds hold.
    [strong_diameter_bound] costs one BFS per cluster, O(|C| + m_C),
    with the exact all-pairs diameter only for clusters whose BFS tree
    of height [h] has [2h > bound] (see
    {!Clustering.strong_diameter_upto}); a failure reports the exact
    maximum strong diameter. [weak_diameter_bound] is still checked
    exactly. *)

val quality : t -> int * int * int
(** [(colors, max strong diameter, max weak diameter)] — the measured
    [(C, D)] parameters reported in the Table 1 reproduction. *)

val pp : Format.formatter -> t -> unit
