(* Helpers for golden-digest tests: outputs and cost meters pinned as
   MD5s recorded from a reference version of the code. *)

open Dsgraph

(* MD5 of [Marshal.to_string] over [f]'s output, the cost meter it
   charged (totals and per-tag rounds) and that meter's JSONL trace, so
   the order of the charges is pinned too. *)
let metered_md5 f =
  let sink = Congest.Trace.sink () in
  let cost = Congest.Cost.create ~trace:sink () in
  let out = f cost in
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( out,
            Congest.Cost.rounds cost,
            Congest.Cost.messages cost,
            Congest.Cost.max_message_bits cost,
            Congest.Cost.breakdown cost,
            Congest.Trace.to_jsonl sink )
          []))

(* every node's cluster id, -1 when unclustered *)
let cluster_labels (c : Cluster.Carving.t) =
  let clustering = c.Cluster.Carving.clustering in
  Array.init
    (Graph.n (Cluster.Clustering.graph clustering))
    (Cluster.Clustering.cluster_of clustering)

(* each node independently with probability [pct]% *)
let random_domain seed g pct =
  let rng = Rng.create seed in
  Mask.of_list (Graph.n g)
    (List.filter (fun _ -> Rng.int rng 100 < pct) (List.init (Graph.n g) Fun.id))
