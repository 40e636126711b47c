open Dsgraph

type preset = Ls93_existential | Aglp | Gha19

let beta_of_preset preset ~n =
  let logn = Float.max 1.0 (log (float_of_int (max n 2)) /. log 2.0) in
  match preset with
  | Ls93_existential -> 2.0
  | Aglp -> Float.max 2.0 (2.0 ** sqrt (logn *. Float.max 1.0 (log logn /. log 2.0)))
  | Gha19 -> Float.max 2.0 (2.0 ** sqrt logn)

let carve ?cost ?beta ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Greedy.carve: epsilon must be in (0, 1)";
  let beta = match beta with Some b -> b | None -> 1.0 /. (1.0 -. epsilon) in
  if beta <= 1.0 then invalid_arg "Greedy.carve: beta must exceed 1";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let remaining = Mask.copy domain in
  let cluster_of = Array.make n (-1) in
  let next_cluster = ref 0 in
  (* Reusable BFS scratch: only the cells listed in [queue] are ever
     non-(-1), and each iteration resets exactly those — so carving a
     region costs its volume, not O(n), and 10^5 singleton components
     cost 10^5 steps rather than 10^11. *)
  let dist = Array.make (max 1 n) (-1) in
  let queue = Array.make (max 1 n) 0 in
  let offsets = Graph.offsets g and targets = Graph.targets g in
  (* The smallest remaining id is monotone (nodes are only ever removed
     from [remaining]), so a cursor replaces the per-cluster
     Mask.to_list scan that made center selection O(n). *)
  let cursor = ref 0 in
  while Mask.count remaining > 0 do
    while not (Mask.mem remaining !cursor) do
      incr cursor
    done;
    let center = !cursor in
    (* Level-synchronous BFS from [center] in G[remaining], stopped as
       soon as layer r+1 is complete: queue.(0 .. ball k - 1) holds B_k.
       The first r with |B_{r+1}| <= β·|B_r| ends the growth; an empty
       layer r+1 satisfies it, so an exhausted component stops at its
       last layer. *)
    dist.(center) <- 0;
    queue.(0) <- center;
    let tail = ref 1 in
    let rec grow r layer_start =
      let ball_r = !tail in
      for i = layer_start to ball_r - 1 do
        let u = queue.(i) in
        for j = offsets.{u} to offsets.{u + 1} - 1 do
          let v = targets.{j} in
          if dist.(v) = -1 && Mask.mem remaining v then begin
            dist.(v) <- r + 1;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done;
      if float_of_int !tail <= beta *. float_of_int ball_r then r
      else grow (r + 1) ball_r
    in
    let r = grow 0 0 in
    let visited = !tail in
    (match cost with
    | None -> ()
    | Some c ->
        Congest.Cost.charge c ~rounds:(r + 2) ~messages:visited
          ~max_bits:(2 * Congest.Bits.id_bits ~n) "greedy.grow");
    let id = !next_cluster in
    incr next_cluster;
    for i = 0 to visited - 1 do
      let v = queue.(i) in
      if dist.(v) <= r then cluster_of.(v) <- id;
      Mask.remove remaining v;
      dist.(v) <- -1
    done
  done;
  let clustering = Cluster.Clustering.make g ~cluster_of in
  Cluster.Carving.make clustering ~domain

let decompose ?cost ?(preset = Ls93_existential) g =
  let beta = beta_of_preset preset ~n:(Graph.n g) in
  let epsilon = 1.0 -. (1.0 /. beta) in
  let epsilon = Float.min 0.9 (Float.max 0.25 epsilon) in
  let carver ?cost ?domain g ~epsilon = carve ?cost ~beta ?domain g ~epsilon in
  Strongdecomp.Netdecomp.of_carver ?cost ~epsilon carver g
