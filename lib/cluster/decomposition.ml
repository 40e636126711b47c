open Dsgraph

type t = { clustering : Clustering.t; color : int array }

let make clustering ~color_of_cluster =
  if Array.length color_of_cluster <> Clustering.num_clusters clustering then
    invalid_arg "Decomposition.make: color array length mismatch";
  Array.iter
    (fun c -> if c < 0 then invalid_arg "Decomposition.make: negative color")
    color_of_cluster;
  { clustering; color = Array.copy color_of_cluster }

let clustering t = t.clustering
let color_of_cluster t c = t.color.(c)

let color_of_node t v =
  let c = Clustering.cluster_of t.clustering v in
  if c < 0 then -1 else t.color.(c)

let num_colors t = Array.fold_left (fun acc c -> max acc (c + 1)) 0 t.color

let clusters_of_color t col =
  let acc = ref [] in
  Array.iteri (fun c col' -> if col' = col then acc := c :: !acc) t.color;
  List.rev !acc

let ( let* ) r f = Result.bind r f

let check ?colors_bound ?strong_diameter_bound ?weak_diameter_bound ?domain t =
  let g = Clustering.graph t.clustering in
  let in_domain v = match domain with None -> true | Some m -> Mask.mem m v in
  let* () =
    let missing = ref [] in
    for v = Graph.n g - 1 downto 0 do
      if in_domain v && Clustering.cluster_of t.clustering v < 0 then
        missing := v :: !missing
    done;
    match !missing with
    | [] -> Ok ()
    | v :: _ -> Error (Printf.sprintf "decomposition: node %d unclustered" v)
  in
  let* () =
    let bad = ref None in
    Graph.iter_edges g (fun u v ->
        if in_domain u && in_domain v then begin
          let cu = Clustering.cluster_of t.clustering u
          and cv = Clustering.cluster_of t.clustering v in
          if cu >= 0 && cv >= 0 && cu <> cv && t.color.(cu) = t.color.(cv) then
            bad := Some (u, v)
        end);
    match !bad with
    | None -> Ok ()
    | Some (u, v) ->
        Error
          (Printf.sprintf
             "decomposition: edge (%d,%d) joins same-color clusters" u v)
  in
  let* () =
    match colors_bound with
    | Some b when num_colors t > b ->
        Error (Printf.sprintf "decomposition: %d colors > bound %d" (num_colors t) b)
    | _ -> Ok ()
  in
  let* () =
    match strong_diameter_bound with
    | None -> Ok ()
    | Some b -> (
        (* values above [b] are exact, so their max is the max strong
           diameter whenever the bound fails *)
        let scratch = Bfs.scratch (Graph.n g) in
        let worst = ref 0 and disconnected = ref false in
        for c = 0 to Clustering.num_clusters t.clustering - 1 do
          match Clustering.strong_diameter_upto ~scratch t.clustering c ~bound:b with
          | -1 -> disconnected := true
          | d -> if d > !worst then worst := d
        done;
        match (!disconnected, !worst) with
        | true, _ -> Error "decomposition: a cluster is internally disconnected"
        | false, d when d > b ->
            Error (Printf.sprintf "decomposition: strong diameter %d > bound %d" d b)
        | _ -> Ok ())
  in
  match weak_diameter_bound with
  | None -> Ok ()
  | Some b -> (
      match Clustering.max_weak_diameter t.clustering with
      | -1 -> Error "decomposition: a cluster spans disconnected components"
      | d when d > b ->
          Error (Printf.sprintf "decomposition: weak diameter %d > bound %d" d b)
      | _ -> Ok ())

let quality t =
  ( num_colors t,
    Clustering.max_strong_diameter t.clustering,
    Clustering.max_weak_diameter t.clustering )

let pp fmt t =
  Format.fprintf fmt "decomposition(%d colors, %a)" (num_colors t)
    Clustering.pp t.clustering
