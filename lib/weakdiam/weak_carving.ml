open Dsgraph

type preset = Rg20 | Ggr21 | Hybrid

let default_preset = Ggr21

type result = {
  carving : Cluster.Carving.t;
  forest : Cluster.Steiner.forest;
  steps : int;
  phases : int;
  steps_per_phase : int list;
  max_depth : int;
  congestion : int;
}

(* A node's membership record in one cluster's Steiner tree. *)
type tree_entry = { parent : int; depth : int }

let carve ?(preset = default_preset) ?cost ?domain g ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Weak_carving.carve: epsilon must be in (0, 1)";
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let charge ?rounds ?messages ?max_bits tag =
    match cost with
    | None -> ()
    | Some c -> Congest.Cost.charge c ?rounds ?messages ?max_bits tag
  in
  let id_bits = Congest.Bits.id_bits ~n in
  let b = id_bits in
  let offsets = Graph.offsets g and targets = Graph.targets g in
  (* label.(v): current cluster label; -1 = outside the domain; -2 = dead *)
  let label = Array.make n (-1) in
  Mask.iter domain (fun v -> label.(v) <- v);
  (* Per-cluster bookkeeping, indexed by label (= identifier of the
     origin node). *)
  let size = Array.make n 0 in
  let joined = Array.make n 0 in
  let stopped = Array.make n false in
  (* trails.(label): the Steiner tree built for that cluster; cells
     outside the domain share one never-used table *)
  let trails : (int, tree_entry) Hashtbl.t array =
    Array.make n (Hashtbl.create 1)
  in
  Mask.iter domain (fun v ->
      size.(v) <- 1;
      let t = Hashtbl.create 4 in
      Hashtbl.replace t v { parent = v; depth = 0 };
      trails.(v) <- t);
  (* congestion tracking: number of distinct trees using each edge *)
  let edge_trees : (int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let max_congestion = ref 0 in
  let note_tree_edge v p =
    if v <> p then begin
      let key = (min v p, max v p) in
      let c = 1 + Option.value ~default:0 (Hashtbl.find_opt edge_trees key) in
      Hashtbl.replace edge_trees key c;
      if c > !max_congestion then max_congestion := c
    end
  in
  let max_depth = ref 0 in
  let total_steps = ref 0 in
  let phase_steps = ref [] in
  let grow_threshold lbl =
    let rg20 = epsilon /. (2.0 *. float_of_int b) *. float_of_int size.(lbl) in
    let ggr21 = epsilon /. 2.0 *. float_of_int (max joined.(lbl) 1) in
    match preset with
    | Rg20 -> rg20
    | Ggr21 -> ggr21
    | Hybrid ->
        (* grow whenever either criterion is satisfied: stops are rarest,
           and a stopping cluster kills less than its RG20 threshold, so
           RG20's worst-case dead-fraction budget holds a fortiori; depth
           behaves like RG20 (GGR21's shallow trees come from stopping
           more, not growing faster) *)
        Float.min rg20 ggr21
  in
  (* Join v into cluster [lbl] through neighbor [w] (already in [lbl]). *)
  let join v w lbl =
    let old = label.(v) in
    if old >= 0 then size.(old) <- size.(old) - 1;
    label.(v) <- lbl;
    size.(lbl) <- size.(lbl) + 1;
    joined.(lbl) <- joined.(lbl) + 1;
    let t = trails.(lbl) in
    let wd =
      match Hashtbl.find_opt t w with
      | Some e -> e.depth
      | None ->
          (* w must be in the tree: it is a current member of [lbl] *)
          invalid_arg "Weak_carving: join target missing from tree"
    in
    (* Trees are append-only: entries are never removed or replaced, so
       every parent chain stays valid and acyclic. If [v] once belonged to
       this cluster and rejoins it, its old tree position still connects it
       to the root — reusing it avoids parent cycles (e.g. the root
       reparenting under its own descendant). *)
    if not (Hashtbl.mem t v) then begin
      Hashtbl.replace t v { parent = w; depth = wd + 1 };
      note_tree_edge v w;
      if wd + 1 > !max_depth then max_depth := wd + 1
    end
  in
  let kill v =
    let old = label.(v) in
    if old >= 0 then size.(old) <- size.(old) - 1;
    label.(v) <- -2
  in
  (* Step scratch. Proposals to cluster [lbl] form a list threaded
     through [next_proposal], headed by [first_proposal.(lbl)] (-1 when
     empty) and [count.(lbl)] long; [via.(v)] is the neighbour [v]
     proposes through. [touched] lists the clusters with proposals. *)
  let first_proposal = Array.make n (-1) in
  let next_proposal = Array.make n (-1) in
  let count = Array.make n 0 in
  let via = Array.make n 0 in
  let touched = Array.make n 0 in
  let joiners = Array.make n 0 in
  let seen = Array.make n (-1) in
  let frontier = Array.make n 0 in
  (* One phase: separate red (bit set) from blue (bit clear) clusters.

     Every proposer leaves the red side in its step: it joins a blue
     cluster or dies. Blue nodes never die and a stopped cluster stays
     stopped for the phase. So after the phase's first step, which scans
     every node, the proposers of a step are exactly the alive red
     neighbours of the previous step's joiners: each node is scanned
     once as a proposer and once as a joiner, O(n + m) per phase. *)
  let run_phase bit =
    Array.fill joined 0 n 0;
    Array.fill stopped 0 n false;
    let is_red lbl = (lbl lsr bit) land 1 = 1 in
    let frontier_len = ref 0 in
    for v = 0 to n - 1 do
      if label.(v) >= 0 && is_red label.(v) then begin
        frontier.(!frontier_len) <- v;
        incr frontier_len
      end
    done;
    let continue = ref true in
    while !continue do
      (* Collect proposals, in ascending node order: each alive red node
         adjacent to a live blue cluster proposes to the smallest-label
         such cluster (via the smallest such neighbor). Prepending makes
         each cluster's list descending, the order its joins are made in. *)
      let num_targets = ref 0 in
      let num_proposals = ref 0 in
      for i = 0 to !frontier_len - 1 do
        let v = frontier.(i) in
        let best_l = ref (-1) and best_w = ref (-1) in
        for j = offsets.{v} to offsets.{v + 1} - 1 do
          let w = targets.{j} in
          let lw = label.(w) in
          if lw >= 0 && (not (is_red lw)) && not stopped.(lw) then
            if !best_l < 0 || lw < !best_l || (lw = !best_l && w < !best_w)
            then begin
              best_l := lw;
              best_w := w
            end
        done;
        let lbl = !best_l in
        if lbl >= 0 then begin
          incr num_proposals;
          via.(v) <- !best_w;
          if count.(lbl) = 0 then begin
            touched.(!num_targets) <- lbl;
            incr num_targets
          end;
          count.(lbl) <- count.(lbl) + 1;
          next_proposal.(v) <- first_proposal.(lbl);
          first_proposal.(lbl) <- v
        end
      done;
      if !num_proposals = 0 then continue := false
      else begin
        incr total_steps;
        (* Decide per target cluster. A decision touches only its
           target's counters and trail and its proposers' old clusters,
           so the clusters can be decided in any order. *)
        let num_joiners = ref 0 in
        for i = 0 to !num_targets - 1 do
          let lbl = touched.(i) in
          let grow = float_of_int count.(lbl) >= grow_threshold lbl in
          if not grow then stopped.(lbl) <- true;
          let v = ref first_proposal.(lbl) in
          while !v >= 0 do
            let p = !v in
            v := next_proposal.(p);
            if grow then begin
              join p via.(p) lbl;
              joiners.(!num_joiners) <- p;
              incr num_joiners
            end
            else kill p
          done;
          count.(lbl) <- 0;
          first_proposal.(lbl) <- -1
        done;
        (* CONGEST cost of one step: proposal exchange (1 round), count
           convergecast + decision broadcast over the Steiner trees
           (2·(depth + congestion)), join confirmations (1 round). *)
        let d = !max_depth and l = max 1 !max_congestion in
        charge
          ~rounds:(2 + (2 * (d + l)))
          ~messages:!num_proposals ~max_bits:(2 * id_bits) "weak_carving.step";
        (* next step's proposers: the alive red neighbours of the joiners *)
        frontier_len := 0;
        for i = 0 to !num_joiners - 1 do
          let u = joiners.(i) in
          for j = offsets.{u} to offsets.{u + 1} - 1 do
            let x = targets.{j} in
            if seen.(x) <> !total_steps && label.(x) >= 0 && is_red label.(x)
            then begin
              seen.(x) <- !total_steps;
              frontier.(!frontier_len) <- x;
              incr frontier_len
            end
          done
        done;
        let next = Array.sub frontier 0 !frontier_len in
        Array.sort Int.compare next;
        Array.blit next 0 frontier 0 !frontier_len
      end
    done
  in
  let trace = Option.bind cost Congest.Cost.trace in
  Congest.Span.enter trace "weak_carving";
  for bit = 0 to b - 1 do
    Congest.Span.enter_idx trace "phase" bit;
    let before = !total_steps in
    run_phase bit;
    phase_steps := (!total_steps - before) :: !phase_steps;
    Congest.Span.exit trace
  done;
  Congest.Span.exit trace;
  (* Assemble the output: dense cluster ids in order of first appearance by
     node index, so that [Clustering.make]'s normalization is the
     identity and the forest indexing matches. *)
  let cluster_of = Array.make n (-1) in
  let order : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let labels_in_order = ref [] in
  let next = ref 0 in
  for v = 0 to n - 1 do
    if label.(v) >= 0 then begin
      let lbl = label.(v) in
      let id =
        match Hashtbl.find_opt order lbl with
        | Some id -> id
        | None ->
            let id = !next in
            incr next;
            Hashtbl.replace order lbl id;
            labels_in_order := lbl :: !labels_in_order;
            id
      in
      cluster_of.(v) <- id
    end
  done;
  let labels = Array.of_list (List.rev !labels_in_order) in
  let forest =
    Array.map
      (fun lbl ->
        let t = trails.(lbl) in
        let parent =
          Hashtbl.fold (fun v e acc -> (v, e.parent) :: acc) t []
        in
        { Cluster.Steiner.root = lbl; parent })
      labels
  in
  let clustering = Cluster.Clustering.make g ~cluster_of in
  let carving = Cluster.Carving.make clustering ~domain in
  {
    carving;
    forest;
    steps = !total_steps;
    phases = b;
    steps_per_phase = List.rev !phase_steps;
    max_depth = !max_depth;
    congestion = !max_congestion;
  }
