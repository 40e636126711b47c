(* Tests for Workload.Audit: per-cluster quality certificates and their
   independent re-verification against the raw graph.

   The certificates of honest runs must verify; the load-bearing tests
   seed corruptions — a wrong diameter witness, overlapping colors,
   miscounted dead nodes, structural tampering, out-of-range and
   foreign node ids — and assert that [Audit.verify] rejects every
   one. The verifier only consults the
   graph, so these rejections hold no matter which algorithm produced
   the certificate. *)

module Audit = Workload.Audit
open Dsgraph

let check = Alcotest.check
let bool = Alcotest.bool

(* abcp96 on grid64 yields many clusters over 2 colors, several with
   more than one member — enough structure for every corruption below
   (the paper's own algorithms often cover small grids with a single
   cluster, which would leave the adjacency corruptions nothing to
   corrupt) *)
let decomp_fixture =
  lazy
    (let d = Workload.Algorithms.find_decomposer "abcp96" in
     let _, decomp, g =
       Workload.Measure.decomposition_result d Workload.Suite.grid ~n:64
     in
     (Audit.certify_decomposition decomp, g))

let carve_fixture =
  lazy
    (let c = Workload.Algorithms.find_carver "thm2.2" in
     let _, carving, g =
       Workload.Measure.carving_result c Workload.Suite.grid ~n:64
         ~epsilon:0.25
     in
     (Audit.certify_carving carving, g))

let is_ok = function Ok () -> true | Error _ -> false

let expect_reject what g t =
  match Audit.verify g t with
  | Ok () -> Alcotest.failf "corruption not rejected: %s" what
  | Error _ -> ()

(* rebuild the audit with cluster [i]'s certificate transformed *)
let tamper t i f =
  {
    t with
    Audit.certs =
      List.map
        (fun (c : Audit.cert) -> if c.Audit.cluster = i then f c else c)
        t.Audit.certs;
  }

let test_honest_decomposition_verifies () =
  let t, g = Lazy.force decomp_fixture in
  (match Audit.verify g t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest decomposition rejected: %s" e);
  check bool "has clusters" true (t.Audit.certs <> []);
  check bool "decompositions leave nobody dead" true (t.Audit.dead = 0);
  check bool "bounds are consistent" true
    (match Audit.max_diameter_ub t with
    | Some ub -> Audit.max_diameter_lb t <= ub
    | None -> false)

let test_honest_carving_verifies () =
  let t, g = Lazy.force carve_fixture in
  (match Audit.verify g t with
  | Ok () -> ()
  | Error e -> Alcotest.failf "honest carving rejected: %s" e);
  List.iter
    (fun (c : Audit.cert) ->
      check bool "carved clusters carry no colors" true (c.Audit.color = -1))
    t.Audit.certs

(* corruption 1: wrong diameter witness — inflate the claimed height
   (and the upper bound consistently); the verifier recomputes depths
   from the parent pointers and must notice *)
let test_rejects_wrong_witness_height () =
  let t, g = Lazy.force decomp_fixture in
  let big =
    List.find
      (fun (c : Audit.cert) -> List.length c.Audit.members > 1)
      t.Audit.certs
  in
  let bad =
    tamper t big.Audit.cluster (fun c ->
        match c.Audit.tree with
        | Some w ->
            let w = { w with Audit.w_height = w.Audit.w_height + 1 } in
            {
              c with
              Audit.tree = Some w;
              diameter_ub = Some (2 * w.Audit.w_height);
            }
        | None -> c)
  in
  expect_reject "inflated witness height" g bad

(* corruption 1b: tampered eccentric pair — the claimed lower bound no
   longer matches the BFS distance of the named pair *)
let test_rejects_wrong_diameter_lb () =
  let t, g = Lazy.force decomp_fixture in
  let big =
    List.find
      (fun (c : Audit.cert) -> List.length c.Audit.members > 1)
      t.Audit.certs
  in
  let bad =
    tamper t big.Audit.cluster (fun c ->
        { c with Audit.diameter_lb = c.Audit.diameter_lb + 1 })
  in
  expect_reject "inflated diameter lower bound" g bad

(* corruption 2: overlapping colors — recolor one cluster to the color
   of an adjacent cluster; one edge scan must refute disjointness *)
let test_rejects_overlapping_colors () =
  let t, g = Lazy.force decomp_fixture in
  let owner = Array.make t.Audit.n (-1) in
  List.iter
    (fun (c : Audit.cert) ->
      List.iter (fun v -> owner.(v) <- c.Audit.cluster) c.Audit.members)
    t.Audit.certs;
  let pair = ref None in
  Graph.iter_edges g (fun u v ->
      if !pair = None && owner.(u) >= 0 && owner.(v) >= 0 && owner.(u) <> owner.(v)
      then pair := Some (owner.(u), owner.(v)));
  match !pair with
  | None -> Alcotest.fail "fixture has no adjacent cluster pair"
  | Some (a, b) ->
      let color_of i =
        (List.find (fun (c : Audit.cert) -> c.Audit.cluster = i) t.Audit.certs)
          .Audit.color
      in
      let bad = tamper t a (fun c -> { c with Audit.color = color_of b }) in
      expect_reject "adjacent clusters share a color" g bad

(* corruption 3: miscounted dead nodes *)
let test_rejects_miscounted_dead () =
  let t, g = Lazy.force carve_fixture in
  expect_reject "dead count off by one" g
    { t with Audit.dead = t.Audit.dead + 1 };
  expect_reject "dead fraction tampered" g
    { t with Audit.dead_fraction = t.Audit.dead_fraction +. 0.125 }

(* corruption 4: structural tampering — stolen members and forged tree
   edges must also fall to the graph-only checks *)
let test_rejects_structural_tampering () =
  let t, g = Lazy.force decomp_fixture in
  (match t.Audit.certs with
  | (a : Audit.cert) :: (b : Audit.cert) :: _ ->
      let stolen = List.hd a.Audit.members in
      let bad =
        tamper t b.Audit.cluster (fun c ->
            { c with Audit.members = stolen :: c.Audit.members })
      in
      expect_reject "member claimed by two clusters" g bad
  | _ -> Alcotest.fail "fixture has fewer than two clusters");
  let with_tree =
    List.find
      (fun (c : Audit.cert) ->
        match c.Audit.tree with
        | Some w -> w.Audit.w_parents <> []
        | None -> false)
      t.Audit.certs
  in
  let bad =
    tamper t with_tree.Audit.cluster (fun c ->
        match c.Audit.tree with
        | Some w ->
            let far v = if v >= 32 then 0 else t.Audit.n - 1 in
            let w_parents =
              match w.Audit.w_parents with
              | (v, _) :: rest -> (v, far v) :: rest
              | [] -> []
            in
            { c with Audit.tree = Some { w with Audit.w_parents } }
        | None -> c)
  in
  expect_reject "forged tree edge" g bad

(* corruption 5: an eccentric pair naming a node id outside the graph
   must be a precise rejection, not an index error escaping verify *)
let test_rejects_out_of_range_lb_pair () =
  let t, g = Lazy.force decomp_fixture in
  let big =
    List.find
      (fun (c : Audit.cert) -> c.Audit.strong && List.length c.Audit.members > 1)
      t.Audit.certs
  in
  let u, _ = big.Audit.lb_pair in
  List.iter
    (fun bad_v ->
      let bad =
        tamper t big.Audit.cluster (fun c -> { c with Audit.lb_pair = (u, bad_v) })
      in
      check
        Alcotest.(result unit string)
        "out-of-range pair named"
        (Error
           (Printf.sprintf "cluster %d: eccentric pair (%d,%d) not members"
              big.Audit.cluster u bad_v))
        (Audit.verify g bad))
    [ t.Audit.n; -1 ]

(* corruption 6: a strong witness-tree pair re-hung onto a neighbour in
   another cluster — a real graph edge, but it leaves the cluster *)
let test_rejects_pair_into_other_cluster () =
  let t, g = Lazy.force decomp_fixture in
  let owner = Array.make t.Audit.n (-1) in
  List.iter
    (fun (c : Audit.cert) ->
      List.iter (fun v -> owner.(v) <- c.Audit.cluster) c.Audit.members)
    t.Audit.certs;
  let found = ref None in
  List.iter
    (fun (c : Audit.cert) ->
      match c.Audit.tree with
      | Some w when c.Audit.strong ->
          List.iter
            (fun (v, _) ->
              Graph.iter_neighbors g v (fun x ->
                  if !found = None && owner.(x) >= 0
                     && owner.(x) <> c.Audit.cluster
                  then found := Some (c.Audit.cluster, v, x)))
            w.Audit.w_parents
      | _ -> ())
    t.Audit.certs;
  match !found with
  | None -> Alcotest.fail "fixture has no tree node next to another cluster"
  | Some (cl, v, x) ->
      let bad =
        tamper t cl (fun c ->
            match c.Audit.tree with
            | Some w ->
                let w_parents =
                  List.map
                    (fun (a, p) -> if a = v then (a, x) else (a, p))
                    w.Audit.w_parents
                in
                { c with Audit.tree = Some { w with Audit.w_parents } }
            | None -> c)
      in
      check
        Alcotest.(result unit string)
        "foreign endpoint named"
        (Error
           (Printf.sprintf
              "cluster %d: strong witness pair (%d,%d) leaves the cluster" cl v
              x))
        (Audit.verify g bad)

(* Certificates are pinned byte for byte: MD5s of the marshalled
   certificate lists, recorded before the strong searches moved to
   Bfs.within. Carried certificates are compared structurally during
   repair, so any drift in BFS parents would show up there too. *)
let md5_certs (t : Audit.t) =
  Digest.to_hex (Digest.string (Marshal.to_string t.Audit.certs []))

let test_certificates_pinned () =
  let carve g = fst (Strongdecomp.Strong_carving.carve_improved g ~epsilon:0.5) in
  check Alcotest.string "carve_improved barbell 40 10"
    "59bad703d849b9b169474aac1ab57710"
    (md5_certs (Audit.certify_carving (carve (Gen.barbell 40 10))));
  check Alcotest.string "greedy grid 12x12" "22cbe7246a2d5f0ae56772bbeba73aa5"
    (md5_certs
       (Audit.certify_decomposition (Baseline.Greedy.decompose (Gen.grid 12 12))));
  check Alcotest.string "carve_improved grid 12x12"
    "df1172bb7efc7a84eaf0646a07c5c25e"
    (md5_certs (Audit.certify_carving (carve (Gen.grid 12 12))))

(* the strong witness tree is the masked BFS tree of the cluster *)
let test_witness_tree_is_masked_bfs () =
  let greedy g = Cluster.Decomposition.clustering (Baseline.Greedy.decompose g) in
  let clusterings =
    [
      greedy (Gen.grid 12 12);
      greedy (Gen.erdos_renyi (Rng.create 5) 120 0.04);
      (fst (Strongdecomp.Strong_carving.carve_improved (Gen.barbell 20 6)
              ~epsilon:0.5)).Cluster.Carving.clustering;
    ]
  in
  List.iter
    (fun cl ->
      let g = Cluster.Clustering.graph cl and n = Cluster.Clustering.num_clusters cl in
      for c = 0 to n - 1 do
        let members = Cluster.Clustering.members cl c in
        match Cluster.Clustering.witness_tree cl c with
        | None -> Alcotest.fail "greedy/strong cluster without a strong tree"
        | Some (root, pairs, _) ->
            let parent =
              Bfs.parents ~mask:(Mask.of_list (Graph.n g) members) g ~source:root
            in
            check
              Alcotest.(list (pair int int))
              "parents equal the masked BFS"
              (List.filter_map
                 (fun v -> if v = root then None else Some (v, parent.(v)))
                 members)
              pairs
      done)
    clusterings

let test_verify_is_independent () =
  (* a certificate for the wrong graph must be rejected outright *)
  let t, _ = Lazy.force decomp_fixture in
  let other = Gen.grid 4 4 in
  check bool "wrong graph rejected" false (is_ok (Audit.verify other t))

let () =
  Alcotest.run "audit"
    [
      ( "audit",
        [
          Alcotest.test_case "honest decomposition verifies" `Quick
            test_honest_decomposition_verifies;
          Alcotest.test_case "honest carving verifies" `Quick
            test_honest_carving_verifies;
          Alcotest.test_case "rejects inflated witness height" `Quick
            test_rejects_wrong_witness_height;
          Alcotest.test_case "rejects tampered diameter lower bound" `Quick
            test_rejects_wrong_diameter_lb;
          Alcotest.test_case "rejects overlapping colors" `Quick
            test_rejects_overlapping_colors;
          Alcotest.test_case "rejects miscounted dead nodes" `Quick
            test_rejects_miscounted_dead;
          Alcotest.test_case "rejects structural tampering" `Quick
            test_rejects_structural_tampering;
          Alcotest.test_case "verification is graph-anchored" `Quick
            test_verify_is_independent;
          Alcotest.test_case "rejects out-of-range eccentric pair" `Quick
            test_rejects_out_of_range_lb_pair;
          Alcotest.test_case "rejects witness pair into another cluster" `Quick
            test_rejects_pair_into_other_cluster;
          Alcotest.test_case "certificates pinned" `Quick
            test_certificates_pinned;
          Alcotest.test_case "witness tree is the masked BFS tree" `Quick
            test_witness_tree_is_masked_bfs;
        ] );
    ]
