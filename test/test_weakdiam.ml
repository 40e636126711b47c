open Dsgraph
module WC = Weakdiam.Weak_carving
module Clustering = Cluster.Clustering
module Carving = Cluster.Carving
module Steiner = Cluster.Steiner
module Cost = Congest.Cost

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let is_ok = function Ok () -> true | Error _ -> false

let log2i n =
  let rec go acc k = if k >= n then acc else go (acc + 1) (2 * k) in
  go 0 1

(* Full validation of a weak carving result against the contract of the
   black box [A] in Theorem 2.1. *)
let validate ?(preset = WC.Ggr21) ~epsilon g =
  let result = WC.carve ~preset g ~epsilon in
  let b = Congest.Bits.id_bits ~n:(Graph.n g) in
  (* 1. clusters non-adjacent, dead fraction <= epsilon, valid trees *)
  let checked =
    Carving.check_weak ~epsilon ~steiner:result.forest
      ~congestion_bound:(b + 1) result.carving
  in
  (match checked with
  | Ok () -> ()
  | Error e -> Alcotest.failf "carving invalid: %s" e);
  result

let workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 60);
    ("cycle", Gen.cycle 48);
    ("grid", Gen.grid 8 8);
    ("tree", Gen.random_tree (Rng.split rng) 70);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 64 0.06));
    ("hypercube", Gen.hypercube 6);
    ("ring of cliques", Gen.ring_of_cliques 6 6);
    ("expander", Gen.expander (Rng.split rng) 64);
  ]

let test_contract_all_families preset () =
  List.iter
    (fun (name, g) ->
      let r = validate ~preset ~epsilon:0.5 g in
      check bool (name ^ ": some node clustered") true
        (Clustering.clustered_count (Carving.(r.carving.clustering)) > 0))
    (workload 1)

let test_epsilon_sweep preset () =
  let g = Gen.grid 10 10 in
  List.iter
    (fun epsilon -> ignore (validate ~preset ~epsilon g))
    [ 0.5; 0.25; 0.125 ]

let test_all_alive_nodes_clustered () =
  (* every domain node is either dead or in a cluster; clusters partition *)
  let g = Gen.grid 7 7 in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  let dead = Carving.dead r.carving in
  check int "dead + clustered = n" (Graph.n g)
    (List.length dead + Clustering.clustered_count clustering)

let test_clusters_cover_components () =
  (* adjacent alive nodes always end with the same label: each alive
     component lies inside one cluster *)
  let g = Gen.expander (Rng.create 5) 64 in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  let alive =
    Mask.of_list (Graph.n g)
      (List.filter (fun v -> Clustering.cluster_of clustering v >= 0)
         (Graph.nodes g))
  in
  List.iter
    (fun comp ->
      match comp with
      | [] -> ()
      | v :: rest ->
          let c = Clustering.cluster_of clustering v in
          List.iter
            (fun u -> check int "same cluster" c (Clustering.cluster_of clustering u))
            rest)
    (Components.components ~mask:alive g)

let test_deterministic () =
  let g = Gen.erdos_renyi (Rng.create 7) 50 0.08 in
  let r1 = WC.carve g ~epsilon:0.5 in
  let r2 = WC.carve g ~epsilon:0.5 in
  let c1 = r1.carving.Carving.clustering and c2 = r2.carving.Carving.clustering in
  check int "same cluster count" (Clustering.num_clusters c1)
    (Clustering.num_clusters c2);
  for v = 0 to Graph.n g - 1 do
    check int "same assignment" (Clustering.cluster_of c1 v)
      (Clustering.cluster_of c2 v)
  done

let test_depth_bound_rg20 () =
  (* RG20 worst-case Steiner depth is O(log^3 n / eps); check a generous
     concrete constant on the workload suite *)
  List.iter
    (fun (name, g) ->
      let epsilon = 0.5 in
      let r = WC.carve ~preset:WC.Rg20 g ~epsilon in
      let b = log2i (Graph.n g) in
      let bound =
        int_of_float (float_of_int (4 * b * b * b) /. epsilon) + (4 * b) + 8
      in
      let measured =
        Array.fold_left (fun acc t -> max acc (Steiner.depth t)) 0 r.forest
      in
      check bool
        (Printf.sprintf "%s: depth %d within O(log^3/eps) bound %d" name
           measured bound)
        true (measured <= bound))
    (workload 2)

let test_depth_ggr21_not_worse_than_rg20_shape () =
  (* on long paths the GGR21 preset should produce clearly shallower trees *)
  let g = Gen.path 200 in
  let rg = WC.carve ~preset:WC.Rg20 g ~epsilon:0.5 in
  let gg = WC.carve ~preset:WC.Ggr21 g ~epsilon:0.5 in
  check bool "both bounded" true (rg.max_depth >= 0 && gg.max_depth >= 0);
  check bool "ggr21 within rg20 * 2" true (gg.max_depth <= (2 * rg.max_depth) + 8)

let test_congestion_bound () =
  (* each node joins a given cluster's tree at most once per phase, so an
     edge serves at most b+1 trees *)
  List.iter
    (fun (name, g) ->
      let r = WC.carve g ~epsilon:0.5 in
      let b = Congest.Bits.id_bits ~n:(Graph.n g) in
      check bool
        (Printf.sprintf "%s: congestion %d <= %d" name r.congestion (b + 1))
        true
        (r.congestion <= b + 1))
    (workload 3)

let test_cost_meter_charged () =
  let cost = Cost.create () in
  let g = Gen.grid 8 8 in
  ignore (WC.carve ~cost g ~epsilon:0.5);
  check bool "rounds charged" true (Cost.rounds cost > 0);
  check bool "messages charged" true (Cost.messages cost > 0);
  (* messages stay small: 2 * id bits *)
  check bool "message size O(log n)" true
    (Cost.max_message_bits cost <= 2 * Congest.Bits.id_bits ~n:64)

let test_domain_restriction () =
  let g = Gen.grid 6 6 in
  (* carve only the left half *)
  let domain =
    Mask.of_list (Graph.n g)
      (List.filter (fun v -> v mod 6 < 3) (Graph.nodes g))
  in
  let r = WC.carve ~domain g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  for v = 0 to Graph.n g - 1 do
    if not (Mask.mem domain v) then
      check int "outside domain unclustered" (-1)
        (Clustering.cluster_of clustering v)
  done;
  check bool "inside clustered" true (Clustering.clustered_count clustering > 0)

let test_epsilon_validation () =
  let g = Gen.path 4 in
  Alcotest.check_raises "eps 0"
    (Invalid_argument "Weak_carving.carve: epsilon must be in (0, 1)")
    (fun () -> ignore (WC.carve g ~epsilon:0.0));
  Alcotest.check_raises "eps 1"
    (Invalid_argument "Weak_carving.carve: epsilon must be in (0, 1)")
    (fun () -> ignore (WC.carve g ~epsilon:1.0))

let test_singleton_graph () =
  let g = Graph.of_edge_seq ~n:1 Seq.empty in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  check int "one cluster" 1 (Clustering.num_clusters clustering);
  check int "no dead" 0 (List.length (Carving.dead r.carving))

let test_two_isolated_nodes () =
  let g = Graph.of_edge_seq ~n:2 Seq.empty in
  let r = WC.carve g ~epsilon:0.5 in
  check int "two clusters" 2
    (Clustering.num_clusters r.carving.Carving.clustering)

let test_complete_graph_one_cluster () =
  (* on a clique everything merges into a single cluster or dies; with
     eps=0.5 at most half may die, so a big cluster must exist *)
  let g = Gen.complete 16 in
  let r = WC.carve g ~epsilon:0.5 in
  let clustering = r.carving.Carving.clustering in
  check bool "non adjacent" true (Clustering.non_adjacent clustering);
  (* all alive nodes in one cluster (clique = adjacent) *)
  check bool "at most one cluster" true (Clustering.num_clusters clustering <= 1)

(* ------------------------------------------------------------------ *)
(* The genuinely distributed execution (Congest.Sim node program)       *)
(* ------------------------------------------------------------------ *)

module Dist = Weakdiam.Distributed

let small_workload seed =
  let rng = Rng.create seed in
  [
    ("path", Gen.path 20);
    ("cycle", Gen.cycle 16);
    ("grid", Gen.grid 5 5);
    ("er", Gen.ensure_connected rng (Gen.erdos_renyi (Rng.split rng) 28 0.12));
    ("clique", Gen.complete 9);
    ("star", Gen.star 12);
    ("tree", Gen.random_tree (Rng.split rng) 24);
  ]

let test_distributed_matches_engine preset () =
  List.iter
    (fun (name, g) ->
      let r = Dist.carve ~preset g ~epsilon:0.5 in
      check bool (name ^ ": simulation equals engine") true
        (Dist.matches_engine r);
      check bool (name ^ ": halted") true r.Dist.sim_stats.Congest.Sim.all_halted)
    (small_workload 5)

let test_distributed_small_messages () =
  let g = Gen.grid 6 6 in
  let r = Dist.carve g ~epsilon:0.5 in
  check bool "messages fit CONGEST bandwidth" true
    (r.Dist.sim_stats.Congest.Sim.max_bits_seen
    <= Congest.Bits.bandwidth ~n:36);
  check bool "still matches" true (Dist.matches_engine r)

let test_distributed_epsilon_sweep () =
  let g = Gen.grid 5 5 in
  List.iter
    (fun epsilon ->
      let r = Dist.carve g ~epsilon in
      check bool "matches engine" true (Dist.matches_engine r))
    [ 0.5; 0.25 ]

let test_distributed_rounds_within_schedule () =
  let g = Gen.path 24 in
  let r = Dist.carve g ~epsilon:0.5 in
  check bool "rounds within schedule budget" true
    (r.Dist.sim_stats.Congest.Sim.rounds_used
    <= ((r.Dist.total_steps + 6) * r.Dist.step_budget))

let prop_distributed_matches_engine =
  QCheck.Test.make
    ~name:"distributed weak carving equals the step-granular engine" ~count:45
    (QCheck.make
       ~print:(fun (seed, n, pct) ->
         Printf.sprintf "seed=%d n=%d p=%d%%" seed n pct)
       QCheck.Gen.(triple (int_bound 50_000) (int_range 2 30) (int_range 4 30)))
    (fun (seed, n, pct) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let r = Dist.carve g ~epsilon:0.5 in
      Dist.matches_engine r)

let golden_inputs () =
  let grid = Gen.grid 24 24 in
  [
    ("grid 24x24", grid, None);
    ("barbell 60 20", Gen.barbell 60 20, None);
    ("er 300", Gen.erdos_renyi (Rng.create 5) 300 0.02, None);
    ( "grid 24x24 random domain",
      grid,
      Some (Golden.random_domain 11 grid 70) );
  ]

(* Digests recorded from the engine that rescanned every node in every
   step; the frontier engine must reproduce labels, forests (parent-list
   order included), step counts, depth, congestion and every charge. *)
let test_golden_digests () =
  List.iter
    (fun (pname, preset, digests) ->
      List.iter2
        (fun (gname, g, domain) digest ->
          check Alcotest.string (pname ^ " " ^ gname) digest
            (Golden.metered_md5 (fun cost ->
                 let r = WC.carve ~preset ~cost ?domain g ~epsilon:0.5 in
                 ( Golden.cluster_labels r.WC.carving,
                   r.WC.forest,
                   r.WC.steps_per_phase,
                   r.WC.max_depth,
                   r.WC.congestion ))))
        (golden_inputs ()) digests)
    [
      ( "rg20",
        WC.Rg20,
        [
          "fb2f04d67f64afe2c4fe797eb37db965";
          "f9943af33e7e7498a04ae4b3a3a854b8";
          "d6bffddaa7e0eb6faf2ea0887be1e83e";
          "629d7c54f7f8fbbe80632c3fcaf5d195";
        ] );
      ( "ggr21",
        WC.Ggr21,
        [
          "01c593a2ab30884bcfed34ec6ad8970f";
          "d33f91a61d76a326d4739fcbe65b9e7e";
          "5565f81f5eb825b669667566a12142d4";
          "bf08651e566f325e4186b1f3d29a0883";
        ] );
      ( "hybrid",
        WC.Hybrid,
        [
          "fb2f04d67f64afe2c4fe797eb37db965";
          "03b5426331dc697651f62d79622e551c";
          "78a31adfb012760006e09974fbdf7bc0";
          "33d3363e3de9cd8344ef1479a5c93be5";
        ] );
    ]

(* ------------------------------------------------------------------ *)
(* Activity-driven simulation                                           *)
(* ------------------------------------------------------------------ *)

let trace_md5 sink = Digest.to_hex (Digest.string (Congest.Trace.to_jsonl sink))

(* Golden traces: MD5s of the JSONL event streams recorded from the
   dense simulator, which stepped every node in every round. Skipping
   idle nodes must reproduce them byte for byte. *)
let test_golden_carve_traces () =
  List.iter
    (fun (name, g, digest, rounds, messages) ->
      let sink = Congest.Trace.sink ~capacity:50_000_000 () in
      let r = Dist.carve ~trace:sink g ~epsilon:0.5 in
      let st = r.Dist.sim_stats in
      check int (name ^ " rounds") rounds st.Congest.Sim.rounds_used;
      check int (name ^ " messages") messages st.Congest.Sim.total_messages;
      check Alcotest.string (name ^ " trace md5") digest (trace_md5 sink))
    [
      ( "grid 9x9",
        Gen.grid 9 9,
        "f38ae6abc4b6dda76a61ab6adb035d36",
        2240,
        7169 );
      ( "barbell 20 5",
        Gen.barbell 20 5,
        "f66e503934dccf40926c18b8dbb7ee8f",
        560,
        2441 );
      (* clique nodes of degree 39 and 40: the send order follows a
         per-neighbour table with more than 32 keys *)
      ( "barbell 40 5",
        Gen.barbell 40 5,
        "083fcaf75575da6267399891f705713e",
        1152,
        10962 );
    ]

(* the reliable transport steps every node while it runs; a frontier bug
   in crash/revive handling would surface here first *)
let test_golden_reliable_trace () =
  let adversary =
    Congest.Fault.create
      (Congest.Fault.spec ~seed:7 ~drop:0.05 ~duplicate:0.05 ~delay:0.05
         ~delay_window:3 ~crashes:[ (5, 40) ] ~revives:[ (5, 200) ] ())
  in
  let sink = Congest.Trace.sink ~capacity:50_000_000 () in
  let r =
    Dist.carve_reliable ~adversary ~trace:sink (Gen.grid 5 5) ~epsilon:0.5
  in
  let st = r.Dist.r_sim_stats in
  check int "rounds" 2405 st.Congest.Sim.rounds_used;
  check int "messages" 117710 st.Congest.Sim.total_messages;
  check (Alcotest.list int) "crashed" [ 5 ] r.Dist.crashed;
  check bool "revived node finished" true r.Dist.finished.(5);
  check Alcotest.string "trace md5" "e199146c598c79ad8458acfce8214e4c"
    (trace_md5 sink)

(* Sleeping is only a hint: a wrapper that turns every [Sleep_until] into
   [Run] steps the program densely, and must change nothing but the step
   count. *)
let never_sleep =
  {
    Congest.Conformance.instrument =
      (fun p ->
        {
          p with
          Congest.Sim.round =
            (fun ~round ~node ~state ~inbox ->
              let state, out, wake =
                p.Congest.Sim.round ~round ~node ~state ~inbox
              in
              ( state,
                out,
                match wake with
                | Congest.Sim.Sleep_until _ -> Congest.Sim.Run
                | w -> w ));
        });
  }

let test_sleep_is_a_hint () =
  List.iter
    (fun (name, g) ->
      let run conformance =
        let sink = Congest.Trace.sink ~capacity:50_000_000 () in
        let r = Dist.carve ?conformance ~trace:sink g ~epsilon:0.5 in
        (r, Congest.Trace.to_jsonl sink)
      in
      let sleepy, sleepy_trace = run None in
      let dense, dense_trace = run (Some never_sleep) in
      let labels r =
        Array.init (Graph.n g) (fun v ->
            Clustering.cluster_of r.Dist.carving.Carving.clustering v)
      in
      check bool (name ^ ": labels") true (labels sleepy = labels dense);
      let s = sleepy.Dist.sim_stats and d = dense.Dist.sim_stats in
      check bool (name ^ ": stats") true
        ({ s with Congest.Sim.node_steps = 0 } = { d with node_steps = 0 });
      check bool (name ^ ": trace") true
        (String.equal sleepy_trace dense_trace);
      check bool (name ^ ": sleeping saves steps") true
        (s.Congest.Sim.node_steps < d.Congest.Sim.node_steps))
    [
      ("grid 6x6", Gen.grid 6 6);
      ("path 20", Gen.path 20);
      ("barbell 8 3", Gen.barbell 8 3);
      ("er 30", Gen.erdos_renyi (Rng.create 3) 30 0.15);
    ]

(* the point of the frontier: on the benchmark grid almost every
   node-round is idle *)
let test_node_steps_sparse () =
  let g = Gen.grid 24 24 in
  let r = Dist.carve g ~epsilon:0.5 in
  let st = r.Dist.sim_stats in
  let dense = st.Congest.Sim.rounds_used * Graph.n g in
  check bool
    (Printf.sprintf "node_steps %d <= 10%% of rounds*n %d"
       st.Congest.Sim.node_steps dense)
    true
    (10 * st.Congest.Sim.node_steps <= dense)

(* allocation budget of the simulated carving, engine pre-run included;
   the count is deterministic. About 35 words per message are expected:
   12 for the list-based program interface (inbox and outgoing pairs and
   their cons cells), most of the rest for message values and queue
   cells. Hashing node state per step would blow the budget. *)
let test_minor_words_per_message () =
  let g = Gen.grid 24 24 in
  let before = Gc.minor_words () in
  let r = Dist.carve g ~epsilon:0.5 in
  let words = Gc.minor_words () -. before in
  let messages = r.Dist.sim_stats.Congest.Sim.total_messages in
  let per_message = words /. float_of_int messages in
  check bool
    (Printf.sprintf "%.1f minor words per delivered message <= 52" per_message)
    true (per_message <= 52.0)

(* ------------------------------------------------------------------ *)
(* Property tests                                                       *)
(* ------------------------------------------------------------------ *)

let arb =
  QCheck.make
    ~print:(fun (seed, n, pct, e) ->
      Printf.sprintf "seed=%d n=%d p=%d%% eps=%d/8" seed n pct e)
    QCheck.Gen.(
      quad (int_bound 100_000) (int_range 2 60) (int_range 0 30)
        (int_range 2 6))

let prop_contract preset name =
  QCheck.Test.make ~name ~count:70 arb (fun (seed, n, pct, e) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let epsilon = float_of_int e /. 8.0 in
      let r = WC.carve ~preset g ~epsilon in
      let b = Congest.Bits.id_bits ~n in
      is_ok
        (Carving.check_weak ~epsilon ~steiner:r.forest ~congestion_bound:(b + 1)
           r.carving))

let prop_rg20 = prop_contract WC.Rg20 "rg20 carving meets the weak contract"

let prop_ggr21 =
  prop_contract WC.Ggr21 "ggr21 carving meets the weak contract"

let prop_hybrid =
  prop_contract WC.Hybrid "hybrid carving meets the weak contract"

let prop_hybrid_kills_at_most_rg20_budget =
  (* the hybrid threshold is the min of the two, so a stopping cluster
     kills strictly less than the RG20 threshold: the dead fraction obeys
     the RG20 worst-case proof *)
  QCheck.Test.make ~name:"hybrid dead fraction within rg20 budget" ~count:70
    arb (fun (seed, n, pct, e) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let epsilon = float_of_int e /. 8.0 in
      let r = WC.carve ~preset:WC.Hybrid g ~epsilon in
      Cluster.Carving.dead_fraction r.WC.carving <= epsilon +. 1e-9)

let prop_alive_components_in_one_cluster =
  QCheck.Test.make ~name:"alive components lie inside single clusters"
    ~count:70 arb (fun (seed, n, pct, e) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n (float_of_int pct /. 100.0) in
      let epsilon = float_of_int e /. 8.0 in
      let r = WC.carve g ~epsilon in
      let clustering = r.carving.Carving.clustering in
      let alive =
        Mask.of_list n
          (List.filter
             (fun v -> Clustering.cluster_of clustering v >= 0)
             (Graph.nodes g))
      in
      List.for_all
        (fun comp ->
          match comp with
          | [] -> true
          | v :: rest ->
              let c = Clustering.cluster_of clustering v in
              List.for_all (fun u -> Clustering.cluster_of clustering u = c) rest)
        (Components.components ~mask:alive g))

let () =
  Alcotest.run "weakdiam"
    [
      ( "contract",
        [
          Alcotest.test_case "all families (ggr21)" `Quick
            (test_contract_all_families WC.Ggr21);
          Alcotest.test_case "all families (rg20)" `Quick
            (test_contract_all_families WC.Rg20);
          Alcotest.test_case "all families (hybrid)" `Quick
            (test_contract_all_families WC.Hybrid);
          Alcotest.test_case "epsilon sweep (ggr21)" `Quick
            (test_epsilon_sweep WC.Ggr21);
          Alcotest.test_case "epsilon sweep (rg20)" `Quick
            (test_epsilon_sweep WC.Rg20);
          Alcotest.test_case "dead + clustered = n" `Quick
            test_all_alive_nodes_clustered;
          Alcotest.test_case "components in one cluster" `Quick
            test_clusters_cover_components;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "rg20 depth bound" `Quick test_depth_bound_rg20;
          Alcotest.test_case "ggr21 vs rg20 depth" `Quick
            test_depth_ggr21_not_worse_than_rg20_shape;
          Alcotest.test_case "congestion bound" `Quick test_congestion_bound;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "cost meter" `Quick test_cost_meter_charged;
          Alcotest.test_case "domain restriction" `Quick test_domain_restriction;
          Alcotest.test_case "epsilon validation" `Quick test_epsilon_validation;
          Alcotest.test_case "singleton" `Quick test_singleton_graph;
          Alcotest.test_case "isolated nodes" `Quick test_two_isolated_nodes;
          Alcotest.test_case "complete graph" `Quick
            test_complete_graph_one_cluster;
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "matches engine (ggr21)" `Quick
            (test_distributed_matches_engine Weakdiam.Weak_carving.Ggr21);
          Alcotest.test_case "matches engine (rg20)" `Quick
            (test_distributed_matches_engine Weakdiam.Weak_carving.Rg20);
          Alcotest.test_case "matches engine (hybrid)" `Quick
            (test_distributed_matches_engine Weakdiam.Weak_carving.Hybrid);
          Alcotest.test_case "small messages" `Quick
            test_distributed_small_messages;
          Alcotest.test_case "epsilon sweep" `Quick
            test_distributed_epsilon_sweep;
          Alcotest.test_case "rounds within schedule" `Quick
            test_distributed_rounds_within_schedule;
        ] );
      ( "activity",
        [
          Alcotest.test_case "golden carve traces" `Quick
            test_golden_carve_traces;
          Alcotest.test_case "golden reliable trace" `Quick
            test_golden_reliable_trace;
          Alcotest.test_case "sleeping is only a hint" `Quick
            test_sleep_is_a_hint;
          Alcotest.test_case "node steps on grid 24x24" `Quick
            test_node_steps_sparse;
          Alcotest.test_case "minor words per message on grid 24x24" `Quick
            test_minor_words_per_message;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_rg20;
            prop_ggr21;
            prop_hybrid;
            prop_hybrid_kills_at_most_rg20_budget;
            prop_alive_components_in_one_cluster;
            prop_distributed_matches_engine;
          ] );
    ]
