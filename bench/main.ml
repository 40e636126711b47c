(* Benchmark harness: regenerates the paper's Table 1 and Table 2 (measured
   on the workload suite), plus the auxiliary experiments F.MSG (message
   sizes), F.BARRIER (Section 3 tightness), F.LEMMA31 and F.APPS, and a
   bechamel wall-clock timing suite (one Test.make group per table).

   Usage:  dune exec bench/main.exe            (standard sizes, ~minutes)
           dune exec bench/main.exe -- full    (adds the n=16384 sweep)
           dune exec bench/main.exe -- quick   (smoke-test sizes)
           dune exec bench/main.exe -- trace   (observability overhead only)
           dune exec bench/main.exe -- trace quick
                                               (CI-smoke reps; a second word
                                                'quick' also shrinks conform,
                                                causal, resource and chaos)
           dune exec bench/main.exe -- record  (append a headline snapshot
                                                to BENCH_trajectory.json) *)

open Dsgraph
module Suite = Workload.Suite
module Algorithms = Workload.Algorithms
module Measure = Workload.Measure
module Trajectory = Workload.Trajectory
module Resource = Congest.Resource

let fmt = Format.std_formatter

let section title =
  Format.fprintf fmt "@.=== %s ===@.@." title;
  Format.pp_print_flush fmt ()

let mode =
  match Array.to_list Sys.argv with
  | _ :: "full" :: _ -> `Full
  | _ :: "quick" :: _ -> `Quick
  | _ :: "faults" :: _ -> `Faults
  | _ :: "trace" :: _ -> `Trace
  | _ :: "conform" :: _ -> `Conform
  | _ :: "causal" :: _ -> `Causal
  | _ :: "chaos" :: _ -> `Chaos
  | _ :: "record" :: _ -> `Record
  | _ :: "scale" :: _ -> `Scale
  | _ :: "resource" :: _ -> `Resource
  | _ :: "analyze" :: _ -> `Analyze
  | _ :: "dashboard" :: _ -> `Dashboard
  | _ -> `Standard

(* a second word "quick" (`trace quick`, `resource quick`, `chaos quick`,
   ...) shrinks the overhead reps and the chaos sweep to CI-smoke size *)
let quick =
  match Array.to_list Sys.argv with _ :: _ :: "quick" :: _ -> true | _ -> false

let results_dir = "bench_results"

(* writes bench_results/<file>; an unwritable results directory is
   reported, never fatal *)
let write_result file contents =
  try
    if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
    let oc = open_out (Filename.concat results_dir file) in
    output_string oc contents;
    close_out oc;
    Format.fprintf fmt "@.CSV dump written to %s/%s@." results_dir file
  with Sys_error e -> Format.fprintf fmt "@.(skipping CSV dump: %s)@." e

let write_csv ~file ~header rows =
  write_result file (String.concat "\n" (header :: rows) ^ "\n")

(* surface the simulator's incomplete-run warnings (Sim.simulate with
   on_incomplete = `Warn logs to the "congest.sim" source) *)
let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Warning)

let table1_sizes =
  match mode with
  | `Quick -> [ 256 ]
  | `Standard -> [ 256; 1024; 4096 ]
  | _ -> [ 256; 1024; 4096; 16384 ]

let table2_sizes = table1_sizes

(* the ABCP baseline builds G^{2d} (Θ(n²) edges on low-diameter graphs): cap
   its size so the table stays minutes, not hours *)
let abcp_cap = 1024

let seed = 42

(* ------------------------------------------------------------------ *)
(* Table 1: network decomposition                                       *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section
    "Table 1 -- network decomposition in CONGEST (measured colors, cluster \
     diameter, rounds)";
  Format.fprintf fmt
    "Rows marked thm2.3 / thm3.4 are THIS PAPER's algorithms; sDiam = '-' \
     means a@.cluster induces a disconnected subgraph (only legal for weak \
     rows); diameters@.are double-sweep estimates.@.@.";
  let rows = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          List.iter
            (fun (d : Algorithms.decomposer) ->
              if d.name <> "abcp96" || n <= abcp_cap then
                rows := Measure.decomposition_row ~seed d family ~n :: !rows)
            Algorithms.decomposers)
        table1_sizes)
    Suite.core;
  let rows = List.rev !rows in
  Measure.pp_decomp_table fmt rows;
  Format.pp_print_flush fmt ();
  rows

(* ------------------------------------------------------------------ *)
(* Headline shape: Thm 2.3 vs Thm 3.4 diameters on the path family       *)
(* ------------------------------------------------------------------ *)

let headline rows =
  section
    "Headline -- diameter improvement of Thm 3.4 over Thm 2.3 (path family)";
  Format.fprintf fmt
    "The paper predicts D = O(log^3 n) for Thm 2.3 vs O(log^2 n) for Thm \
     3.4,@.i.e. the ratio should grow with log n while Thm 3.4 pays more \
     rounds.@.@.";
  Format.fprintf fmt "%8s %12s %12s %8s %14s %14s@." "n" "D(thm2.3)"
    "D(thm3.4)" "ratio" "rounds(2.3)" "rounds(3.4)";
  List.iter
    (fun n ->
      let find name =
        List.find_opt
          (fun (r : Measure.decomp_row) ->
            r.Measure.algorithm = name && r.Measure.family = "path"
            && r.Measure.n = n)
          rows
      in
      match (find "thm2.3", find "thm3.4") with
      | Some a, Some b ->
          (* both algorithms are strong, so a missing diameter would mean a
             validity failure already flagged in the table *)
          let da = Option.value a.Measure.strong_diameter ~default:(-1) in
          let db = Option.value b.Measure.strong_diameter ~default:(-1) in
          Format.fprintf fmt "%8d %12d %12d %8.2f %14d %14d@." n da db
            (float_of_int da /. float_of_int (max 1 db))
            a.Measure.rounds b.Measure.rounds
      | _ -> ())
    table1_sizes

(* ------------------------------------------------------------------ *)
(* Table 2: ball carving                                                *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2 -- ball carving in CONGEST (n sweep at eps = 1/2)";
  let rows = ref [] in
  List.iter
    (fun family ->
      List.iter
        (fun n ->
          List.iter
            (fun (c : Algorithms.carver) ->
              rows :=
                Measure.carving_row ~seed c family ~n ~epsilon:0.5 :: !rows)
            Algorithms.carvers)
        table2_sizes)
    [ Suite.path; Suite.grid ];
  let sweep_n = List.rev !rows in
  Measure.pp_carve_table fmt sweep_n;
  section "Table 2 -- ball carving, eps sweep (path, n = 1024)";
  let rows = ref [] in
  List.iter
    (fun epsilon ->
      List.iter
        (fun (c : Algorithms.carver) ->
          rows :=
            Measure.carving_row ~seed c Suite.path ~n:1024 ~epsilon :: !rows)
        Algorithms.carvers)
    [ 0.5; 0.25; 0.125 ];
  let sweep_eps = List.rev !rows in
  Measure.pp_carve_table fmt sweep_eps;
  Format.pp_print_flush fmt ();
  sweep_n @ sweep_eps

(* ------------------------------------------------------------------ *)
(* F.MSG: message sizes — the qualitative gap the paper closes           *)
(* ------------------------------------------------------------------ *)

let messages_experiment () =
  section
    "F.MSG -- maximum message size in bits (ABCP96 transformation vs this \
     paper)";
  Format.fprintf fmt
    "CONGEST bandwidth is 2*ceil(log2 n)+8 bits. The ABCP96 weak->strong@.\
     transformation gathers cluster topologies and blows past it; the \
     paper's@.transformation (thm2.2/thm2.3) stays within it by design.@.@.";
  Format.fprintf fmt "%8s %12s %14s %14s %14s@." "n" "bandwidth" "abcp96"
    "thm2.3" "ggr21(weak)";
  List.iter
    (fun n ->
      let g = Suite.erdos_renyi.Suite.build ~seed ~n in
      let bandwidth = Congest.Bits.bandwidth ~n:(Graph.n g) in
      let run f =
        let cost = Congest.Cost.create () in
        f cost g;
        Congest.Cost.max_message_bits cost
      in
      let abcp = run (fun cost g -> ignore (Baseline.Abcp.decompose ~cost g)) in
      let ours =
        run (fun cost g -> ignore (Strongdecomp.Netdecomp.strong ~cost g))
      in
      let weak =
        run (fun cost g -> ignore (Strongdecomp.Netdecomp.weak ~cost g))
      in
      Format.fprintf fmt "%8d %12d %14d %14d %14d@." n bandwidth abcp ours weak)
    (match mode with `Quick -> [ 128; 256 ] | _ -> [ 128; 256; 512; 1024 ])

(* ------------------------------------------------------------------ *)
(* F.BARRIER: Section 3 tightness                                       *)
(* ------------------------------------------------------------------ *)

let barrier_experiment () =
  section "F.BARRIER -- Lemma 3.1 on the subdivided expander vs the grid";
  Format.fprintf fmt
    "On the barrier graph either branch must be expensive: a balanced cut \
     needs a@.separator at the eps*n/ln n scale, or the returned component \
     has diameter at@.the ln^2 n/eps scale. On the grid both stay cheap.@.@.";
  Format.fprintf fmt "%-9s %7s %-10s %10s %13s %9s %11s@." "family" "n"
    "outcome" "separator" "sep_scale" "diam(U)" "diam_scale";
  let sizes =
    match mode with `Quick -> [ 512 ] | _ -> [ 512; 1024; 2048; 4096 ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (fam : Suite.family) ->
          let g = fam.Suite.build ~seed ~n in
          let a = Strongdecomp.Barrier.analyze ~epsilon:0.5 g in
          Format.fprintf fmt "%-9s %7d %-10s %10d %13.1f %9d %11.1f@."
            fam.Suite.name (Graph.n g)
            (match a.Strongdecomp.Barrier.outcome with
            | `Cut -> "cut"
            | `Component -> "component")
            a.Strongdecomp.Barrier.separator_size
            a.Strongdecomp.Barrier.separator_bound
            a.Strongdecomp.Barrier.u_diameter
            a.Strongdecomp.Barrier.diameter_scale)
        [ Suite.subdivided_expander; Suite.grid ])
    sizes

(* ------------------------------------------------------------------ *)
(* F.LEMMA31: outcome census across the suite                           *)
(* ------------------------------------------------------------------ *)

let lemma31_experiment () =
  section "F.LEMMA31 -- Lemma 3.1 outcomes across the workload suite";
  Format.fprintf fmt "%-10s %7s %-10s %10s %9s %10s@." "family" "n" "outcome"
    "separator" "diam(U)" "rounds";
  let n = match mode with `Quick -> 256 | _ -> 1024 in
  List.iter
    (fun (fam : Suite.family) ->
      let g = fam.Suite.build ~seed ~n in
      if Components.is_connected g then begin
        let cost = Congest.Cost.create () in
        let outcome =
          Strongdecomp.Sparse_cut.run ~cost ~epsilon:0.5 g
            ~domain:(Mask.full (Graph.n g))
        in
        let kind, sep, diam =
          match outcome with
          | Strongdecomp.Sparse_cut.Cut { removed; _ } ->
              ("cut", List.length removed, -1)
          | Strongdecomp.Sparse_cut.Component { u; boundary } ->
              ("component", List.length boundary, Bfs.diameter_of_set g u)
        in
        Format.fprintf fmt "%-10s %7d %-10s %10d %9d %10d@." fam.Suite.name
          (Graph.n g) kind sep diam (Congest.Cost.rounds cost)
      end)
    Suite.all

(* ------------------------------------------------------------------ *)
(* F.APPS: the C·D use template                                          *)
(* ------------------------------------------------------------------ *)

let apps_experiment () =
  section
    "F.APPS -- MIS and (D+1)-coloring on top of Thm 2.3 decompositions, vs \
     Luby's randomized MIS (simulated)";
  Format.fprintf fmt "%-10s %7s %7s %7s %10s %10s %10s %8s@." "family" "n" "C"
    "D" "mis_rnds" "col_rnds" "luby_rnds" "valid";
  let n = match mode with `Quick -> 256 | _ -> 1024 in
  List.iter
    (fun (fam : Suite.family) ->
      let g = fam.Suite.build ~seed ~n in
      let decomp = Strongdecomp.Netdecomp.strong g in
      let clustering = Cluster.Decomposition.clustering decomp in
      let colors = Cluster.Decomposition.num_colors decomp in
      let diam = Cluster.Clustering.max_strong_diameter_estimate clustering in
      let mis_cost = Congest.Cost.create () in
      let mis = Apps.Mis.of_decomposition ~cost:mis_cost g decomp in
      let col_cost = Congest.Cost.create () in
      let coloring = Apps.Coloring.of_decomposition ~cost:col_cost g decomp in
      let luby_mis, luby_stats = Apps.Luby.run g in
      let valid =
        (match Apps.Mis.check g mis with Ok () -> true | Error _ -> false)
        && (match Apps.Coloring.check g coloring with
           | Ok () -> true
           | Error _ -> false)
        && match Apps.Mis.check g luby_mis with Ok () -> true | Error _ -> false
      in
      Format.fprintf fmt "%-10s %7d %7d %7d %10d %10d %10d %8s@." fam.Suite.name
        (Graph.n g) colors diam
        (Congest.Cost.rounds mis_cost)
        (Congest.Cost.rounds col_cost)
        luby_stats.Congest.Sim.rounds_used
        (if valid then "ok" else "FAIL"))
    (Suite.core @ [ Suite.scale_free ])

(* ------------------------------------------------------------------ *)
(* F.SIM: the genuinely distributed execution vs the cost model          *)
(* ------------------------------------------------------------------ *)

let sim_experiment () =
  section
    "F.SIM -- weak carving executed round-by-round on the synchronous \
     simulator";
  Format.fprintf fmt
    "The same bit-phase algorithm as the step-granular engine, but as a \
     real node@.program: proposals on edges, per-cluster convergecasts \
     over Steiner trees, one@.message per edge per round. 'match' asserts \
     the clustering equals the engine's@.exactly; sim_rounds is the \
     measured synchronous round count, model_rounds the@.cost-model charge \
     for the same instance.@.@.";
  Format.fprintf fmt "%-8s %5s %-6s %6s %10s %12s %8s %8s@." "family" "n"
    "preset" "match" "sim_rounds" "model_rounds" "maxbits" "bandw";
  let graphs =
    match mode with
    | `Quick -> [ ("grid", Gen.grid 5 5); ("er", Suite.erdos_renyi.Suite.build ~seed ~n:24) ]
    | _ ->
        [
          ("path", Gen.path 48);
          ("grid", Gen.grid 7 7);
          ("er", Suite.erdos_renyi.Suite.build ~seed ~n:48);
          ("cliques", Gen.ring_of_cliques 4 6);
        ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (pname, preset) ->
          let r = Weakdiam.Distributed.carve ~preset g ~epsilon:0.5 in
          let model = Congest.Cost.create () in
          ignore (Weakdiam.Weak_carving.carve ~preset ~cost:model g ~epsilon:0.5);
          Format.fprintf fmt "%-8s %5d %-6s %6b %10d %12d %8d %8d@." name
            (Graph.n g) pname
            (Weakdiam.Distributed.matches_engine r)
            r.Weakdiam.Distributed.sim_stats.Congest.Sim.rounds_used
            (Congest.Cost.rounds model)
            r.Weakdiam.Distributed.sim_stats.Congest.Sim.max_bits_seen
            (Congest.Bits.bandwidth ~n:(Graph.n g)))
        [ ("rg20", Weakdiam.Weak_carving.Rg20); ("ggr21", Weakdiam.Weak_carving.Ggr21) ])
    graphs;
  Format.fprintf fmt
    "@.Theorem 2.1 itself as composed distributed stages (weak carving + \
     BFS ball@.growing as node programs); 'match' compares against the \
     centralized Thm 2.1:@.@.";
  Format.fprintf fmt "%-8s %5s %6s %6s %12s %12s %8s@." "family" "n" "match"
    "iters" "weak_rounds" "ball_rounds" "maxbits";
  List.iter
    (fun (name, g) ->
      let _, stats = Strongdecomp.Transform_distributed.strong_carve g ~epsilon:0.5 in
      let m = Strongdecomp.Transform_distributed.matches_centralized g ~epsilon:0.5 in
      Format.fprintf fmt "%-8s %5d %6b %6d %12d %12d %8d@." name (Graph.n g) m
        stats.Strongdecomp.Transform_distributed.iterations
        stats.Strongdecomp.Transform_distributed.weak_rounds
        stats.Strongdecomp.Transform_distributed.ball_rounds
        stats.Strongdecomp.Transform_distributed.max_bits)
    (match mode with
    | `Quick -> [ ("grid", Gen.grid 5 5) ]
    | _ ->
        [
          ("path", Gen.path 40);
          ("grid", Gen.grid 6 6);
          ("er", Suite.erdos_renyi.Suite.build ~seed ~n:40);
        ])

(* ------------------------------------------------------------------ *)
(* Shape check: measured / theory-formula ratios across the n sweep      *)
(* ------------------------------------------------------------------ *)

let shape_check rows2 =
  section
    "Shape check -- measured rounds and diameter divided by the paper's \
     formula (path family, eps = 1/2)";
  Format.fprintf fmt
    "Each cell is measured / formula with the formula from Table 2 \
     (log^k n / eps^j).@.The formulas are worst-case upper bounds, so a \
     shape-correct implementation@.shows a bounded, flat-or-decreasing \
     ratio; a ratio growing with n would flag@.an order violation. None \
     grows.@.@.";
  Format.fprintf fmt "%-10s" "algo";
  List.iter (fun n -> Format.fprintf fmt "  D/thy@%-6d" n) table2_sizes;
  List.iter (fun n -> Format.fprintf fmt "  R/thy@%-6d" n) table2_sizes;
  Format.fprintf fmt "@.";
  List.iter
    (fun (trow : Workload.Theory.row) ->
      let cells which =
        List.map
          (fun n ->
            match
              List.find_opt
                (fun (r : Measure.carve_row) ->
                  r.Measure.algorithm = trow.Workload.Theory.t_name
                  && r.Measure.family = "path"
                  && r.Measure.n = n
                  && r.Measure.epsilon = 0.5)
                rows2
            with
            | None -> None
            | Some r ->
                let measured =
                  match which with
                  | `Diameter -> (
                      match r.Measure.strong_diameter with
                      | Some d -> d
                      | None -> r.Measure.weak_diameter)
                  | `Rounds -> r.Measure.rounds
                in
                Some
                  (Workload.Theory.ratio trow which ~n ~epsilon:0.5 ~measured))
          table2_sizes
      in
      let ds = cells `Diameter and rs = cells `Rounds in
      if List.exists Option.is_some ds then begin
        Format.fprintf fmt "%-10s" trow.Workload.Theory.t_name;
        List.iter
          (fun c ->
            match c with
            | None -> Format.fprintf fmt "  %12s" "-"
            | Some v -> Format.fprintf fmt "  %12.3f" v)
          (ds @ rs);
        Format.fprintf fmt "@."
      end)
    Workload.Theory.carving_rows

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                     *)
(* ------------------------------------------------------------------ *)

let ablation_presets () =
  section
    "ABLATION A1 -- weak-engine preset inside Theorem 2.2 (RG20 guarantees \
     vs GGR21 parameters)";
  Format.fprintf fmt
    "Theorem 2.2 = Theorem 2.1 over the weak engine. The RG20 preset \
     carries the@.worst-case dead-fraction proof but deeper Steiner trees \
     (R = O(log^3/eps));@.the GGR21 preset has R = O(log^2/eps) because it \
     stops clusters more@.aggressively (note its higher dead fraction); the \
     Hybrid preset grows on@.either criterion — minimum deaths, RG20-scale \
     depth. The strong diameter@.inherits 2R + O(log n/eps).@.@.";
  Format.fprintf fmt "%-9s %7s %-8s %7s %7s %7s %12s@." "family" "n" "preset"
    "sDiam" "dead%" "steps" "rounds";
  let sizes = match mode with `Quick -> [ 1024 ] | _ -> [ 1024; 4096 ] in
  List.iter
    (fun n ->
      List.iter
        (fun (label, preset) ->
          let g = Suite.path.Suite.build ~seed ~n in
          let cost = Congest.Cost.create () in
          let carving, _ =
            Strongdecomp.Strong_carving.carve ~cost ~preset g ~epsilon:0.5
          in
          let clustering = carving.Cluster.Carving.clustering in
          Format.fprintf fmt "%-9s %7d %-8s %7d %7.1f %7s %12d@." "path" n
            label
            (Cluster.Clustering.max_strong_diameter_estimate clustering)
            (100.0 *. Cluster.Carving.dead_fraction carving)
            "-" (Congest.Cost.rounds cost))
        [
          ("rg20", Weakdiam.Weak_carving.Rg20);
          ("hybrid", Weakdiam.Weak_carving.Hybrid);
          ("ggr21", Weakdiam.Weak_carving.Ggr21);
        ])
    sizes

let ablation_epsilon_split () =
  section
    "ABLATION A2 -- Theorem 2.1's eps' = eps/(2 log n) split, probed by \
     feeding the weak engine directly at eps vs eps/(2 log n)";
  Format.fprintf fmt
    "The transformation must shrink the weak engine's boundary budget by \
     2 log n to@.survive log n halving iterations; the price is the deeper \
     trees below.@.@.";
  Format.fprintf fmt "%-9s %7s %14s %10s %10s@." "family" "n" "eps'" "depth R"
    "dead%";
  let n = match mode with `Quick -> 512 | _ -> 4096 in
  let g = Suite.path.Suite.build ~seed ~n in
  let log2n =
    int_of_float (Float.ceil (log (float_of_int n) /. log 2.0))
  in
  List.iter
    (fun (label, eps) ->
      let r = Weakdiam.Weak_carving.carve g ~epsilon:eps in
      Format.fprintf fmt "%-9s %7d %14s %10d %10.2f@." "path" n label
        r.Weakdiam.Weak_carving.max_depth
        (100.0 *. Cluster.Carving.dead_fraction r.Weakdiam.Weak_carving.carving))
    [
      ("1/2", 0.5);
      ( Printf.sprintf "1/(4 log n)=%.4f" (0.5 /. float_of_int (2 * log2n)),
        0.5 /. float_of_int (2 * log2n) );
    ]

let ablation_colors_vs_eps () =
  section
    "ABLATION A4 -- colors vs per-repetition boundary parameter in the \
     LS93 reduction";
  Format.fprintf fmt
    "The decomposition repeats the carving on what remains. In theory C ~ \
     log_{1/eps} n;@.at laptop scale the measured dead fractions are far \
     below eps, so colors barely@.move and the visible trade is the \
     1/eps factor in per-cluster diameter and rounds.@.@.";
  Format.fprintf fmt "%8s %8s %8s %8s@." "eps" "colors" "sDiam" "rounds";
  let n = match mode with `Quick -> 256 | _ -> 1024 in
  let g = Suite.path.Suite.build ~seed ~n in
  List.iter
    (fun epsilon ->
      let cost = Congest.Cost.create () in
      let carver ?cost ?domain g ~epsilon =
        fst (Strongdecomp.Strong_carving.carve ?cost ?domain g ~epsilon)
      in
      let d = Strongdecomp.Netdecomp.of_carver ~cost ~epsilon carver g in
      let clustering = Cluster.Decomposition.clustering d in
      Format.fprintf fmt "%8.3f %8d %8d %8d@." epsilon
        (Cluster.Decomposition.num_colors d)
        (Cluster.Clustering.max_strong_diameter_estimate clustering)
        (Congest.Cost.rounds cost))
    [ 0.75; 0.5; 0.25 ]

let ablation_apps_extra () =
  section
    "ABLATION A3 -- further decomposition consumers: spanner and expander \
     decomposition";
  let n = match mode with `Quick -> 256 | _ -> 1024 in
  Format.fprintf fmt "%-10s %7s %9s %9s %12s %10s@." "family" "n"
    "spn_edges" "stretch" "xdecomp_k" "cut_frac";
  List.iter
    (fun (fam : Suite.family) ->
      let g = fam.Suite.build ~seed ~n in
      let spanner, _ = Apps.Spanner.run g in
      let xd = Apps.Expander_decomp.decompose g in
      Format.fprintf fmt "%-10s %7d %9d %9.0f %12d %10.3f@." fam.Suite.name
        (Graph.n g)
        (List.length spanner.Apps.Spanner.edges)
        (Apps.Spanner.measured_stretch g spanner)
        (Cluster.Clustering.num_clusters xd.Apps.Expander_decomp.clustering)
        (Apps.Expander_decomp.inter_cluster_fraction g xd))
    [ Suite.grid; Suite.erdos_renyi; Suite.ring_of_cliques ]

(* ------------------------------------------------------------------ *)
(* F.FAULT: graceful degradation under fault injection                   *)
(* ------------------------------------------------------------------ *)

let faults_experiment () =
  section
    "F.FAULT -- distributed carvings through the reliable transport under \
     drop/crash adversaries";
  Format.fprintf fmt
    "Each row is one seeded, replayable fault schedule. 'ok' means the \
     output passes@.the lib/cluster validity checkers on the surviving \
     subgraph; '(recovered)' means@.the first run was corrupted by crashes \
     and the harness re-ran on the survivor@.subgraph (recovery rounds \
     reported). Overhead is outer rounds vs the fault-free@.unwrapped \
     baseline.@.@.";
  let sweeps =
    match mode with
    | `Quick ->
        [
          (Workload.Faults.Ls, "path", 64, 0.5);
          (Workload.Faults.Weakdiam, "grid", 25, 0.5);
        ]
    | _ ->
        [
          (Workload.Faults.Ls, "path", 128, 0.5);
          (Workload.Faults.Ls, "er", 128, 0.5);
          (Workload.Faults.Ls, "reg4", 256, 0.5);
          (Workload.Faults.Weakdiam, "grid", 49, 0.5);
          (Workload.Faults.Weakdiam, "er", 48, 0.5);
          (Workload.Faults.Weakdiam, "path", 64, 0.5);
        ]
  in
  let rows =
    List.concat_map
      (fun (algorithm, family, n, epsilon) ->
        let rows =
          Workload.Faults.sweep ~seed:1 algorithm ~family ~n ~epsilon
        in
        List.iter
          (fun r -> Format.fprintf fmt "%a@." Workload.Faults.pp_row r)
          rows;
        rows)
      sweeps
  in
  Format.pp_print_flush fmt ();
  rows

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock suite: one Test.make per table/figure             *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  section "Wall-clock timing (bechamel, monotonic clock, ~0.5 s per test)";
  let open Bechamel in
  let open Toolkit in
  let n = match mode with `Quick -> 256 | _ -> 1024 in
  let path = Suite.path.Suite.build ~seed ~n in
  let grid = Suite.grid.Suite.build ~seed ~n in
  let er = Suite.erdos_renyi.Suite.build ~seed ~n in
  let test_table1 =
    Test.make_grouped ~name:"table1" ~fmt:"%s %s"
      [
        Test.make ~name:"thm2.3/path"
          (Staged.stage (fun () -> Strongdecomp.Netdecomp.strong path));
        Test.make ~name:"thm3.4/path"
          (Staged.stage (fun () -> Strongdecomp.Netdecomp.strong_improved path));
        Test.make ~name:"ls93/path"
          (Staged.stage (fun () ->
               Baseline.Linial_saks.decompose (Rng.create 1) path));
        Test.make ~name:"mpx/path"
          (Staged.stage (fun () -> Baseline.Mpx.decompose (Rng.create 1) path));
      ]
  in
  let test_table2 =
    Test.make_grouped ~name:"table2" ~fmt:"%s %s"
      [
        Test.make ~name:"thm2.2/grid"
          (Staged.stage (fun () ->
               Strongdecomp.Strong_carving.carve grid ~epsilon:0.5));
        Test.make ~name:"thm3.3/grid"
          (Staged.stage (fun () ->
               Strongdecomp.Strong_carving.carve_improved grid ~epsilon:0.5));
        Test.make ~name:"ggr21/grid"
          (Staged.stage (fun () -> Weakdiam.Weak_carving.carve grid ~epsilon:0.5));
        Test.make ~name:"rg20/grid"
          (Staged.stage (fun () ->
               Weakdiam.Weak_carving.carve ~preset:Weakdiam.Weak_carving.Rg20
                 grid ~epsilon:0.5));
      ]
  in
  let test_figures =
    Test.make_grouped ~name:"figures" ~fmt:"%s %s"
      [
        Test.make ~name:"lemma3.1/grid"
          (Staged.stage (fun () ->
               Strongdecomp.Sparse_cut.run ~epsilon:0.5 grid
                 ~domain:(Mask.full (Graph.n grid))));
        Test.make ~name:"mis/er" (Staged.stage (fun () -> Apps.Mis.run er));
        Test.make ~name:"edge_carving/grid"
          (Staged.stage (fun () ->
               Strongdecomp.Edge_carving.carve grid ~epsilon:0.25));
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  Format.fprintf fmt "%-26s %14s@." "benchmark" "time/run";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
      List.iter
        (fun name ->
          let est = Hashtbl.find results name in
          let value =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> v
            | _ -> Float.nan
          in
          let pretty =
            if value > 1e9 then Printf.sprintf "%.2f s" (value /. 1e9)
            else if value > 1e6 then Printf.sprintf "%.2f ms" (value /. 1e6)
            else Printf.sprintf "%.0f ns" value
          in
          Format.fprintf fmt "%-26s %14s@." name pretty)
        (List.sort compare names))
    [ test_table1; test_table2; test_figures ]

(* ------------------------------------------------------------------ *)
(* Overhead tables: T.TRACE, T.SPAN, M.RES, C.CONF                       *)
(* ------------------------------------------------------------------ *)

(* One overhead table: every row times its baseline thunk, its
   instrumented thunk, then the baseline again (the noise floor)
   through Workload.Stats.overhead. [labels] name the two variants in
   the printed header and the CSV columns
   ("<base>_seconds,<instr>_seconds,<base>2_seconds"). *)
type overhead_table = {
  title : string;
  blurb : string;
  labels : string * string;
  csv : string;
  reps : int;
  rows : (string * (unit -> unit) * (unit -> unit)) list;
}

let run_overhead t =
  section t.title;
  Format.fprintf fmt "%s@.@." t.blurb;
  let base, instr = t.labels in
  Format.fprintf fmt "%-24s %5s %12s %12s %12s %10s %10s@." "workload" "reps"
    (base ^ "(s)") (instr ^ "(s)") (base ^ "2(s)") "overhead%" "floor%";
  let lines =
    List.map
      (fun (name, baseline, instrumented) ->
        let o = Workload.Stats.overhead ~reps:t.reps ~baseline ~instrumented in
        let off = o.off.median and on = o.on.median and off2 = o.off2.median in
        Format.fprintf fmt "%-24s %5d %12.4f %12.4f %12.4f %10.2f %10.2f@."
          name t.reps off on off2 o.overhead_pct o.floor_pct;
        Printf.sprintf "%s,%d,%.6f,%.6f,%.6f,%.3f,%.3f" name t.reps off on off2
          o.overhead_pct o.floor_pct)
      t.rows
  in
  write_csv ~file:t.csv
    ~header:
      (Printf.sprintf
         "workload,reps,%s_seconds,%s_seconds,%s2_seconds,overhead_pct,floor_pct"
         base instr base)
    lines

(* [iters] runs of [f] per sample, so sub-millisecond workloads rise
   above timer noise *)
let batch iters f () =
  for _ = 1 to iters do
    f ()
  done

let weak_carve_sim ?conformance g sink =
  ignore (Weakdiam.Distributed.carve ?conformance ~trace:sink g ~epsilon:0.5)

let thm23 g sink =
  let cost = Congest.Cost.create ~trace:sink () in
  ignore (Strongdecomp.Netdecomp.strong ~cost g)

(* T.TRACE: the observability contract is that 'off' pays nothing (the
   hot path only tests an option) and 'on' stays within a few percent *)
let trace_table () =
  let er = Suite.erdos_renyi.Suite.build ~seed ~n:96 in
  let grid = Gen.grid 8 8 in
  let sink = Congest.Trace.sink () in
  (* each traced iteration gets a cleared sink *)
  let row name iters exec =
    ( name,
      batch iters (fun () -> exec None),
      batch iters (fun () ->
          Congest.Trace.clear sink;
          exec (Some sink)) )
  in
  {
    title =
      "T.TRACE -- wall-clock overhead of the per-round event sink on \
       simulator-heavy workloads";
    blurb =
      "Each workload runs with no sink (off), with a sink attached (on), \
       then with no\n\
       sink again (off2, the noise floor). The observability contract is: \
       'off' pays\n\
       nothing — the hot path only tests an option — and 'on' stays \
       within a few\n\
       percent. overhead% = (on - off) / off; compare it against the floor.";
    labels = ("off", "on");
    csv = "trace_overhead.csv";
    reps = (if quick then 3 else 9);
    rows =
      [
        row "leader_election/er96" 200 (fun trace ->
            ignore (Congest.Programs.leader_election ?trace er));
        row "bfs/er96" 200 (fun trace ->
            ignore (Congest.Programs.bfs ?trace er ~source:0));
        row "weak_carve_sim/grid64" 2 (fun trace ->
            ignore (Weakdiam.Distributed.carve ?trace grid ~epsilon:0.5));
      ];
  }

(* T.SPAN: spans must cost a few percent at most over tracing alone,
   since every enter/exit only pushes one packed event and touches two
   float cells *)
let span_table () =
  let grid = Gen.grid 8 8 in
  let plain = Congest.Trace.sink ~spans:false () in
  let spanned = Congest.Trace.sink () in
  let row name exec =
    let on sink () =
      Congest.Trace.clear sink;
      exec sink
    in
    (name, batch 2 (on plain), batch 2 (on spanned))
  in
  {
    title = "T.SPAN -- wall-clock overhead of phase spans over tracing alone";
    blurb =
      "Both columns attach a sink; 'trace' disables spans (~spans:false), \
       'spans' is the\n\
       default sink with the full phase hierarchy recorded. trace2 re-runs \
       the\n\
       tracing-only batch as the noise floor. The budget is overhead% <= 5.";
    labels = ("trace", "spans");
    csv = "span_overhead.csv";
    reps = (if quick then 3 else 15);
    rows =
      [
        row "weak_carve_sim/grid64" (weak_carve_sim grid);
        row "thm2.3/grid64" (thm23 grid);
      ];
  }

(* M.RES: every span enter/exit additionally reads the clock plus the
   GC counters and charges one delta -- the budget is overhead% <= 5 on
   the span-dense simulator workload, and CI gates on it *)
let resource_table () =
  let grid = Gen.grid 8 8 in
  let sink = Congest.Trace.sink () in
  (* Trace.clear resets the hooks, so the spans-only batches run with
     no recorder attached even after a resourced batch *)
  let row name exec =
    let run resourced () =
      Congest.Trace.clear sink;
      if resourced then Resource.attach (Resource.create ()) sink;
      exec sink
    in
    (name, batch 2 (run false), batch 2 (run true))
  in
  {
    title =
      "M.RES -- wall-clock overhead of the resource recorder over spans alone";
    blurb =
      "Both columns attach a default (spans-enabled) sink; 'resources' \
       additionally\n\
       attaches a fresh Congest.Resource recorder per iteration, so every \
       span\n\
       transition samples the clock and the GC counters. spans2 re-runs \
       the\n\
       spans-only batch as the noise floor. The budget is overhead% <= 5.";
    labels = ("spans", "resources");
    csv = "resource_overhead.csv";
    reps = (if quick then 5 else 15);
    rows =
      [
        row "weak_carve_sim/grid64" (weak_carve_sim grid);
        (* the strong engine is span-dense but fast: run it on grid256 so
           the batch is long enough for the median to mean something *)
        row "thm2.3/grid256" (thm23 (Gen.grid 16 16));
      ];
  }

(* C.CONF: the always-on checks (edge discipline + halt monotonicity)
   must stay within the ~10% budget; order-invariant workloads
   additionally re-run every multi-message round on the reversed inbox,
   which deliberately doubles round work, so they are labeled and judged
   separately *)
let conform_table () =
  let er = Suite.erdos_renyi.Suite.build ~seed ~n:96 in
  let grid = Gen.grid 8 8 in
  let sink = Congest.Trace.sink () in
  let rec_ = Congest.Conformance.recorder () in
  let row name iters order_invariant g exec =
    let inst = Congest.Conformance.instrumentor ~order_invariant rec_ g in
    let run conformance () =
      Congest.Trace.clear sink;
      Congest.Conformance.clear rec_;
      exec conformance sink
    in
    (name, batch iters (run None), batch iters (run (Some inst)))
  in
  {
    title =
      "C.CONF -- wall-clock overhead of conformance instrumentation over \
       tracing alone";
    blurb =
      "Both columns attach a sink; 'verified' additionally wraps the \
       program in\n\
       Congest.Conformance.instrument. traced2 re-runs the tracing-only \
       batch as the\n\
       noise floor. Budget: overhead% <= 10 for the (c)-(d) checks; rows \
       marked OI\n\
       also pay the inbox-reversal re-run of invariant (e).";
    labels = ("traced", "verified");
    csv = "conform_overhead.csv";
    reps = (if quick then 3 else 9);
    rows =
      [
        row "leader_election/er96 OI" 200 true er (fun conformance sink ->
            ignore
              (Congest.Programs.leader_election ?conformance ~trace:sink er));
        row "bfs/er96" 200 false er (fun conformance sink ->
            ignore (Congest.Programs.bfs ?conformance ~trace:sink er ~source:0));
        row "weak_carve_sim/grid64" 2 false grid (fun conformance ->
            weak_carve_sim ?conformance grid);
      ];
  }

(* sample artifacts so a bench run leaves an inspectable event stream *)
let trace_artifacts () =
  let sink = Congest.Trace.sink () in
  weak_carve_sim (Gen.grid 8 8) sink;
  let jsonl =
    Congest.Trace.save ~file:"trace_weak_carve_grid64.jsonl" sink
  in
  let metrics = Congest.Metrics.of_trace sink in
  let files =
    Congest.Metrics.save ~prefix:"trace_weak_carve_grid64" metrics
  in
  Format.fprintf fmt "@.sample event stream -> %s (%d events)@." jsonl
    (Congest.Trace.length sink);
  List.iter (Format.fprintf fmt "sample metrics -> %s@.") files

(* A.CAUSAL: replay cost of the happens-before analyzer, relative to the
   traced run that produced the event stream. Analysis is a pure
   consumer (two Trace.iter passes plus the span replay), so the budget
   is a fraction of the run itself: analyze <= 10% of run. *)
let run_causal () =
  section
    "A.CAUSAL -- replay cost of the causal critical-path analyzer over \
     the traced run";
  Format.fprintf fmt
    "'run' executes the workload with a sink attached; 'analyze' replays \
     the recorded@.stream (Causal.analyze + span_breakdown) without \
     re-running anything. Budget:@.overhead%% = analyze / run <= 10.@.@.";
  let reps = if quick then 3 else 9 in
  let plan = { Workload.Stats.warmup = 0; samples = reps; settle = true } in
  let median f = (snd (Workload.Stats.measure ~plan f)).Workload.Stats.median in
  Format.fprintf fmt "%-24s %5s %10s %10s %10s %16s@." "workload" "reps"
    "run(s)" "analyze(s)" "overhead%" "critical/rounds";
  let lines =
    List.map
      (fun (name, exec) ->
        let sink = Congest.Trace.sink () in
        let run_batch =
          batch 2 (fun () ->
              Congest.Trace.clear sink;
              exec sink)
        in
        let analyze_batch =
          batch 2 (fun () ->
              let t = Congest.Causal.analyze sink in
              ignore (Congest.Causal.span_breakdown sink t))
        in
        (* warm-up also leaves the sink holding one full run's stream
           for the analyze batches to replay *)
        run_batch ();
        analyze_batch ();
        let run_s = median run_batch in
        let analyze_s = median analyze_batch in
        let overhead = 100.0 *. analyze_s /. Float.max run_s 1e-9 in
        let t = Congest.Causal.analyze sink in
        Format.fprintf fmt "%-24s %5d %10.4f %10.4f %10.2f %16s@." name reps
          run_s analyze_s overhead
          (Printf.sprintf "%d/%d%s" t.Congest.Causal.critical_rounds
             t.Congest.Causal.rounds
             (if t.Congest.Causal.exact then "" else " ~"));
        Printf.sprintf "%s,%d,%.6f,%.6f,%.3f,%d,%d" name reps run_s analyze_s
          overhead t.Congest.Causal.critical_rounds t.Congest.Causal.rounds)
      [
        ("weak_carve_sim/grid64", weak_carve_sim (Gen.grid 8 8));
        ("thm2.3/grid256", thm23 (Gen.grid 16 16));
      ]
  in
  write_csv ~file:"causal_overhead.csv"
    ~header:
      "workload,reps,run_seconds,analyze_seconds,overhead_pct,critical_rounds,rounds"
    lines

(* ------------------------------------------------------------------ *)
(* B.CHAOS: seeded chaos sweep + repair-cost headline                    *)
(* ------------------------------------------------------------------ *)

module Chaos = Workload.Chaos
module Repair = Workload.Repair
module Audit = Workload.Audit

(* The R.REPAIR acceptance row: greedy on grid256, crash node 128 with
   halo 1, verify the repair certificate, then time a from-scratch
   re-run of the same engine on the survivor subgraph (including
   certification) as the cost denominator. Returns the repair report,
   the edge count of the region handed to the re-carver, and the
   scratch seconds. *)
let repair_trial ~trial =
  let fam = Suite.find "grid" in
  let g = fam.Suite.build ~seed ~n:256 in
  let dec = Algorithms.find_decomposer "greedy" in
  let d = dec.Algorithms.run ~cost:(Congest.Cost.create ()) ~seed g in
  let session = Repair.start_decomposition d in
  let region_edges = ref 0 in
  let recarve sub =
    region_edges := Graph.m sub;
    Repair.recarve_decomposer dec ~seed:(seed + trial) sub
  in
  let delta = Cluster.Repair.delta ~crash:[ 128 ] () in
  let s', rep = Repair.repair ~halo:1 ~recarve session delta in
  let post = Cluster.Repair.graph s'.Repair.state in
  (match Repair.verify_cert ~prev:session ~post rep.Repair.cert with
  | Ok () -> ()
  | Error e -> failwith ("repair headline certificate rejected: " ^ e));
  let t0 = Unix.gettimeofday () in
  let survivors = Mask.to_list (Cluster.Repair.survivors s'.Repair.state) in
  let sub, _back = Subgraph.induce post survivors in
  let labels, lcolors =
    Repair.recarve_decomposer dec ~seed:(seed + trial) sub
  in
  let cl = Cluster.Clustering.make sub ~cluster_of:labels in
  let k = Cluster.Clustering.num_clusters cl in
  let color_of_cluster =
    Array.init k (fun c ->
        match Cluster.Clustering.members cl c with
        | [] -> 0
        | v :: _ -> max 0 lcolors.(labels.(v)))
  in
  let audit =
    Audit.certify_decomposition
      (Cluster.Decomposition.make cl ~color_of_cluster)
  in
  (match Audit.verify sub audit with
  | Ok () -> ()
  | Error e -> failwith ("repair headline scratch audit rejected: " ^ e));
  let scratch_seconds = Unix.gettimeofday () -. t0 in
  (rep, !region_edges, scratch_seconds)

let run_chaos_only () =
  let count = if quick then 25 else 200 in
  section
    (Printf.sprintf
       "B.CHAOS -- %d seeded fault schedules through detect -> repair -> \
        re-audit"
       count);
  let specs = Chaos.default_specs ~count ~seed () in
  let results = Chaos.sweep specs in
  let rows = List.concat_map (fun r -> r.Chaos.rows) results in
  let failures =
    List.concat
      (List.map2
         (fun sp r ->
           List.map
             (fun (step, msg) ->
               Printf.sprintf "%s/%s%d seed=%d step %d: %s"
                 (Chaos.algo_label sp.Chaos.algo)
                 sp.Chaos.family sp.Chaos.n sp.Chaos.seed step msg)
             r.Chaos.failures)
         specs results)
  in
  (* per-algorithm roll-up *)
  let labels =
    List.sort_uniq compare
      (List.map (fun sp -> Chaos.algo_label sp.Chaos.algo) specs)
  in
  Format.fprintf fmt "%-14s %9s %6s %10s %10s %10s@." "algorithm"
    "schedules" "steps" "mean_touch" "max_touch" "cost_ratio";
  List.iter
    (fun label ->
      let mine =
        List.filter
          (fun row -> Chaos.algo_label row.Chaos.r_spec.Chaos.algo = label)
          rows
      in
      let steps = List.length mine in
      let schedules =
        List.length
          (List.filter
             (fun sp -> Chaos.algo_label sp.Chaos.algo = label)
             specs)
      in
      let touch = List.map (fun r -> r.Chaos.touched_fraction) mine in
      let mean xs =
        if xs = [] then 0.0
        else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
      in
      let ratio =
        mean
          (List.map
             (fun r ->
               r.Chaos.repair_seconds /. Float.max 1e-9 r.Chaos.scratch_seconds)
             mine)
      in
      Format.fprintf fmt "%-14s %9d %6d %10.3f %10.3f %10.3f@." label
        schedules steps (mean touch)
        (List.fold_left Float.max 0.0 touch)
        ratio)
    labels;
  Format.fprintf fmt "@.%d schedules, %d repair steps, %d invariant \
                      violations@."
    (List.length specs) (List.length rows) (List.length failures);
  List.iter (fun msg -> Format.fprintf fmt "  VIOLATION %s@." msg) failures;
  (* grid256 single-crash headline, median of three trials *)
  section
    "B.REPAIR -- grid256/greedy single-crash headline (median of 3 trials)";
  let trials = List.map (fun t -> (t, repair_trial ~trial:t)) [ 1; 2; 3 ] in
  let med f =
    (Workload.Stats.summarize (List.map (fun (_, t) -> f t) trials))
      .Workload.Stats.median
  in
  let med_repair = med (fun (rep, _, _) -> rep.Repair.seconds) in
  let med_scratch = med (fun (_, _, s) -> s) in
  let med_touched = med (fun (rep, _, _) -> rep.Repair.touched_fraction) in
  let ratio = med_repair /. Float.max 1e-9 med_scratch in
  Format.fprintf fmt
    "touched fraction %.4f (bound 0.25), repair %.2f ms vs scratch %.2f ms \
     (ratio %.3f, bound 0.50)@."
    med_touched (1000.0 *. med_repair) (1000.0 *. med_scratch) ratio;
  let headline_ok = med_touched <= 0.25 && ratio <= 0.50 in
  Format.fprintf fmt "headline: %s@."
    (if headline_ok then "PASS" else "FAIL");
  write_result "chaos.csv" (Chaos.csv rows);
  write_csv ~file:"repair_cost.csv"
    ~header:
      "workload,trial,dirty,carried,fresh,touched,touched_fraction,region_edges,repair_seconds,scratch_seconds,cost_ratio"
    (List.map
       (fun (t, (rep, edges, scratch_s)) ->
         Printf.sprintf
           "repair/greedy_grid256,%d,%d,%d,%d,%d,%.4f,%d,%.6f,%.6f,%.3f" t
           rep.Repair.dirty_clusters rep.Repair.carried_clusters
           rep.Repair.fresh_clusters rep.Repair.touched_nodes
           rep.Repair.touched_fraction edges rep.Repair.seconds scratch_s
           (rep.Repair.seconds /. Float.max 1e-9 scratch_s))
       trials
    @ [
        Printf.sprintf "repair/greedy_grid256,median,,,,,%.4f,,%.6f,%.6f,%.3f"
          med_touched med_repair med_scratch ratio;
      ]);
  failures = [] && headline_ok

(* ------------------------------------------------------------------ *)
(* B.RECORD: persistent headline-metrics time series                     *)
(* ------------------------------------------------------------------ *)

let trajectory_path = "BENCH_trajectory.json"

(* malformed trajectory lines are skipped with a warning, never
   silently dropped — and never fatal, so one corrupt line cannot
   wedge the recorder *)
let read_trajectory () =
  Trajectory.read_snapshot_lines
    ~warn:(fun ~line_number line ->
      Format.fprintf fmt "warning: %s line %d: malformed snapshot line \
                          skipped (%s)@."
        trajectory_path line_number
        (if String.length line > 40 then String.sub line 0 40 ^ "..." else line))
    trajectory_path

(* one snapshot workload: logical costs from the trace, resource columns
   (seconds, per-node allocation, peak heap) from a recorder attached to
   each run's sink. The seconds headline is the median of a
   Workload.Stats multi-sample run, with the MAD stored alongside so
   the comparator can tell noise from regression. *)
let record_entries () =
  let decomp name n =
    let d = Algorithms.find_decomposer name in
    let sink = Congest.Trace.sink () in
    let res = Resource.create () in
    Resource.attach res sink;
    (* the sink (and its recorder) only see the last sample, so the
       logical and resource columns still describe a single run *)
    let row, summary =
      Measure.decomposition_row_sampled ~seed ~trace:sink
        ~plan:Workload.Stats.quick_plan d Suite.grid ~n
    in
    let tot = Resource.totals res in
    {
      Trajectory.name = Printf.sprintf "%s/grid%d" name n;
      rounds = row.Measure.rounds;
      messages = row.Measure.messages;
      max_bits = row.Measure.max_message_bits;
      phases = List.length (Congest.Span.rollups sink);
      seconds = summary.Workload.Stats.median;
      seconds_mad = summary.Workload.Stats.mad;
      minor_words_per_node =
        tot.Resource.t_minor_words /. float_of_int n;
      peak_heap_mb = Resource.peak_heap_mb tot;
    }
  in
  let sim ~side =
    let g = Gen.grid side side in
    let n = side * side in
    (* timed samples run untraced; one final traced run supplies the
       logical and resource columns *)
    let _, summary =
      Workload.Stats.measure ~plan:Workload.Stats.default_plan (fun () ->
          Weakdiam.Distributed.carve g ~epsilon:0.5)
    in
    let sink = Congest.Trace.sink () in
    let res = Resource.create () in
    Resource.attach res sink;
    let r = Weakdiam.Distributed.carve ~trace:sink g ~epsilon:0.5 in
    let tot = Resource.totals res in
    let s = r.Weakdiam.Distributed.sim_stats in
    {
      Trajectory.name = Printf.sprintf "weak_carve_sim/grid%d" n;
      rounds = s.Congest.Sim.rounds_used;
      messages = s.Congest.Sim.total_messages;
      max_bits = s.Congest.Sim.max_bits_seen;
      phases = List.length (Congest.Span.rollups sink);
      seconds = summary.Workload.Stats.median;
      seconds_mad = summary.Workload.Stats.mad;
      minor_words_per_node = tot.Resource.t_minor_words /. float_of_int n;
      peak_heap_mb = Resource.peak_heap_mb tot;
    }
  in
  (* repair headline, mapped onto the snapshot shape so the >10%
     comparator guards locality and cost: rounds := touched nodes,
     messages := dirty clusters, max_bits := region edges, phases :=
     fresh clusters, seconds := repair wall time (single-shot, so its
     MAD is 0 and the comparator keeps the pure 10% gate) *)
  let repair_entry () =
    let res = Resource.create () in
    let rep, region_edges, _scratch = repair_trial ~trial:1 in
    let tot = Resource.totals res in
    {
      Trajectory.name = "repair/greedy_grid256";
      rounds = rep.Repair.touched_nodes;
      messages = rep.Repair.dirty_clusters;
      max_bits = region_edges;
      phases = rep.Repair.fresh_clusters;
      seconds = rep.Repair.seconds;
      seconds_mad = 0.0;
      minor_words_per_node = tot.Resource.t_minor_words /. 256.0;
      peak_heap_mb = Resource.peak_heap_mb tot;
    }
  in
  let rows =
    [
      decomp "thm2.3" 256;
      decomp "thm3.4" 256;
      decomp "ggr21" 256;
      decomp "mpx" 256;
      sim ~side:8;
      repair_entry ();
    ]
  in
  (* measured after the others: the peak-heap column is a process-wide
     watermark, which would carry this row's trace buffer into every row
     measured after it *)
  let grid256 = sim ~side:16 in
  List.concat_map
    (fun e ->
      if e.Trajectory.name = "weak_carve_sim/grid64" then [ e; grid256 ]
      else [ e ])
    rows

(* prints one "regression: ..." line per significant metric increase
   (the MAD-aware max(10%, k*MAD) gate); CI greps for the prefix and
   surfaces them as non-blocking warnings. Snapshots recorded under
   different environment fingerprints are not compared at all. *)
let compare_snapshots ~old_line ~new_line =
  let verdict = Trajectory.compare_snapshots ~old_line ~new_line () in
  (match verdict with
  | Trajectory.Incomparable { old_fp; new_fp } ->
      Format.fprintf fmt
        "environment fingerprint changed -- skipping the regression \
         comparison@.  previous: %s@.  current:  %s@."
        old_fp new_fp
  | Trajectory.Regressions regs ->
      List.iter
        (fun r -> Format.fprintf fmt "%s@." (Trajectory.regression_line r))
        regs);
  verdict

let fingerprint = lazy (Workload.Stats.current_fingerprint ())

let run_record_only () =
  section
    "B.RECORD -- headline-metrics snapshot appended to BENCH_trajectory.json";
  let entries = record_entries () in
  Format.fprintf fmt "%-24s %10s %10s %8s %7s %9s %9s %12s %8s@." "workload"
    "rounds" "messages" "maxbits" "phases" "seconds" "mad" "minorW/node"
    "peakMB";
  List.iter
    (fun e ->
      Format.fprintf fmt "%-24s %10d %10d %8d %7d %9.3f %9.4f %12.0f %8.1f@."
        e.Trajectory.name e.Trajectory.rounds e.Trajectory.messages
        e.Trajectory.max_bits e.Trajectory.phases e.Trajectory.seconds
        e.Trajectory.seconds_mad e.Trajectory.minor_words_per_node
        e.Trajectory.peak_heap_mb)
    entries;
  Format.fprintf fmt "@.environment: %a@." Workload.Stats.pp_fingerprint
    (Lazy.force fingerprint);
  let line =
    Trajectory.snapshot_json
      ~fingerprint:(Lazy.force fingerprint)
      ~time:(Unix.time ()) entries
  in
  let prev = read_trajectory () in
  Trajectory.write trajectory_path (prev @ [ line ]);
  Format.fprintf fmt "appended snapshot %d to %s@."
    (List.length prev + 1)
    trajectory_path;
  (match List.rev prev with
  | last :: _ ->
      let verdict = compare_snapshots ~old_line:last ~new_line:line in
      Format.fprintf fmt "%s@." (Trajectory.verdict_line verdict)
  | [] -> Format.fprintf fmt "first snapshot -- nothing to compare against@.")

(* ------------------------------------------------------------------ *)
(* B.DASHBOARD: the trajectory rendered as a self-contained HTML page   *)
(* ------------------------------------------------------------------ *)

let dashboard_path = "BENCH_dashboard.html"

let run_dashboard_only () =
  section "B.DASHBOARD -- trajectory sparkline dashboard";
  let lines = read_trajectory () in
  Workload.Dashboard.write ~path:dashboard_path lines;
  Format.fprintf fmt "%d snapshots rendered to %s@." (List.length lines)
    dashboard_path

(* ------------------------------------------------------------------ *)
(* B.SCALE: million-node CSR substrate end-to-end                       *)
(* ------------------------------------------------------------------ *)

(* n = 2^20 nodes, 2*10^7 edge samples: the scale SNIPPETS.md's LDD
   benchmarks run at, and ~3 orders of magnitude past the grid suite *)
let scale_n = 1 lsl 20
let scale_samples = 20_000_000

let run_scale_only () =
  section
    (Printf.sprintf
       "B.SCALE -- RMAT n=%d, %d edge samples: generate -> save -> \
        mmap-load -> decompose -> audit"
       scale_n scale_samples);
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let csr_path = Filename.concat results_dir "rmat1M.csr" in
  let spill_path = Filename.concat results_dir "rmat1M.trace" in
  (* the ~90 s pipeline used to run completely dark: a process-lifetime
     recorder now pulses phase/elapsed/peak-heap to stderr per stage *)
  let res = Resource.create () in
  let timed name f =
    Resource.heartbeat res name;
    let s0 = Unix.gettimeofday () in
    let x = f () in
    let dt = Unix.gettimeofday () -. s0 in
    Format.fprintf fmt "%-12s %8.2f s@." name dt;
    (x, dt)
  in
  let rng = Rng.create seed in
  let g, gen_s =
    timed "generate" (fun () -> Gen.rmat rng ~n:scale_n ~m:scale_samples)
  in
  Format.fprintf fmt "  n=%d m=%d maxdeg=%d@." (Graph.n g) (Graph.m g)
    (Graph.max_degree g);
  let (), save_s = timed "save_csr" (fun () -> Io.save_csr csr_path g) in
  (* drop the built graph: everything downstream runs off the mapping *)
  let g, load_s = timed "mmap_load" (fun () -> Io.load_csr csr_path) in
  (* a deliberately small in-memory buffer, so the run exercises the
     streaming spill path rather than fitting in RAM by accident *)
  let sink = Congest.Trace.sink ~capacity:4_096 ~spill:spill_path () in
  let cost = Congest.Cost.create ~trace:sink () in
  let algo = Algorithms.find_decomposer "greedy" in
  (* a second recorder windowed to the decomposition alone, so the scale
     row's resource columns cover the engine, not the generator *)
  let dec_res = Resource.create () in
  let dec, dec_s =
    timed "decompose" (fun () -> algo.Algorithms.run ~cost ~seed g)
  in
  let dec_tot = Resource.totals dec_res in
  let colors = Cluster.Decomposition.num_colors dec in
  let clusters =
    Cluster.Clustering.num_clusters (Cluster.Decomposition.clustering dec)
  in
  let phases = List.length (Congest.Span.rollups sink) in
  Format.fprintf fmt
    "  colors=%d clusters=%d rounds=%d messages=%d spilled_events=%d@."
    colors clusters (Congest.Cost.rounds cost) (Congest.Cost.messages cost)
    (Congest.Trace.spilled sink);
  let audit, cert_s = timed "certify" (fun () -> Audit.certify_decomposition dec) in
  let verdict, verify_s = timed "verify" (fun () -> Audit.verify g audit) in
  (match verdict with
  | Ok () -> Format.fprintf fmt "@.audit: PASS@."
  | Error e -> Format.fprintf fmt "@.audit: FAIL (%s)@." e);
  (* the scale row rides the same snapshot machinery as 'record' *)
  let entry =
    {
      Trajectory.name = "scale/rmat1M";
      rounds = Congest.Cost.rounds cost;
      messages = Congest.Cost.messages cost;
      max_bits = Congest.Cost.max_message_bits cost;
      phases;
      seconds = dec_s;
      seconds_mad = 0.0;
      minor_words_per_node =
        dec_tot.Resource.t_minor_words /. float_of_int scale_n;
      peak_heap_mb = Resource.peak_heap_mb dec_tot;
    }
  in
  let line =
    Trajectory.snapshot_json
      ~fingerprint:(Lazy.force fingerprint)
      ~time:(Unix.time ()) [ entry ]
  in
  let prev = read_trajectory () in
  Trajectory.write trajectory_path (prev @ [ line ]);
  Format.fprintf fmt "appended scale snapshot %d to %s@."
    (List.length prev + 1)
    trajectory_path;
  (match List.rev prev with
  | last :: _ -> ignore (compare_snapshots ~old_line:last ~new_line:line)
  | [] -> ());
  write_csv ~file:"scale.csv" ~header:"metric,value"
    (List.map
       (fun (k, v) -> k ^ "," ^ v)
       [
      ("n", string_of_int (Graph.n g));
      ("m", string_of_int (Graph.m g));
      ("colors", string_of_int colors);
      ("clusters", string_of_int clusters);
      ("rounds", string_of_int (Congest.Cost.rounds cost));
      ("messages", string_of_int (Congest.Cost.messages cost));
      ("spilled_events", string_of_int (Congest.Trace.spilled sink));
      ("audit", match verdict with Ok () -> "pass" | Error _ -> "fail");
      ("generate_seconds", Printf.sprintf "%.3f" gen_s);
      ("save_seconds", Printf.sprintf "%.3f" save_s);
      ("mmap_load_seconds", Printf.sprintf "%.3f" load_s);
      ("decompose_seconds", Printf.sprintf "%.3f" dec_s);
      ("certify_seconds", Printf.sprintf "%.3f" cert_s);
      ("verify_seconds", Printf.sprintf "%.3f" verify_s);
       ]);
  (* the spill and the 170 MB graph image are scratch, not artifacts *)
  Congest.Trace.clear sink;
  if Sys.file_exists csr_path then Sys.remove csr_path;
  Resource.heartbeat res "done";
  verdict = Ok ()

(* ------------------------------------------------------------------ *)
(* B.ANALYZE: whole-tree static analysis wall-clock                     *)
(* ------------------------------------------------------------------ *)

(* times tools/analyze over every .cmt dune produced for lib/bench/bin
   and rides the same trajectory machinery as 'record', so the >10%
   comparator guards the analyzer's cost the way it guards the
   algorithms' *)
let run_analyze_only () =
  let t0 = Unix.gettimeofday () in
  section
    "B.ANALYZE -- typed whole-program analysis (domain-safety + [@hot] \
     allocations) over the built tree";
  let roots =
    [ "_build/default/lib"; "_build/default/bench"; "_build/default/bin" ]
  in
  let cmts = List.length (Analyze_core.cmt_paths roots) in
  if cmts = 0 then
    Format.fprintf fmt
      "no .cmt files under %s -- run `dune build @@check` first; nothing \
       to time@."
    (String.concat ", " roots)
  else begin
    let res = Resource.create () in
    let minor0 = Gc.minor_words () in
    let result = Analyze_core.analyze roots in
    let seconds = Unix.gettimeofday () -. t0 in
    let minor_words = Gc.minor_words () -. minor0 in
    let tot = Resource.totals res in
    let shared =
      List.length
        (List.filter
           (fun e -> e.Analyze_core.e_class = Analyze_core.Shared)
           result.Analyze_core.r_entries)
    in
    let findings = List.length result.Analyze_core.r_findings in
    Format.fprintf fmt
      "%d cmts, %d units, %d mutable values (%d shared), %d [@@hot] \
       functions, %d findings in %.3f s@."
      cmts result.Analyze_core.r_units
      (List.length result.Analyze_core.r_entries)
      shared
      (List.length result.Analyze_core.r_hots)
      findings seconds;
    let entry =
      {
        Trajectory.name = "analyze/tree";
        rounds = result.Analyze_core.r_units;
        messages = List.length result.Analyze_core.r_entries;
        max_bits = shared;
        phases = findings;
        seconds;
        seconds_mad = 0.0;
        minor_words_per_node =
          minor_words /. float_of_int (max 1 result.Analyze_core.r_units);
        peak_heap_mb = Resource.peak_heap_mb tot;
      }
    in
    let line =
      Trajectory.snapshot_json
        ~fingerprint:(Lazy.force fingerprint)
        ~time:(Unix.time ()) [ entry ]
    in
    let prev = read_trajectory () in
    Trajectory.write trajectory_path (prev @ [ line ]);
    Format.fprintf fmt "appended analyze snapshot %d to %s@."
      (List.length prev + 1)
      trajectory_path;
    (match List.rev prev with
    | last :: _ -> ignore (compare_snapshots ~old_line:last ~new_line:line)
    | [] -> ());
    write_csv ~file:"analyze.csv" ~header:"metric,value"
      (List.map
         (fun (k, v) -> k ^ "," ^ v)
         [
           ("cmts", string_of_int cmts);
           ("units", string_of_int result.Analyze_core.r_units);
           ( "mutable_values",
             string_of_int (List.length result.Analyze_core.r_entries) );
           ("shared", string_of_int shared);
           ( "hot_functions",
             string_of_int (List.length result.Analyze_core.r_hots) );
           ("findings", string_of_int findings);
           ("seconds", Printf.sprintf "%.3f" seconds);
         ])
  end

(* ------------------------------------------------------------------ *)

let run_faults_only () =
  write_result "faults.csv" (Workload.Faults.csv (faults_experiment ()))

let run_standard () =
  let rows1 = table1 () in
  headline rows1;
  let rows2 = table2 () in
  shape_check rows2;
  messages_experiment ();
  barrier_experiment ();
  lemma31_experiment ();
  apps_experiment ();
  sim_experiment ();
  ablation_presets ();
  ablation_epsilon_split ();
  ablation_colors_vs_eps ();
  ablation_apps_extra ();
  bechamel_suite ();
  write_result "table1.csv" (Workload.Measure.decomp_csv rows1);
  write_result "table2.csv" (Workload.Measure.carve_csv rows2)

(* every mode but chaos and scale always succeeds; those two exit 1 on
   an invariant violation, a missed headline or a failed audit *)
let () =
  Format.fprintf fmt
    "strongdecomp benchmark harness -- reproduction of Chang & Ghaffari, \
     PODC 2021@.mode: %s (pass 'full' for the n=16384 sweep, 'quick' for a \
     smoke test,@.'faults' for the graceful-degradation sweep only, 'trace' \
     for the observability@.overhead experiments only, 'conform' for the \
     verifier-overhead experiment@.only, 'causal' for the critical-path \
     analyzer replay cost, 'chaos' for the@.self-healing sweep and the \
     repair-cost headline, 'record' to append@.a headline snapshot to the \
     persistent BENCH_trajectory.json, 'scale'@.for the million-node CSR \
     end-to-end smoke, 'resource' for the@.resource-recorder overhead \
     experiment, 'analyze' for the whole-tree@.static-analysis timing, \
     'dashboard' to render BENCH_trajectory.json to@.BENCH_dashboard.html; \
     a second word 'quick' shrinks trace, conform,@.causal, resource and \
     chaos to smoke size)@."
    ((match mode with
     | `Quick -> "quick"
     | `Standard -> "standard"
     | `Full -> "full"
     | `Faults -> "faults"
     | `Trace -> "trace"
     | `Conform -> "conform"
     | `Causal -> "causal"
     | `Chaos -> "chaos"
     | `Record -> "record"
     | `Scale -> "scale"
     | `Resource -> "resource"
     | `Analyze -> "analyze"
     | `Dashboard -> "dashboard")
    ^ if quick then " (quick)" else "");
  let t0 = Unix.gettimeofday () in
  let ok =
    match mode with
    | `Chaos -> run_chaos_only ()
    | `Scale -> run_scale_only ()
    | `Faults -> run_faults_only (); true
    | `Trace ->
        run_overhead (trace_table ());
        run_overhead (span_table ());
        trace_artifacts ();
        true
    | `Conform -> run_overhead (conform_table ()); true
    | `Causal -> run_causal (); true
    | `Record -> run_record_only (); true
    | `Resource -> run_overhead (resource_table ()); true
    | `Analyze -> run_analyze_only (); true
    | `Dashboard -> run_dashboard_only (); true
    | `Quick | `Standard | `Full -> run_standard (); true
  in
  Format.fprintf fmt "@.total benchmark time: %.1f s@."
    (Unix.gettimeofday () -. t0);
  if not ok then exit 1
