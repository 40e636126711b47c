(* sdbench: end-to-end benchmark of the decomposition stack.

   One process runs one workload. Set-up (generate the graph, save it as
   a CSR image) runs a few times; then jobs run back to back for
   [--seconds], each followed by one more timed set-up. A job is one
   certified decomposition: load the graph, run the algorithm, run every
   check the repository offers for its output, and compare the output's
   logical digest with the expected one. The last stdout line is a JSON
   summary that sdbench/run.py turns into the benchmark result; run.py
   also owns process isolation and peak memory.

     main.exe --workload sim_grid --seed 1 --seconds 10 --trace 0 --out DIR
     main.exe --self-test

   With [--trace 1] jobs alternate between untraced and traced. Traced
   jobs open spans around every call into a library layer, record the Gc
   deltas of each call, and write the spans to DIR/spans_<workload>.jsonl
   when the run ends. *)

open Dsgraph

let now = Unix.gettimeofday
let epsilon = 0.5
let default_seed = 1

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  parent : int;  (** [-1] at top level *)
  job : int;  (** [-1] during set-up *)
  name : string;
  t0 : float;
  t1 : float;
  minor_w : float;
  major_w : float;
  major_gcs : int;
}

(* Owned by one run and threaded through it; spans are newest first. *)
type tracer = {
  mutable spans : span list;
  mutable next_id : int;
  mutable open_id : int;
  mutable job_id : int;
}

let new_tracer () = { spans = []; next_id = 0; open_id = -1; job_id = -1 }

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent = t.open_id in
      t.open_id <- id;
      (* quick_stat's minor count moves only at minor collections *)
      let s0 = Gc.quick_stat () and mi0 = Gc.minor_words () in
      let t0 = now () in
      let close () =
        let t1 = now () in
        let s1 = Gc.quick_stat () and mi1 = Gc.minor_words () in
        t.open_id <- parent;
        t.spans <-
          {
            id;
            parent;
            job = t.job_id;
            name;
            t0;
            t1;
            minor_w = mi1 -. mi0;
            major_w = s1.Gc.major_words -. s0.Gc.major_words;
            major_gcs = s1.Gc.major_collections - s0.Gc.major_collections;
          }
          :: t.spans
      in
      Fun.protect ~finally:close f

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Deliberate corruption, used only by the self-test to prove that the
   failure accounting catches each kind of bad job. *)
type tamper = Clean | Bad_digest | Bad_cert | Raise

type outcome = {
  digest : string;
  checks : (string * (unit, string) result) list;
  decompose_s : float;
  counters : (string * float) list;  (** logical per-layer counts *)
}

type workload = {
  name : string;
  seeded : bool;  (** the output depends on [--seed] *)
  generate : seed:int -> Graph.t;
  job : tracer option -> tamper -> seed:int -> Graph.t -> outcome;
}

(* FNV-1a over the cluster labels, folded to 30 bits *)
let labels_hash c =
  let h = ref 0x811c9dc5 in
  for v = 0 to Graph.n (Cluster.Clustering.graph c) - 1 do
    h := (!h lxor (Cluster.Clustering.cluster_of c v + 2)) * 0x01000193
  done;
  !h land 0x3fffffff

let digest ~rounds ~messages ~max_bits ~colors ~clustering ~dead =
  Printf.sprintf
    "rounds=%d messages=%d max_bits=%d colors=%d clusters=%d dead=%d \
     labels=%08x"
    rounds messages max_bits colors
    (Cluster.Clustering.num_clusters clustering)
    dead (labels_hash clustering)

let cost_digest cost =
  digest ~rounds:(Congest.Cost.rounds cost)
    ~messages:(Congest.Cost.messages cost)
    ~max_bits:(Congest.Cost.max_message_bits cost)

(* certify, optionally corrupt, then re-verify against the raw graph; a
   strong algorithm must also get strong (induced) witnesses everywhere *)
let audit tr tamper g ~strong certify =
  let a : Workload.Audit.t = span tr "audit.certify" certify in
  let a =
    if tamper = Bad_cert then { a with dead = a.dead + 1 }
    else a
  in
  let verdict = span tr "audit.verify" (fun () -> Workload.Audit.verify g a) in
  let strong_ok =
    match
      List.find_opt (fun c -> not c.Workload.Audit.strong) a.certs
    with
    | Some c when strong ->
        Error (Printf.sprintf "cluster %d has no strong witness" c.cluster)
    | _ -> Ok ()
  in
  [ ("audit", verdict); ("strong_witnesses", strong_ok) ]

let sim_grid ~side =
  {
    name = "sim_grid";
    seeded = false;
    generate = (fun ~seed:_ -> Gen.grid side side);
    job =
      (fun tr tamper ~seed:_ g ->
        let r, decompose_s =
          timed (fun () ->
              span tr "weakdiam.distributed" (fun () ->
                  Weakdiam.Distributed.carve g ~epsilon))
        in
        let carving = r.Weakdiam.Distributed.carving in
        let matches =
          if Weakdiam.Distributed.matches_engine r then Ok ()
          else Error "simulated clustering differs from the engine's"
        in
        let weak =
          span tr "cluster.check" (fun () ->
              Cluster.Carving.check_weak ~epsilon carving)
        in
        (* the engine alone on the same arguments, in traced jobs only:
           congest.sim_s is distributed minus engine *)
        if tr <> None then
          ignore
            (span tr "weakdiam.engine" (fun () ->
                 Weakdiam.Weak_carving.carve g ~epsilon));
        let st = r.sim_stats in
        let node_rounds = st.rounds_used * Graph.n g in
        {
          digest =
            digest ~rounds:st.rounds_used ~messages:st.total_messages
              ~max_bits:st.max_bits_seen ~colors:0
              ~clustering:carving.clustering
              ~dead:(List.length (Cluster.Carving.dead carving));
          checks =
            [ ("matches_engine", matches); ("check_weak", weak) ]
            @ audit tr tamper g ~strong:false (fun () ->
                  Workload.Audit.certify_carving carving);
          decompose_s;
          counters =
            [
              ("congest.rounds", float_of_int st.rounds_used);
              ("congest.messages", float_of_int st.total_messages);
              ("congest.node_rounds", float_of_int node_rounds);
              ( "congest.msgs_per_node_round",
                float_of_int st.total_messages /. float_of_int node_rounds );
            ];
        });
  }

(* Two certified decompositions of one graph: the paper's strong carving
   and the greedy baseline (registry [greedy], seeded by [--seed]). The
   carving's exact strong-diameter check on the two dense cliques
   dominates; the greedy half puts Baseline, [Decomposition.check] and
   the decomposition audit on the same input. *)
let verify_barbell ~clique ~path =
  {
    name = "verify_barbell";
    seeded = true;
    generate = (fun ~seed:_ -> Gen.barbell clique path);
    job =
      (fun tr tamper ~seed g ->
        let cost = Congest.Cost.create () in
        let (carving, _), carve_s =
          timed (fun () ->
              span tr "strongdecomp.carve_improved" (fun () ->
                  Strongdecomp.Strong_carving.carve_improved ~cost g ~epsilon))
        in
        let strong =
          span tr "cluster.check" (fun () ->
              Cluster.Carving.check_strong ~epsilon carving)
        in
        let gcost = Congest.Cost.create () in
        let greedy = (Workload.Algorithms.find_decomposer "greedy").run in
        let d, greedy_s =
          timed (fun () ->
              span tr "baseline.greedy" (fun () -> greedy ~cost:gcost ~seed g))
        in
        let clustering = Cluster.Decomposition.clustering d in
        let check =
          span tr "cluster.check" (fun () -> Cluster.Decomposition.check d)
        in
        {
          digest =
            cost_digest cost ~colors:0 ~clustering:carving.clustering
              ~dead:(List.length (Cluster.Carving.dead carving))
            ^ " | "
            ^ cost_digest gcost
                ~colors:(Cluster.Decomposition.num_colors d)
                ~clustering
                ~dead:(List.length (Cluster.Clustering.unclustered clustering));
          checks =
            (("check_strong", strong)
             :: audit tr tamper g ~strong:true (fun () ->
                    Workload.Audit.certify_carving carving))
            @ ("decomposition_check", check)
              :: audit tr tamper g ~strong:true (fun () ->
                     Workload.Audit.certify_decomposition d);
          decompose_s = carve_s +. greedy_s;
          counters = [];
        });
  }

let workloads = [ sim_grid ~side:24; verify_barbell ~clique:400 ~path:100 ]

(* Logical digests of the full-size workloads: for every seed on the
   unseeded workloads, for [default_seed] on the seeded ones. *)
let expected =
  [
    ("sim_grid",
      "rounds=4096 messages=82185 max_bits=24 colors=0 clusters=12 dead=110 \
       labels=2099d66e");
    ("verify_barbell",
      "rounds=35192 messages=62352 max_bits=20 colors=0 clusters=3 dead=2 \
       labels=037d2857 | rounds=208 messages=951 max_bits=20 colors=2 \
       clusters=103 dead=0 labels=2e16edd6");
  ]

(* ------------------------------------------------------------------ *)
(* Running jobs                                                        *)
(* ------------------------------------------------------------------ *)

type verdict = Pass of outcome | Fail of string

(* [reference] holds the digest every job must reproduce: the committed
   one when known, else the first job's. *)
let attempt w tr tamper ~seed ~path ~reference =
  match
    let g = span tr "dsgraph.load_csr" (fun () -> Io.load_csr path) in
    if tamper = Raise then failwith "job raised on purpose";
    let o = w.job tr tamper ~seed g in
    if tamper = Bad_digest then { o with digest = o.digest ^ "~" } else o
  with
  | exception e -> Fail ("raised " ^ Printexc.to_string e)
  | o -> (
      match List.find_opt (fun (_, r) -> Result.is_error r) o.checks with
      | Some (name, Error e) -> Fail (Printf.sprintf "%s rejected: %s" name e)
      | _ -> (
          match !reference with
          | None ->
              reference := Some o.digest;
              Pass o
          | Some d when d = o.digest -> Pass o
          | Some d ->
              Fail (Printf.sprintf "digest %S, expected %S" o.digest d)))

let setup w tr ~seed ~path =
  let g = span tr "dsgraph.gen" (fun () -> w.generate ~seed) in
  span tr "dsgraph.save_csr" (fun () -> Io.save_csr path g)

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

(* the library calls each traced job or set-up wraps, in report order *)
let call_layers =
  [
    "dsgraph.gen";
    "dsgraph.save_csr";
    "dsgraph.load_csr";
    "weakdiam.distributed";
    "weakdiam.engine";
    "strongdecomp.carve_improved";
    "baseline.greedy";
    "cluster.check";
    "audit.certify";
    "audit.verify";
  ]

let setup_layers = [ "dsgraph.gen"; "dsgraph.save_csr" ]

(* Per-layer metrics of a traced run: for each call, the median over
   traced jobs (set-up repetitions for set-up calls) of its summed
   seconds and Gc deltas. *)
let layer_metrics spans ~traced_jobs =
  let sums name in_unit =
    List.fold_left
      (fun (s, mi, ma, gcs) (sp : span) ->
        if sp.name = name && in_unit sp then
          ( s +. (sp.t1 -. sp.t0),
            mi +. sp.minor_w,
            ma +. sp.major_w,
            gcs + sp.major_gcs )
        else (s, mi, ma, gcs))
      (0.0, 0.0, 0.0, 0) spans
  in
  List.concat_map
    (fun name ->
      let us =
        if List.mem name setup_layers then
          (* set-up spans are numbered in order, one of each per repetition *)
          let ids =
            List.filter_map
              (fun (sp : span) -> if sp.name = name then Some sp.id else None)
              spans
          in
          List.map (fun id -> sums name (fun sp -> sp.id = id)) ids
        else List.map (fun j -> sums name (fun sp -> sp.job = j)) traced_jobs
      in
      let med f = median (List.map f us) in
      [
        (name ^ "_s", med (fun (s, _, _, _) -> s));
        (name ^ ".minor_mw", med (fun (_, mi, _, _) -> mi /. 1e6));
        (name ^ ".major_mw", med (fun (_, _, ma, _) -> ma /. 1e6));
        (name ^ ".major_gcs", med (fun (_, _, _, g) -> float_of_int g));
      ])
    call_layers

(* self time: a span's duration minus the time its direct children cover *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      Hashtbl.replace children sp.parent
        ((sp.t1 -. sp.t0)
        +. Option.value (Hashtbl.find_opt children sp.parent) ~default:0.0))
    spans;
  List.map
    (fun sp ->
      ( sp,
        sp.t1 -. sp.t0
        -. Option.value (Hashtbl.find_opt children sp.id) ~default:0.0 ))
    spans

let write_spans path spans =
  let oc = open_out path in
  List.iter
    (fun sp ->
      output_string oc
        (json_obj
           [
             ("id", string_of_int sp.id);
             ("parent", string_of_int sp.parent);
             ("job", string_of_int sp.job);
             ("name", Printf.sprintf "%S" sp.name);
             ("start", json_float sp.t0);
             ("end", json_float sp.t1);
             ("minor_words", json_float sp.minor_w);
             ("major_words", json_float sp.major_w);
             ("major_gcs", string_of_int sp.major_gcs);
           ]);
      output_char oc '\n')
    (List.rev spans);
  close_out oc

(* ------------------------------------------------------------------ *)
(* A benchmark run                                                     *)
(* ------------------------------------------------------------------ *)

(* Set-up runs [min_setups] times before the first job, then once more
   after every job into a spare file, so the median set-up time samples
   the host over the whole window as the job times do. *)
let min_setups = 3
let min_jobs = 3

(* The host's speed drifts between states about 50 % apart that last
   from seconds to a minute, so per-job times are bimodal. A median over
   the window jumps between the states as their mix shifts; the mean
   (timed seconds over timed jobs) moves in proportion to the mix, and
   is the steadier figure across runs. The first [warmup] jobs are
   checked but not timed. *)
let warmup = 1

(* the traced run's report: per-layer metrics, layer shares of the
   traced job time (printed), and the spans file *)
let traced_report t w ~out ~traced_jobs ~plain ~traced ~counters =
  write_spans
    (Filename.concat out (Printf.sprintf "spans_%s.jsonl" w.name))
    t.spans;
  let selfs = self_times t.spans in
  let self_of name =
    List.fold_left
      (fun acc ((sp : span), s) ->
        if sp.name = name && sp.job >= 0 then acc +. s else acc)
      0.0 selfs
  in
  let job_total =
    List.fold_left
      (fun acc (sp : span) ->
        if sp.name = "job" then acc +. (sp.t1 -. sp.t0) else acc)
      0.0 t.spans
  in
  List.iter
    (fun name ->
      let self = self_of name in
      if self > 0.0 then
        Printf.printf "share %-28s %6.1f %% of traced job time\n" name
          (100.0 *. self /. job_total))
    ("job" :: call_layers);
  let m = layer_metrics t.spans ~traced_jobs in
  let get k = List.assoc k m in
  let count k = Option.value (List.assoc_opt k counters) ~default:0.0 in
  m
  @ [
      ( "congest.sim_s",
        get "weakdiam.distributed_s" -. get "weakdiam.engine_s" );
      ("congest.rounds", count "congest.rounds");
      ("congest.messages", count "congest.messages");
      ("congest.node_rounds", count "congest.node_rounds");
      ("congest.msgs_per_node_round", count "congest.msgs_per_node_round");
      ("trace.overhead_frac", (mean traced /. mean plain) -. 1.0);
    ]

let run w ~seed ~seconds ~trace ~out =
  let tracer = if trace then Some (new_tracer ()) else None in
  let path = Filename.concat out (w.name ^ ".csr") in
  let spare = Filename.concat out (w.name ^ ".setup.csr") in
  let setup_s =
    ref
      (List.init min_setups (fun _ ->
           let (), s = timed (fun () -> setup w tracer ~seed ~path) in
           Gc.compact ();
           s))
  in
  let reference =
    ref
      (if w.seeded && seed <> default_seed then None
       else List.assoc_opt w.name expected)
  in
  let attempted = ref 0 and failed = ref 0 in
  let plain = ref [] and traced = ref [] and decompose = ref [] in
  let traced_jobs = ref [] and counters = ref [] and gc_s = ref [] in
  let deadline = now () +. seconds in
  (* in a traced run, even jobs are untraced and odd jobs traced *)
  let need = warmup + if trace then 2 * min_jobs else min_jobs in
  (* start a job only if a typical one and its set-up still end inside
     the window *)
  let fits () =
    now () +. median (!plain @ !traced) +. median !setup_s +. median !gc_s
    < deadline
  in
  while !attempted < need || fits () do
    let i = !attempted in
    let tr = if trace && i mod 2 = 1 then tracer else None in
    Option.iter
      (fun t ->
        t.job_id <- i;
        traced_jobs := i :: !traced_jobs)
      tr;
    let verdict, job_s =
      timed (fun () ->
          span tr "job" (fun () -> attempt w tr Clean ~seed ~path ~reference))
    in
    incr attempted;
    (match verdict with
    | Pass o ->
        if i >= warmup then begin
          let times = if tr = None then plain else traced in
          times := job_s :: !times;
          decompose := o.decompose_s :: !decompose
        end;
        counters := o.counters;
        Printf.printf "job %d ok %.4f s (decompose %.4f s)\n%!" i job_s
          o.decompose_s
    | Fail e ->
        incr failed;
        Printf.printf "job %d FAIL %s\n%!" i e);
    let (), s = timed (fun () -> setup w None ~seed ~path:spare) in
    setup_s := s :: !setup_s;
    let (), s = timed Gc.full_major in
    gc_s := s :: !gc_s
  done;
  Sys.remove path;
  Sys.remove spare;
  let metrics =
    match tracer with
    | None ->
        [
          ("setup_s", median !setup_s);
          ("job_s", mean !plain);
          ("decompose_s", mean !decompose);
        ]
    | Some t ->
        traced_report t w ~out ~traced_jobs:!traced_jobs ~plain:!plain
          ~traced:!traced ~counters:!counters
  in
  print_endline
    (json_obj
       [
         ("workload", Printf.sprintf "%S" w.name);
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
         ( "metrics",
           json_obj (List.map (fun (k, v) -> (k, json_float v)) metrics) );
       ]);
  !failed = 0

(* ------------------------------------------------------------------ *)
(* Self-test: every kind of bad job must be counted as failed          *)
(* ------------------------------------------------------------------ *)

let self_test ~out =
  let small =
    [
      sim_grid ~side:6;
      verify_barbell ~clique:12 ~path:3;
    ]
  in
  let ok = ref true in
  List.iter
    (fun w ->
      let path = Filename.concat out (w.name ^ "_selftest.csr") in
      setup w None ~seed:default_seed ~path;
      let reference = ref None in
      let expect tamper want =
        let got =
          match attempt w None tamper ~seed:default_seed ~path ~reference with
          | Pass _ -> "pass"
          | Fail _ -> "fail"
        in
        Printf.printf "self-test %-15s %-10s %s\n" w.name
          (match tamper with
          | Clean -> "clean"
          | Bad_digest -> "bad-digest"
          | Bad_cert -> "bad-cert"
          | Raise -> "raise")
          (if got = want then "ok" else "WRONG: " ^ got);
        if got <> want then ok := false
      in
      expect Clean "pass";
      expect Bad_digest "fail";
      expect Bad_cert "fail";
      expect Raise "fail";
      expect Clean "pass";
      Sys.remove path)
    small;
  !ok

let main () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "." and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run");
      ("--seed", Arg.Set_int seed, "N  seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S  length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1  traced run");
      ("--out", Arg.Set_string out, "DIR  directory for graphs and spans");
      ("--self-test", Arg.Set selftest, " check the failure accounting");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]";
  if !selftest then exit (if self_test ~out:!out then 0 else 1);
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some w ->
      exit
        (if run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
         then 0
         else 1)

let () = main ()
