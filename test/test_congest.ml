open Dsgraph
module Sim = Congest.Sim
module Bits = Congest.Bits
module Cost = Congest.Cost
module Programs = Congest.Programs

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Bits                                                                 *)
(* ------------------------------------------------------------------ *)

let test_int_bits () =
  check int "0" 1 (Bits.int_bits 0);
  check int "1" 1 (Bits.int_bits 1);
  check int "2" 2 (Bits.int_bits 2);
  check int "255" 8 (Bits.int_bits 255);
  check int "256" 9 (Bits.int_bits 256)

let test_id_bits () =
  check int "n=1" 1 (Bits.id_bits ~n:1);
  check int "n=2" 1 (Bits.id_bits ~n:2);
  check int "n=1024" 10 (Bits.id_bits ~n:1024);
  check int "n=1025" 11 (Bits.id_bits ~n:1025)

(* ------------------------------------------------------------------ *)
(* Cost meter                                                           *)
(* ------------------------------------------------------------------ *)

let test_cost_accumulates () =
  let c = Cost.create () in
  Cost.charge c ~rounds:3 ~messages:10 ~max_bits:16 "a";
  Cost.charge c ~rounds:2 ~messages:5 ~max_bits:8 "b";
  Cost.charge c "a";
  check int "rounds" 6 (Cost.rounds c);
  check int "messages" 15 (Cost.messages c);
  check int "max bits" 16 (Cost.max_message_bits c);
  Alcotest.(check (list (pair string int)))
    "breakdown" [ ("a", 4); ("b", 2) ] (Cost.breakdown c)

let test_cost_reset () =
  let c = Cost.create () in
  Cost.charge c ~rounds:3 "x";
  Cost.reset c;
  check int "rounds" 0 (Cost.rounds c);
  check int "messages" 0 (Cost.messages c)

let test_cost_parallel () =
  let acc = Cost.create () in
  let mk r =
    let c = Cost.create () in
    Cost.charge c ~rounds:r ~messages:r "sub";
    c
  in
  Cost.parallel acc [ mk 5; mk 9; mk 2 ] "par";
  check int "max rounds" 9 (Cost.rounds acc);
  check int "sum messages" 16 (Cost.messages acc)

let test_cost_merge_max () =
  let acc = Cost.create () in
  Cost.charge acc ~rounds:5 ~messages:3 ~max_bits:10 "a";
  let other = Cost.create () in
  Cost.charge other ~rounds:2 ~messages:4 ~max_bits:12 "a";
  Cost.charge other ~rounds:1 "b";
  Cost.merge_max acc other;
  check int "rounds added" 8 (Cost.rounds acc);
  check int "messages added" 7 (Cost.messages acc);
  check int "max bits" 12 (Cost.max_message_bits acc);
  Alcotest.(check (list (pair string int)))
    "breakdown merged" [ ("a", 7); ("b", 1) ] (Cost.breakdown acc)

let test_cost_parallel_empty () =
  let acc = Cost.create () in
  Cost.parallel acc [] "nothing";
  check int "no rounds" 0 (Cost.rounds acc)

let test_cost_rejects_negative () =
  let c = Cost.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Cost.charge: negative charge") (fun () ->
      Cost.charge c ~rounds:(-1) "x")

(* ------------------------------------------------------------------ *)
(* Simulator                                                            *)
(* ------------------------------------------------------------------ *)

(* a one-round program where each node sends its id to all neighbors and
   records the max received *)
type gossip_state = { sent : bool; best : int }

let gossip_program g =
  {
    Sim.init = (fun ~node ~neighbors:_ -> { sent = false; best = node });
    round =
      (fun ~round:_ ~node ~state ~inbox ->
        let best = List.fold_left (fun acc (_, m) -> max acc m) state.best inbox in
        if not state.sent then
          let out =
            Array.to_list
              (Array.map (fun nb -> (nb, node)) (Graph.neighbors g node))
          in
          ({ sent = true; best }, out, Sim.Run)
        else ({ state with best }, [], Sim.Halt));
  }

let test_sim_delivers_messages () =
  let g = Gen.cycle 5 in
  let states, stats = Sim.simulate ~bits:(fun _ -> 3) g (gossip_program g) in
  check bool "halted" true stats.all_halted;
  check int "messages" 10 stats.total_messages;
  (* every node hears its two neighbors *)
  Array.iteri
    (fun v st ->
      let expected = max v (max ((v + 1) mod 5) ((v + 4) mod 5)) in
      check int "max of closed neighborhood" expected st.best)
    states

let test_sim_bandwidth_enforced () =
  let g = Gen.path 2 in
  let oversized =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~round:_ ~node:_ ~state:_ ~inbox:_ -> ((), [ (1, ()) ], Sim.Halt));
    }
  in
  Alcotest.check_raises "bandwidth"
    (Sim.Bandwidth_exceeded
       { node = 0; dst = 1; round = 1; bits = 9999; bandwidth = 10 })
    (fun () ->
      ignore
        (Sim.simulate
           ~config:Sim.Config.(default |> with_bandwidth 10)
           ~bits:(fun _ -> 9999)
           g oversized))

let test_sim_rejects_non_neighbor () =
  let g = Gen.path 3 in
  let bad =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~round:_ ~node ~state:_ ~inbox:_ ->
          if node = 0 then ((), [ (2, ()) ], Sim.Halt) else ((), [], Sim.Halt));
    }
  in
  Alcotest.check_raises "non neighbor"
    (Invalid_argument "Sim.simulate: node 0 sent to non-neighbor 2") (fun () ->
      ignore (Sim.simulate ~bits:(fun _ -> 1) g bad))

let test_sim_rejects_double_send () =
  let g = Gen.path 2 in
  let bad =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round =
        (fun ~round:_ ~node ~state:_ ~inbox:_ ->
          if node = 0 then ((), [ (1, ()); (1, ()) ], Sim.Halt)
          else ((), [], Sim.Halt));
    }
  in
  Alcotest.check_raises "double send"
    (Invalid_argument "Sim.simulate: node 0 sent twice to 1 in one round") (fun () ->
      ignore (Sim.simulate ~bits:(fun _ -> 1) g bad))

let test_sim_max_rounds_cutoff () =
  let g = Gen.path 2 in
  let forever =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> ());
      round = (fun ~round:_ ~node:_ ~state:_ ~inbox:_ -> ((), [], Sim.Run));
    }
  in
  let _, stats =
    Sim.simulate
      ~config:Sim.Config.(default |> with_max_rounds 7)
      ~bits:(fun _ -> 1)
      g forever
  in
  check int "cut off" 7 stats.rounds_used;
  check bool "not halted" false stats.all_halted

(* Node 0 sleeps until round 5, then messages node 1, which halted in
   round 1: each node is stepped only when due or when mail arrives. *)
let test_sim_steps_only_due_nodes () =
  let g = Gen.path 2 in
  let program =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> []);
      round =
        (fun ~round ~node ~state ~inbox:_ ->
          let state = round :: state in
          match (node, round) with
          | 0, 1 -> (state, [], Sim.Sleep_until 5)
          | 0, 5 -> (state, [ (1, ()) ], Sim.Halt)
          | _ -> (state, [], Sim.Halt));
    }
  in
  let states, stats = Sim.simulate ~bits:(fun _ -> 1) g program in
  Alcotest.(check (list int)) "node 0 stepped at 1 and 5" [ 5; 1 ] states.(0);
  Alcotest.(check (list int)) "node 1 woken by mail at 6" [ 6; 1 ] states.(1);
  check int "rounds" 6 stats.rounds_used;
  check int "node steps" 4 stats.node_steps;
  check bool "halted" true stats.all_halted

(* a sleep deadline at or before the current round means the next one *)
let test_sim_past_sleep_is_run () =
  let g = Gen.path 2 in
  let program =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> 0);
      round =
        (fun ~round ~node:_ ~state ~inbox:_ ->
          if round < 3 then (state + 1, [], Sim.Sleep_until 1)
          else (state + 1, [], Sim.Halt));
    }
  in
  let states, stats = Sim.simulate ~bits:(fun _ -> 1) g program in
  check int "stepped every round" 3 states.(0);
  check int "node steps" 6 stats.node_steps

(* crash and revive rounds are wake-ups: a halted node is visited when it
   crashes (for the Node_crashed event) and stepped again on revival *)
let test_sim_crash_revive_wakeups () =
  let g = Gen.path 3 in
  let program =
    {
      Sim.init = (fun ~node:_ ~neighbors:_ -> []);
      round =
        (fun ~round ~node ~state ~inbox:_ ->
          let state = round :: state in
          if node = 0 && round < 8 then (state, [], Sim.Run)
          else (state, [], Sim.Halt));
    }
  in
  let adv =
    Congest.Fault.create
      (Congest.Fault.spec ~crashes:[ (1, 3) ] ~revives:[ (1, 6) ] ())
  in
  let sink = Congest.Trace.sink () in
  let states, _ =
    Sim.simulate
      ~config:Sim.Config.(default |> with_adversary adv |> with_trace sink)
      ~bits:(fun _ -> 1) g program
  in
  Alcotest.(check (list int)) "node 1 stepped at 1 and on revival"
    [ 6; 1 ] states.(1);
  Alcotest.(check (list int)) "node 2 stepped once" [ 1 ] states.(2);
  let crashes =
    List.filter_map
      (function
        | Congest.Trace.Node_crashed { round; node } -> Some (round, node)
        | _ -> None)
      (Congest.Trace.events sink)
  in
  Alcotest.(check (list (pair int int))) "crash event" [ (3, 1) ] crashes

(* Golden traces of the classic programs, recorded from the dense
   simulator (every node stepped every round). *)
let test_golden_program_traces () =
  let g = Gen.grid 8 8 in
  let md5 sink = Digest.to_hex (Digest.string (Congest.Trace.to_jsonl sink)) in
  let sink () = Congest.Trace.sink ~capacity:50_000_000 () in
  let s1 = sink () in
  let _, st1 = Programs.leader_election ~trace:s1 g in
  let s2 = sink () in
  let (_, parent), st2 = Programs.bfs ~trace:s2 g ~source:0 in
  let s3 = sink () in
  let _, st3 = Programs.subtree_counts ~trace:s3 g ~parent in
  List.iter
    (fun (name, s, (st : Sim.stats), digest, messages) ->
      check int (name ^ " rounds") 16 st.rounds_used;
      check int (name ^ " messages") messages st.total_messages;
      check Alcotest.string (name ^ " trace md5") digest (md5 s))
    [
      ("leader", s1, st1, "0bc1d63dc3544f1286b3efa0939ef599", 1792);
      ("bfs", s2, st2, "c3c3dfef152ad4d0634a06da7fd5b8d6", 224);
      ("subtree", s3, st3, "68b2e668de44218785f7fa6dc8f2d832", 126);
    ]

(* BFS breaks ties by inbox order, so under an adversary that drops,
   duplicates (copy delays 0..3) and delays messages, and crashes and
   revives a node, the parent array and the trace pin the order in which
   the simulator delivers next-round messages and delayed copies. *)
let test_golden_adversarial_bfs () =
  let adversary =
    Congest.Fault.create
      (Congest.Fault.spec ~seed:11 ~drop:0.1 ~duplicate:0.15 ~delay:0.2
         ~delay_window:3 ~crashes:[ (9, 2) ] ~revives:[ (9, 5) ] ())
  in
  let sink = Congest.Trace.sink ~capacity:50_000_000 () in
  let (_, parent), st =
    Programs.bfs ~adversary ~trace:sink (Gen.grid 8 8) ~source:0
  in
  check int "rounds" 19 st.Sim.rounds_used;
  check int "messages" 224 st.Sim.total_messages;
  check int "dropped" 16 st.Sim.faults.dropped;
  check int "duplicated" 34 st.Sim.faults.duplicated;
  check int "delayed" 56 st.Sim.faults.delayed;
  check (Alcotest.array int) "parent"
    [| 0; 0; 1; 2; 3; 4; 5; 6; 0; 10; 18; 10; 20; 12; 22; 14; 8; 16; 17; 18;
       19; 20; 21; 22; 16; 17; 18; 19; 20; 21; 29; 23; 24; 25; 26; 34; 28; 36;
       37; 31; 32; 33; 34; 35; 36; 37; 38; 39; 40; 50; 42; 43; 44; 45; 53; 47;
       48; 49; 50; 51; 52; 60; 61; 62 |]
    parent;
  check Alcotest.string "trace md5" "d4a6a9f3a1edc784c0333f8ce0025d5a"
    (Digest.to_hex (Digest.string (Congest.Trace.to_jsonl sink)))

(* ------------------------------------------------------------------ *)
(* Classic programs                                                     *)
(* ------------------------------------------------------------------ *)

let test_leader_election_connected () =
  let g = Gen.ensure_connected (Rng.create 2) (Gen.erdos_renyi (Rng.create 1) 40 0.08) in
  let leaders, stats = Programs.leader_election g in
  check bool "halted" true stats.all_halted;
  Array.iter (fun l -> check int "leader is min id" 0 l) leaders

let test_leader_election_per_component () =
  let g = Gen.disjoint_union (Gen.cycle 4) (Gen.path 3) in
  let leaders, _ = Programs.leader_election g in
  for v = 0 to 3 do
    check int "first comp" 0 leaders.(v)
  done;
  for v = 4 to 6 do
    check int "second comp" 4 leaders.(v)
  done

let test_leader_election_rounds_near_diameter () =
  let g = Gen.path 30 in
  let _, stats = Programs.leader_election g in
  (* min id is 0 at one end: needs ~29 rounds to flood, plus constant *)
  check bool "rounds lower" true (stats.rounds_used >= 29);
  check bool "rounds upper" true (stats.rounds_used <= 35)

let test_leader_election_message_size () =
  let g = Gen.grid 8 8 in
  let _, stats = Programs.leader_election g in
  check bool "messages are O(log n) bits" true
    (stats.max_bits_seen <= Bits.bandwidth ~n:(Graph.n g))

let test_bfs_program_matches_central () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 30 0.1) in
      let (dist, parent), stats = Programs.bfs g ~source:0 in
      check bool "halted" true stats.all_halted;
      let expected = Bfs.distances g ~source:0 in
      Alcotest.(check (array int)) "distances" expected dist;
      for v = 0 to Graph.n g - 1 do
        if v <> 0 && dist.(v) >= 0 then begin
          check bool "parent edge" true (Graph.is_edge g v parent.(v));
          check int "parent closer" (dist.(v) - 1) dist.(parent.(v))
        end
      done)
    [ 1; 2; 3 ]

let test_bfs_program_rounds_anchor_cost_model () =
  (* this anchors the Cost charging rule: a radius-r wave costs ~r rounds *)
  let g = Gen.path 20 in
  let (_, _), stats = Programs.bfs g ~source:0 in
  check bool "wave takes ecc + O(1) rounds" true
    (stats.rounds_used >= 19 && stats.rounds_used <= 24)

let test_subtree_counts_path () =
  let g = Gen.path 5 in
  let parent = [| 0; 0; 1; 2; 3 |] in
  let counts, stats = Programs.subtree_counts g ~parent in
  check bool "halted" true stats.all_halted;
  Alcotest.(check (array int)) "counts" [| 5; 4; 3; 2; 1 |] counts

let test_subtree_counts_bfs_tree () =
  let rng = Rng.create 4 in
  let g = Gen.ensure_connected rng (Gen.erdos_renyi rng 25 0.12) in
  let parent = Bfs.parents g ~source:0 in
  let counts, _ = Programs.subtree_counts g ~parent in
  check int "root counts all" (Graph.n g) counts.(0)

let test_subtree_counts_skips_non_tree_nodes () =
  let g = Gen.path 4 in
  let parent = [| 0; 0; -1; -1 |] in
  let counts, _ = Programs.subtree_counts g ~parent in
  check int "root" 2 counts.(0);
  check int "outside untouched" 1 counts.(2)

let test_cost_max_bits_tracks_max () =
  let c = Cost.create () in
  Cost.charge c ~max_bits:4 "a";
  check int "first charge sets it" 4 (Cost.max_message_bits c);
  Cost.charge c ~max_bits:2 "a";
  check int "smaller charge ignored" 4 (Cost.max_message_bits c);
  Cost.charge c ~max_bits:9 "b";
  check int "larger charge raises it" 9 (Cost.max_message_bits c);
  check int "rounds default to 1 each" 3 (Cost.rounds c);
  check int "messages default to 0" 0 (Cost.messages c)

(* ------------------------------------------------------------------ *)
(* Property: simulator BFS = sequential BFS                             *)
(* ------------------------------------------------------------------ *)

let prop_sim_bfs =
  QCheck.Test.make ~name:"simulated BFS equals sequential BFS" ~count:25
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 2 30)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.ensure_connected rng (Gen.erdos_renyi rng n 0.15) in
      let src = seed mod n in
      let (dist, _), _ = Programs.bfs g ~source:src in
      dist = Bfs.distances g ~source:src)

let prop_leader_min =
  QCheck.Test.make ~name:"leader election finds component minimum" ~count:25
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 2 30)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.erdos_renyi rng n 0.1 in
      let leaders, _ = Programs.leader_election g in
      let ids, _ = Components.component_ids g in
      let mins = Hashtbl.create 8 in
      List.iter
        (fun v ->
          let c = ids.(v) in
          let cur = Option.value ~default:max_int (Hashtbl.find_opt mins c) in
          Hashtbl.replace mins c (min cur v))
        (Graph.nodes g);
      List.for_all
        (fun v -> leaders.(v) = Hashtbl.find mins ids.(v))
        (Graph.nodes g))

(* a Cost meter charged from each program's Sim stats reproduces the
   simulator's own accounting — the anchoring claim of DESIGN.md §5 *)
let prop_cost_matches_sim =
  QCheck.Test.make
    ~name:"Cost meter charged from Sim stats agrees with the simulator"
    ~count:25
    (QCheck.make
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d n=%d" s n)
       QCheck.Gen.(pair (int_bound 10_000) (int_range 2 30)))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Gen.ensure_connected rng (Gen.erdos_renyi rng n 0.15) in
      let c = Cost.create () in
      let charge tag (stats : Sim.stats) =
        Cost.charge c ~rounds:stats.Sim.rounds_used
          ~messages:stats.Sim.total_messages ~max_bits:stats.Sim.max_bits_seen
          tag
      in
      let leaders, s1 = Programs.leader_election g in
      charge "leader" s1;
      let (_, parent), s2 = Programs.bfs g ~source:leaders.(0) in
      charge "bfs" s2;
      let _, s3 = Programs.subtree_counts g ~parent in
      charge "convergecast" s3;
      Cost.rounds c
      = s1.Sim.rounds_used + s2.Sim.rounds_used + s3.Sim.rounds_used
      && Cost.messages c
         = s1.Sim.total_messages + s2.Sim.total_messages + s3.Sim.total_messages
      && Cost.max_message_bits c
         = max s1.Sim.max_bits_seen
             (max s2.Sim.max_bits_seen s3.Sim.max_bits_seen)
      && Cost.breakdown c
         = [
             ("bfs", s2.Sim.rounds_used);
             ("convergecast", s3.Sim.rounds_used);
             ("leader", s1.Sim.rounds_used);
           ])

let () =
  Alcotest.run "congest"
    [
      ( "bits",
        [
          Alcotest.test_case "int_bits" `Quick test_int_bits;
          Alcotest.test_case "id_bits" `Quick test_id_bits;
        ] );
      ( "cost",
        [
          Alcotest.test_case "accumulates" `Quick test_cost_accumulates;
          Alcotest.test_case "reset" `Quick test_cost_reset;
          Alcotest.test_case "parallel" `Quick test_cost_parallel;
          Alcotest.test_case "merge max" `Quick test_cost_merge_max;
          Alcotest.test_case "parallel empty" `Quick test_cost_parallel_empty;
          Alcotest.test_case "rejects negative" `Quick
            test_cost_rejects_negative;
          Alcotest.test_case "max bits tracks max" `Quick
            test_cost_max_bits_tracks_max;
        ] );
      ( "sim",
        [
          Alcotest.test_case "delivers messages" `Quick
            test_sim_delivers_messages;
          Alcotest.test_case "bandwidth enforced" `Quick
            test_sim_bandwidth_enforced;
          Alcotest.test_case "rejects non-neighbor" `Quick
            test_sim_rejects_non_neighbor;
          Alcotest.test_case "rejects double send" `Quick
            test_sim_rejects_double_send;
          Alcotest.test_case "max rounds cutoff" `Quick
            test_sim_max_rounds_cutoff;
          Alcotest.test_case "steps only due nodes" `Quick
            test_sim_steps_only_due_nodes;
          Alcotest.test_case "past sleep is run" `Quick
            test_sim_past_sleep_is_run;
          Alcotest.test_case "crash and revive wake-ups" `Quick
            test_sim_crash_revive_wakeups;
          Alcotest.test_case "golden program traces" `Quick
            test_golden_program_traces;
          Alcotest.test_case "golden adversarial bfs" `Quick
            test_golden_adversarial_bfs;
        ] );
      ( "programs",
        [
          Alcotest.test_case "leader election" `Quick
            test_leader_election_connected;
          Alcotest.test_case "leader per component" `Quick
            test_leader_election_per_component;
          Alcotest.test_case "leader rounds ~ diameter" `Quick
            test_leader_election_rounds_near_diameter;
          Alcotest.test_case "leader message size" `Quick
            test_leader_election_message_size;
          Alcotest.test_case "bfs matches central" `Quick
            test_bfs_program_matches_central;
          Alcotest.test_case "bfs rounds anchor cost model" `Quick
            test_bfs_program_rounds_anchor_cost_model;
          Alcotest.test_case "subtree counts path" `Quick
            test_subtree_counts_path;
          Alcotest.test_case "subtree counts bfs tree" `Quick
            test_subtree_counts_bfs_tree;
          Alcotest.test_case "subtree counts skip" `Quick
            test_subtree_counts_skips_non_tree_nodes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sim_bfs; prop_leader_min; prop_cost_matches_sim ] );
    ]
