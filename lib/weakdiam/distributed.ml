open Dsgraph

type result = {
  carving : Cluster.Carving.t;
  sim_stats : Congest.Sim.stats;
  step_budget : int;
  total_steps : int;
  engine : Weak_carving.result;
}

type msg =
  | Propose
  | Count_up of int * int (* cluster label, aggregated proposal count *)
  | Depart_up of int * int (* cluster label, departures (forwarded up) *)
  | Decide of int * bool (* cluster label, grow? *)
  | Accepted of int (* your proposal to this cluster was accepted *)
  | Rejected (* your target stopped: die *)
  | Attach of int (* sender becomes my tree child for this cluster *)
  | Label_is of int
  | Died
  | Stopped of int

(* One Steiner tree this node belongs to, with this step's convergecast
   state (reset when a step starts). *)
type tree_entry = {
  cluster : int;
  parent : int;
  mutable children : int list;
  mutable reports : int; (* Count_up messages received this step *)
  mutable sum : int; (* proposals they carried *)
  mutable sent_up : bool; (* counted upward (decided, at the root) *)
  mutable proposers : int list;
      (* neighbours that proposed to this cluster while this node held
         its label, newest first *)
}

(* Per-node state on flat arrays indexed by neighbour slot: slot i is
   [nbrs.(i)], the neighbours in ascending id order.

   Two of the state's iteration orders are part of the output, because
   they decide the order of sends: trees are aggregated, and outgoing
   queues drained, in the iteration order of a [Hashtbl] keyed by the
   cluster label, respectively the neighbour id. [tree_tbl] and
   [out_tbl] are kept only as the authority on that order. They are
   touched when a key is first inserted; [trees] and [out_order] cache
   their [Hashtbl.fold] order for the hot path ([out_order] is refreshed
   at the next drain, so a broadcast refolds once, not once per key). *)
type nstate = {
  id : int;
  mutable label : int; (* >= 0 cluster label, -2 dead *)
  nbrs : int array;
  nbr_label : int array; (* last label heard from each neighbour, -2 dead *)
  mutable stopped : int list; (* clusters stopped this phase *)
  tree_tbl : (int, tree_entry) Hashtbl.t;
  mutable trees : tree_entry array;
  (* root-side bookkeeping, meaningful when some cluster label = id *)
  mutable size : int;
  mutable joined : int;
  (* per-neighbour FIFO queues: one message per edge per round *)
  queues : msg Queue.t array;
  mutable queued : int; (* messages over all queues *)
  out_tbl : (int, int) Hashtbl.t; (* neighbour id -> slot *)
  mutable out_order : int array;
  mutable out_stale : bool; (* [out_tbl] gained a key since [out_order] *)
  listed : bool array; (* slot is a key of [out_tbl] *)
  mutable dirty : bool; (* aggregation inputs changed since the last pass *)
  mutable steps_left_in_phase : int;
  mutable phases_left : int list; (* step counts of the remaining phases *)
  mutable bit : int; (* current phase's bit *)
}

let is_red bit lbl = (lbl lsr bit) land 1 = 1

let fold_order tbl =
  Array.of_list (List.rev (Hashtbl.fold (fun _ v acc -> v :: acc) tbl []))

(* index of cluster [c] in [trees], or -1 *)
let rec tree_index trees c i =
  if i < 0 then -1
  else if trees.(i).cluster = c then i
  else tree_index trees c (i - 1)

let find_tree st c = tree_index st.trees c (Array.length st.trees - 1)

(* slot of neighbour [w] in the sorted [nbrs.(lo .. hi-1)], or -1 *)
let rec slot_search nbrs w lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = nbrs.(mid) in
    if x = w then mid
    else if x < w then slot_search nbrs w (mid + 1) hi
    else slot_search nbrs w lo mid

let slot_of st w = slot_search st.nbrs w 0 (Array.length st.nbrs)

let rec mem_int c = function [] -> false | x :: r -> x = c || mem_int c r

let add_tree st c ~parent =
  Hashtbl.replace st.tree_tbl c
    {
      cluster = c;
      parent;
      children = [];
      reports = 0;
      sum = 0;
      sent_up = false;
      proposers = [];
    };
  st.trees <- fold_order st.tree_tbl

let enqueue_slot st slot m =
  if not st.listed.(slot) then begin
    st.listed.(slot) <- true;
    Hashtbl.replace st.out_tbl st.nbrs.(slot) slot;
    st.out_stale <- true
  end;
  Queue.add m st.queues.(slot);
  st.queued <- st.queued + 1

let enqueue st nbr m = enqueue_slot st (slot_of st nbr) m

let rec enqueue_all st m = function
  | [] -> ()
  | w :: rest ->
      enqueue st w m;
      enqueue_all st m rest

let broadcast st m =
  for slot = 0 to Array.length st.nbrs - 1 do
    enqueue_slot st slot m
  done

(* pop one message per non-empty queue, in [out_order]; the list comes
   out in reverse of that order *)
let drain st =
  let out = ref [] in
  if st.out_stale then begin
    st.out_order <- fold_order st.out_tbl;
    st.out_stale <- false
  end;
  if st.queued > 0 then
    for i = 0 to Array.length st.out_order - 1 do
      let slot = st.out_order.(i) in
      let q = st.queues.(slot) in
      if not (Queue.is_empty q) then begin
        out := (st.nbrs.(slot), Queue.pop q) :: !out;
        st.queued <- st.queued - 1
      end
    done;
  !out

(* Everything needed to run the node program, shared by the fault-free
   and the reliable-transport entry points. *)
type built = {
  b_engine : Weak_carving.result;
  b_step_budget : int;
  b_total_steps : int;
  b_domain : Mask.t;
  b_program : (nstate, msg) Congest.Sim.program;
  b_bits : msg -> int;
  b_bandwidth : int;
  b_max_rounds : int;
}

let build ?(preset = Weak_carving.default_preset) ?domain g ~epsilon =
  let n = Graph.n g in
  let domain = match domain with Some d -> d | None -> Mask.full n in
  let engine = Weak_carving.carve ~preset ~domain g ~epsilon in
  let b = Congest.Bits.id_bits ~n in
  let id_bits = b in
  (* Step budget: proposals (2) + count convergecast (depth + queueing) +
     decide broadcast (same) + accept/join/departure traffic (same). A
     deployment would use the worst-case R and L bounds here. *)
  let step_budget =
    max 40 ((4 * (engine.Weak_carving.max_depth + engine.congestion + 6)) + 24)
  in
  let schedule = engine.Weak_carving.steps_per_phase in
  let total_steps = List.fold_left ( + ) 0 schedule in
  let threshold st =
    let rg20 = epsilon /. (2.0 *. float_of_int b) *. float_of_int st.size in
    let ggr21 = epsilon /. 2.0 *. float_of_int (max st.joined 1) in
    match preset with
    | Weak_carving.Rg20 -> rg20
    | Weak_carving.Ggr21 -> ggr21
    | Weak_carving.Hybrid -> Float.min rg20 ggr21
  in
  (* mark a cluster stopped; members announce it to their neighborhood *)
  let note_stopped st c =
    if not (mem_int c st.stopped) then begin
      st.stopped <- c :: st.stopped;
      if st.label = c then broadcast st (Stopped c)
    end
  in
  let depart st old =
    if old >= 0 then
      if old = st.id then st.size <- st.size - 1
      else
        let i = find_tree st old in
        (* members always hold a tree entry *)
        if i >= 0 then enqueue st st.trees.(i).parent (Depart_up (old, 1))
  in
  let handle_decide st c grow =
    let i = find_tree st c in
    if i >= 0 then enqueue_all st (Decide (c, grow)) st.trees.(i).children;
    if not grow then note_stopped st c;
    (* proposals exist only for a label this node held, hence a tree *)
    if i >= 0 then begin
      let e = st.trees.(i) in
      enqueue_all st (if grow then Accepted c else Rejected) e.proposers;
      e.proposers <- []
    end
  in
  let join st c contact =
    let old = st.label in
    depart st old;
    st.label <- c;
    if find_tree st c < 0 then begin
      add_tree st c ~parent:contact;
      enqueue st contact (Attach c)
    end;
    broadcast st (Label_is c)
  in
  let die st =
    depart st st.label;
    st.label <- -2;
    broadcast st Died
  in
  let set_nbr_label st w l =
    let slot = slot_of st w in
    if slot >= 0 then st.nbr_label.(slot) <- l
  in
  let process st sender m =
    match m with
    | Label_is l -> set_nbr_label st sender l
    | Died -> set_nbr_label st sender (-2)
    | Stopped c -> note_stopped st c
    | Propose ->
        (* a live label always has its tree; dead or outside, no entry *)
        let i = find_tree st st.label in
        if i >= 0 then begin
          let e = st.trees.(i) in
          e.proposers <- sender :: e.proposers
        end
    | Count_up (c, k) ->
        let i = find_tree st c in
        if i >= 0 then begin
          let e = st.trees.(i) in
          e.reports <- e.reports + 1;
          e.sum <- e.sum + k
        end
    | Depart_up (c, k) ->
        if c = st.id then st.size <- st.size - k
        else
          let i = find_tree st c in
          if i >= 0 then enqueue st st.trees.(i).parent m
    | Decide (c, grow) -> handle_decide st c grow
    | Accepted c -> join st c sender
    | Rejected -> die st
    | Attach c ->
        let i = find_tree st c in
        if i >= 0 then begin
          let e = st.trees.(i) in
          e.children <- sender :: e.children
        end
  in
  let rec process_all st = function
    | [] -> ()
    | (s, m) :: rest ->
        process st s m;
        process_all st rest
  in
  (* aggregation pass: once proposals have arrived (round >= 4), each tree
     node reports each cluster once all of that cluster's children have.
     A pass changes nothing unless its inputs changed since the last one,
     so it runs only when [dirty]. *)
  let aggregate st =
    let trees = st.trees in
    for i = 0 to Array.length trees - 1 do
      let e = trees.(i) in
      if (not e.sent_up) && e.reports = List.length e.children then begin
        let c = e.cluster in
        let own = if st.label = c then List.length e.proposers else 0 in
        let total = own + e.sum in
        e.sent_up <- true;
        if c = st.id then begin
          (* root: decide *)
          if total > 0 then begin
            let grow = float_of_int total >= threshold st in
            if grow then begin
              st.size <- st.size + total;
              st.joined <- st.joined + total
            end;
            handle_decide st c grow
          end
        end
        else enqueue st e.parent (Count_up (c, total))
      end
    done
  in
  let start_step st =
    Array.iter
      (fun e ->
        e.reports <- 0;
        e.sum <- 0;
        e.sent_up <- false;
        e.proposers <- [])
      st.trees;
    st.dirty <- true;
    (* red nodes adjacent to a live blue cluster propose *)
    if st.label >= 0 && is_red st.bit st.label then begin
      let best = ref (-1) in
      for slot = 0 to Array.length st.nbrs - 1 do
        let lw = st.nbr_label.(slot) in
        if lw >= 0 && (not (is_red st.bit lw)) && not (mem_int lw st.stopped)
        then
          if !best < 0 then best := slot
          else
            let bl = st.nbr_label.(!best) in
            if lw < bl || (lw = bl && st.nbrs.(slot) < st.nbrs.(!best)) then
              best := slot
      done;
      if !best >= 0 then enqueue_slot st !best Propose
    end
  in
  let rec start_phase st steps rest =
    if steps = 0 then (
      (* the engine needed no steps for this bit: skip it immediately *)
      match rest with
      | [] ->
          st.steps_left_in_phase <- 0;
          st.phases_left <- []
      | s :: r ->
          st.bit <- st.bit + 1;
          start_phase st s r)
    else begin
      st.steps_left_in_phase <- steps;
      st.phases_left <- rest;
      st.stopped <- [];
      st.joined <- 0;
      start_step st
    end
  in
  let program =
    {
      Congest.Sim.init =
        (fun ~node ~neighbors ->
          let nbrs = Array.copy neighbors in
          Array.sort Int.compare nbrs;
          let deg = Array.length nbrs in
          let st =
            {
              id = node;
              label = (if Mask.mem domain node then node else -1);
              nbrs;
              nbr_label =
                Array.map (fun w -> if Mask.mem domain w then w else -2) nbrs;
              stopped = [];
              tree_tbl = Hashtbl.create 4;
              trees = [||];
              size = 1;
              joined = 0;
              queues = Array.init deg (fun _ -> Queue.create ());
              queued = 0;
              out_tbl = Hashtbl.create deg;
              out_order = [||];
              out_stale = false;
              listed = Array.make deg false;
              dirty = false;
              steps_left_in_phase = 0;
              phases_left = [];
              bit = 0;
            }
          in
          if Mask.mem domain node then add_tree st node ~parent:node;
          (* the whole schedule is known up front (derived from n in a real
             deployment); bit i is phase i. Nodes outside the domain sleep. *)
          (if Mask.mem domain node then
             match schedule with
             | [] -> st.phases_left <- []
             | steps :: rest ->
                 st.bit <- 0;
                 start_phase st steps rest);
          st);
      round =
        (fun ~round ~node:_ ~state:st ~inbox ->
          (* step clock, derived from the global round: the first step
             starts before round 1 and a new one at every multiple of the
             budget, so [round_in_step] runs 1 .. step_budget *)
          let into_step = round mod step_budget in
          let round_in_step = into_step + 1 in
          let active = st.steps_left_in_phase > 0 || st.phases_left <> [] in
          if active && into_step = 0 then begin
            st.steps_left_in_phase <- st.steps_left_in_phase - 1;
            if st.steps_left_in_phase > 0 then start_step st
            else
              match st.phases_left with
              | [] -> () (* schedule finished *)
              | steps :: rest ->
                  st.bit <- st.bit + 1;
                  start_phase st steps rest
          end;
          if inbox <> [] then begin
            process_all st inbox;
            st.dirty <- true
          end;
          if round_in_step >= 4 && st.steps_left_in_phase > 0 && st.dirty
          then begin
            st.dirty <- false;
            aggregate st
          end;
          (* drain one message per edge *)
          let out = drain st in
          let wake =
            if st.steps_left_in_phase = 0 && st.phases_left = [] then
              if out = [] then Congest.Sim.Halt else Congest.Sim.Run
            else if st.queued > 0 then Congest.Sim.Run
            else
              (* idle until mail, the round-4 aggregation point of this
                 step, or the next step boundary, whichever comes first:
                 between those, an empty inbox leaves the state alone *)
              Congest.Sim.Sleep_until
                (if round_in_step < 4 then round + (4 - round_in_step)
                 else round - into_step + step_budget)
          in
          (st, out, wake));
    }
  in
  let bits = function
    | Propose | Rejected | Died -> 4
    | Accepted _ | Attach _ | Label_is _ | Stopped _ -> 4 + id_bits
    | Count_up _ | Depart_up _ -> 4 + (2 * id_bits)
    | Decide _ -> 5 + id_bits
  in
  let max_rounds = ((total_steps + 2) * step_budget) + (4 * step_budget) in
  let bandwidth = max (Congest.Bits.bandwidth ~n) (4 + (2 * id_bits)) in
  {
    b_engine = engine;
    b_step_budget = step_budget;
    b_total_steps = total_steps;
    b_domain = domain;
    b_program = program;
    b_bits = bits;
    b_bandwidth = bandwidth;
    b_max_rounds = max_rounds;
  }

(* The node-program state is mutated in place, so a conformance wrapper
   must never be registered order-invariant here: the (e) re-run would
   corrupt the state. (c)/(d) are read-only and safe. *)
let wrap_conformance conformance program =
  match conformance with
  | None -> program
  | Some c -> c.Congest.Conformance.instrument program

let carve ?conformance ?preset ?domain ?trace g ~epsilon =
  Congest.Span.enter trace "weakdiam_sim";
  let b =
    Congest.Span.with_span trace "engine" (fun () ->
        build ?preset ?domain g ~epsilon)
  in
  let config =
    {
      Congest.Sim.Config.default with
      max_rounds = Some b.b_max_rounds;
      bandwidth = Some b.b_bandwidth;
      trace;
    }
  in
  Congest.Span.enter trace "simulate";
  let states, sim_stats =
    Congest.Sim.simulate ~config ~bits:b.b_bits g
      (wrap_conformance conformance b.b_program)
  in
  Congest.Span.exit trace;
  Congest.Span.exit trace;
  let cluster_of = Array.map (fun st -> st.label) states in
  let clustering = Cluster.Clustering.make g ~cluster_of in
  let carving = Cluster.Carving.make clustering ~domain:b.b_domain in
  {
    carving;
    sim_stats;
    step_budget = b.b_step_budget;
    total_steps = b.b_total_steps;
    engine = b.b_engine;
  }

type reliable_result = {
  cluster_of : int array;
  crashed : int list;
  finished : bool array;
  dead_view : int list array;
  r_sim_stats : Congest.Sim.stats;
  transport : Congest.Reliable.transport_stats;
  inner_rounds : int;
  oracle_rounds : int;
  r_step_budget : int;
  r_total_steps : int;
  r_engine : Weak_carving.result;
}

let carve_reliable ?adversary ?conformance ?(liveness_timeout = 64) ?preset
    ?domain ?trace g ~epsilon =
  Congest.Span.enter trace "weakdiam_reliable";
  let b =
    Congest.Span.with_span trace "engine" (fun () ->
        build ?preset ?domain g ~epsilon)
  in
  (* Sizing oracle: the program is deterministic, so a fault-free run
     tells us exactly how many inner rounds the computation needs; the
     wrapper then executes that many plus slack. Running the program value
     twice is safe — [init] builds fresh state each run. *)
  let oracle_config =
    {
      Congest.Sim.Config.default with
      max_rounds = Some b.b_max_rounds;
      bandwidth = Some b.b_bandwidth;
    }
  in
  let _, oracle_stats =
    Congest.Span.with_span trace "oracle" (fun () ->
        Congest.Sim.simulate ~config:oracle_config ~bits:b.b_bits g b.b_program)
  in
  let oracle_rounds = oracle_stats.Congest.Sim.rounds_used in
  let inner_rounds = oracle_rounds + b.b_step_budget + 8 in
  let cfg = Congest.Reliable.config ~inner_rounds ~liveness_timeout () in
  let sim =
    {
      Congest.Sim.Config.default with
      adversary;
      on_incomplete = `Ignore;
      bandwidth = Some b.b_bandwidth;
      trace;
    }
  in
  Congest.Span.enter trace "simulate";
  let r =
    Congest.Reliable.simulate ~sim cfg ~bits:b.b_bits g
      (wrap_conformance conformance b.b_program)
  in
  Congest.Span.exit trace;
  Congest.Span.exit trace;
  let cluster_of =
    Array.map (fun st -> st.label) r.Congest.Reliable.states
  in
  let crashed = r.Congest.Reliable.sim_stats.Congest.Sim.faults.crashed in
  List.iter (fun v -> cluster_of.(v) <- -2) crashed;
  {
    cluster_of;
    crashed;
    finished = r.Congest.Reliable.finished;
    dead_view = r.Congest.Reliable.dead_view;
    r_sim_stats = r.Congest.Reliable.sim_stats;
    transport = r.Congest.Reliable.transport;
    inner_rounds;
    oracle_rounds;
    r_step_budget = b.b_step_budget;
    r_total_steps = b.b_total_steps;
    r_engine = b.b_engine;
  }

let matches_engine r =
  let sim = r.carving.Cluster.Carving.clustering in
  let eng = r.engine.Weak_carving.carving.Cluster.Carving.clustering in
  let g = Cluster.Clustering.graph sim in
  let n = Graph.n g in
  let ok = ref (Cluster.Clustering.num_clusters sim = Cluster.Clustering.num_clusters eng) in
  (* same dead set and same partition (cluster ids may be permuted; both
     normalize by first appearance, so equality is direct) *)
  for v = 0 to n - 1 do
    if Cluster.Clustering.cluster_of sim v <> Cluster.Clustering.cluster_of eng v
    then ok := false
  done;
  !ok
