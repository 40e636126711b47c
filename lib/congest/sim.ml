open Dsgraph

exception
  Bandwidth_exceeded of {
    node : int;
    dst : int;
    round : int;
    bits : int;
    bandwidth : int;
  }

exception Incomplete of { max_rounds : int; running : int }

type wake = Run | Halt | Sleep_until of int

type ('st, 'msg) program = {
  init : node:int -> neighbors:int array -> 'st;
  round :
    round:int ->
    node:int ->
    state:'st ->
    inbox:(int * 'msg) list ->
    'st * (int * 'msg) list * wake;
}

type fault_stats = {
  dropped : int;
  duplicated : int;
  delayed : int;
  crashed : int list;
}

let no_faults = { dropped = 0; duplicated = 0; delayed = 0; crashed = [] }

type stats = {
  rounds_used : int;
  total_messages : int;
  max_bits_seen : int;
  node_steps : int;
  all_halted : bool;
  faults : fault_stats;
}

module Config = struct
  type t = {
    max_rounds : int option;
    bandwidth : int option;
    adversary : Fault.t option;
    on_incomplete : [ `Ignore | `Warn | `Raise ];
    trace : Trace.sink option;
    transport_window : int option;
    transport_rto : int option;
    liveness_timeout : int option;
  }

  let default =
    {
      max_rounds = None;
      bandwidth = None;
      adversary = None;
      on_incomplete = `Warn;
      trace = None;
      transport_window = None;
      transport_rto = None;
      liveness_timeout = None;
    }

  let with_max_rounds max_rounds t = { t with max_rounds = Some max_rounds }
  let with_bandwidth bandwidth t = { t with bandwidth = Some bandwidth }
  let with_adversary adversary t = { t with adversary = Some adversary }
  let with_on_incomplete on_incomplete t = { t with on_incomplete }
  let with_trace sink t = { t with trace = Some sink }

  let with_transport_window transport_window t =
    { t with transport_window = Some transport_window }

  let with_transport_rto transport_rto t =
    { t with transport_rto = Some transport_rto }

  let with_liveness_timeout liveness_timeout t =
    { t with liveness_timeout = Some liveness_timeout }
end

let log_src = Logs.Src.create "congest.sim" ~doc:"CONGEST simulator"

module Log = (val Logs.src_log log_src)

(* ------------------------------------------------------------------ *)
(* Wake-up queue                                                        *)
(* ------------------------------------------------------------------ *)

(* Indexed binary min-heap of nodes ordered by (wake round, node id):
   [heap.(0 .. size-1)] holds node ids, [pos.(v)] is v's slot ([-1] when
   v has no pending wake-up) and [key.(v)] its wake round. Popping every
   node due in a round therefore yields them in ascending id, the order
   the dense loop stepped them in. All arrays are allocated once per run;
   scheduling itself never allocates. *)
type wakeq = {
  heap : int array;
  pos : int array;
  key : int array;
  mutable size : int;
}

let wakeq_create n =
  {
    heap = Array.make n 0;
    pos = Array.make n (-1);
    key = Array.make n 0;
    size = 0;
  }

let wakeq_before q a b =
  let ka = q.key.(a) and kb = q.key.(b) in
  ka < kb || (ka = kb && a < b)
[@@hot]

let wakeq_place q i v =
  q.heap.(i) <- v;
  q.pos.(v) <- i
[@@hot]

let rec wakeq_sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = q.heap.(i) and p = q.heap.(parent) in
    if wakeq_before q v p then begin
      wakeq_place q parent v;
      wakeq_place q i p;
      wakeq_sift_up q parent
    end
  end
[@@hot]

let rec wakeq_sift_down q i =
  let l = (2 * i) + 1 in
  if l < q.size then begin
    let r = l + 1 in
    let c =
      if r < q.size && wakeq_before q q.heap.(r) q.heap.(l) then r else l
    in
    let v = q.heap.(i) and w = q.heap.(c) in
    if wakeq_before q w v then begin
      wakeq_place q i w;
      wakeq_place q c v;
      wakeq_sift_down q c
    end
  end
[@@hot]

(* wake [v] at [round] at the latest: insert it, or decrease its key
   when it is already queued for a later round *)
let wakeq_push q v round =
  let i = q.pos.(v) in
  if i < 0 then begin
    q.key.(v) <- round;
    wakeq_place q q.size v;
    q.size <- q.size + 1;
    wakeq_sift_up q (q.size - 1)
  end
  else if round < q.key.(v) then begin
    q.key.(v) <- round;
    wakeq_sift_up q i
  end
[@@hot]

(* the lowest-id node due at or before [round], removed from the queue;
   [-1] when none is due *)
let wakeq_pop_due q round =
  if q.size = 0 then -1
  else begin
    let v = q.heap.(0) in
    if q.key.(v) > round then -1
    else begin
      q.size <- q.size - 1;
      q.pos.(v) <- -1;
      if q.size > 0 then begin
        wakeq_place q 0 q.heap.(q.size);
        wakeq_sift_down q 0
      end;
      v
    end
  end
[@@hot]

(* ------------------------------------------------------------------ *)
(* Next-round fabric                                                    *)
(* ------------------------------------------------------------------ *)

(* Messages due exactly one round after they are sent, as three parallel
   flat arrays in send order. A round delivers the whole buffer before it
   steps its first node, so one buffer serves both roles: it is emptied
   at the start of a round and refilled by that round's sends. The
   simulator's duplicate-destination check allows one message per
   directed edge and round, so the capacity is 2m (4m under an adversary,
   whose duplicate may land both copies next round). The arrays are
   created by the first send ([fabric_open]): an ['msg array] needs a
   message to fill it with. *)
type 'msg fabric = {
  mutable f_dst : int array;
  mutable f_src : int array;
  mutable f_msg : 'msg array;
  mutable f_len : int;
}

let fabric_create () = { f_dst = [||]; f_src = [||]; f_msg = [||]; f_len = 0 }

let fabric_open f ~capacity msg =
  f.f_dst <- Array.make capacity 0;
  f.f_src <- Array.make capacity 0;
  f.f_msg <- Array.make capacity msg

let fabric_push f dst src msg =
  let i = f.f_len in
  f.f_dst.(i) <- dst;
  f.f_src.(i) <- src;
  f.f_msg.(i) <- msg;
  f.f_len <- i + 1
[@@hot]

(* empty the buffer for this round's sends; returns how many messages it
   held, to be delivered from index [len - 1] down to 0 *)
let fabric_take f =
  let len = f.f_len in
  f.f_len <- 0;
  len
[@@hot]

(* Per-node crash and revive rounds of an adversary, ascending and
   deduplicated: the simulator must visit a node on each of them so that
   [Node_crashed] events and resumed steps land where a dense loop would
   put them. *)
let fault_rounds adv n =
  let sp = Fault.spec_of adv in
  let per = Array.make n [] in
  List.iter
    (fun (v, r) -> if v >= 0 && v < n then per.(v) <- r :: per.(v))
    (sp.Fault.crashes @ sp.Fault.revives);
  Array.map (fun rs -> Array.of_list (List.sort_uniq compare rs)) per

let simulate ?(config = Config.default) ~bits g program =
  let {
    Config.max_rounds;
    bandwidth;
    adversary;
    on_incomplete;
    trace;
    (* transport knobs are consumed by Reliable.simulate, not here *)
    transport_window = _;
    transport_rto = _;
    liveness_timeout = _;
  } =
    config
  in
  let n = Graph.n g in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 16) in
  let bandwidth = Option.value bandwidth ~default:(Bits.bandwidth ~n) in
  let states = Array.init n (fun v -> program.init ~node:v ~neighbors:(Graph.neighbors g v)) in
  let inboxes = Array.make n [] in
  let halted = Array.make n false in
  let halted_count = ref 0 in
  let total_messages = ref 0 in
  let max_bits_seen = ref 0 in
  let rounds_used = ref 0 in
  let node_steps = ref 0 in
  (* every node runs in round 1; afterwards a node is stepped only when
     it has mail, its own wake-up is due, or an adversary crashes or
     revives it *)
  let wq = wakeq_create n in
  for v = 0 to n - 1 do
    wakeq_push wq v 1
  done;
  let faults_of =
    match adversary with
    | Some adv -> fault_rounds adv n
    | None -> [||]
  in
  let fault_next = Array.make (Array.length faults_of) 0 in
  (* first crash/revive round of [v] after [round], [max_int] if none *)
  let next_fault_after v round =
    if Array.length faults_of = 0 then max_int
    else begin
      let rs = faults_of.(v) in
      let i = ref fault_next.(v) in
      while !i < Array.length rs && rs.(!i) <= round do
        incr i
      done;
      fault_next.(v) <- !i;
      if !i < Array.length rs then rs.(!i) else max_int
    end
  in
  (* duplicate-destination guard without per-step allocation:
     [seen.(dst) = gen] marks dst as already hit by the current step *)
  let seen = Array.make n 0 in
  let gen = ref 0 in
  let set_halted v h =
    if h <> halted.(v) then begin
      halted.(v) <- h;
      if h then incr halted_count else decr halted_count
    end
  in
  (* copies due next round go to the flat [next] buffer; only copies an
     adversary delays (or the later copy of a duplicate) wait in
     [arrivals.(future round)] -> (dst, src, msg), in reverse send order *)
  let next = fabric_create () in
  (* an adversary's duplicate may land both copies next round *)
  let capacity =
    (match adversary with None -> 2 | Some _ -> 4) * Graph.m g
  in
  let arrivals : (int, (int * int * 'msg) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let pending = ref 0 in
  let schedule ~round ~at dst src msg =
    incr pending;
    if at = round + 1 then begin
      if Array.length next.f_msg = 0 then
        fabric_open next ~capacity msg;
      fabric_push next dst src msg
    end
    else
      let cell =
        match Hashtbl.find_opt arrivals at with
        | Some c -> c
        | None ->
            let c = ref [] in
            Hashtbl.add arrivals at c;
            c
      in
      cell := (dst, src, msg) :: !cell
  in
  let crashed_at round v =
    match adversary with
    | Some adv -> Fault.is_crashed adv ~round v
    | None -> false
  in
  (* per-round tallies for Round_end; plain int refs so they cost nothing
     when tracing is off *)
  let sent_this_round = ref 0 in
  let delivered_this_round = ref 0 in
  let send ~round v dst msg =
    if not (Graph.is_edge g v dst) then
      invalid_arg
        (Printf.sprintf "Sim.simulate: node %d sent to non-neighbor %d" v dst);
    if seen.(dst) = !gen then
      invalid_arg
        (Printf.sprintf "Sim.simulate: node %d sent twice to %d in one round"
           v dst);
    seen.(dst) <- !gen;
    let b = bits msg in
    if b > bandwidth then
      raise (Bandwidth_exceeded { node = v; dst; round; bits = b; bandwidth });
    if b > !max_bits_seen then begin
      max_bits_seen := b;
      match trace with
      | None -> ()
      | Some s ->
          Trace.record s
            (Trace.Bandwidth_high_water { round; node = v; bits = b })
    end;
    incr total_messages;
    incr sent_this_round;
    (match trace with
    | None -> ()
    | Some s -> Trace.emit_message_sent s ~round ~src:v ~dst ~bits:b);
    match adversary with
    | None -> schedule ~round ~at:(round + 1) dst v msg
    | Some adv ->
        if Fault.is_crashed adv ~round dst then begin
          Fault.count_drop adv;
          match trace with
          | None -> ()
          | Some s ->
              Trace.record s
                (Trace.Message_dropped
                   { round; src = v; dst; reason = Trace.Crashed_destination })
        end
        else (
          match Fault.fate adv ~round ~src:v ~dst with
          | Fault.Deliver -> schedule ~round ~at:(round + 1) dst v msg
          | Fault.Drop -> (
              match trace with
              | None -> ()
              | Some s ->
                  Trace.record s
                    (Trace.Message_dropped
                       { round; src = v; dst; reason = Trace.Adversary }))
          | Fault.Duplicate d ->
              schedule ~round ~at:(round + 1) dst v msg;
              schedule ~round ~at:(round + 1 + d) dst v msg;
              (match trace with
              | None -> ()
              | Some s ->
                  Trace.record s
                    (Trace.Message_duplicated
                       { round; src = v; dst; copy_delay = d }))
          | Fault.Delay d -> (
              schedule ~round ~at:(round + 1 + d) dst v msg;
              match trace with
              | None -> ()
              | Some s ->
                  Trace.record s
                    (Trace.Message_delayed { round; src = v; dst; delay = d })))
  in
  let rec send_all ~round v = function
    | [] -> ()
    | (dst, msg) :: rest ->
        send ~round v dst msg;
        send_all ~round v rest
  in
  (* visit node [v] in [round]; returns the round it next wants to run
     in ([max_int] = only on mail) *)
  let visit ~round v =
    if crashed_at round v then begin
      (match trace with
      | None -> ()
      | Some s ->
          if not (crashed_at (round - 1) v) then
            Trace.record s (Trace.Node_crashed { round; node = v }));
      (* its inbox is empty: deliveries to a crashed node are dropped *)
      set_halted v true;
      max_int
    end
    else begin
      let was_halted = halted.(v) in
      let state, outgoing, wake =
        program.round ~round ~node:v ~state:states.(v) ~inbox:inboxes.(v)
      in
      incr node_steps;
      inboxes.(v) <- [];
      states.(v) <- state;
      let halt = match wake with Halt -> true | Run | Sleep_until _ -> false in
      set_halted v halt;
      (match trace with
      | None -> ()
      | Some s ->
          if halt && not was_halted then
            Trace.record s (Trace.Node_halted { round; node = v }));
      incr gen;
      send_all ~round v outgoing;
      match wake with
      | Run -> round + 1
      | Halt -> max_int
      | Sleep_until r -> max r (round + 1)
    end
  in
  let deliver ~round dst src msg =
    decr pending;
    if crashed_at round dst then begin
      (match adversary with
      | Some adv -> Fault.count_drop adv
      | None -> ());
      match trace with
      | None -> ()
      | Some s ->
          Trace.record s
            (Trace.Message_dropped
               { round; src; dst; reason = Trace.Crashed_destination })
    end
    else begin
      inboxes.(dst) <- (src, msg) :: inboxes.(dst);
      wakeq_push wq dst round;
      incr delivered_this_round;
      match trace with
      | None -> ()
      | Some s -> Trace.emit_message_delivered s ~round ~src ~dst
    end
  in
  let continue = ref true in
  while !continue && !rounds_used < max_rounds do
    incr rounds_used;
    let round = !rounds_used in
    sent_this_round := 0;
    delivered_this_round := 0;
    (match trace with
    | None -> ()
    | Some s -> Trace.record s (Trace.Round_start { round }));
    (* move deliveries due this round into the inboxes, in send order,
       and wake their recipients. Everything in [next] was sent last
       round, after every delayed copy due now, so reverse send order is
       [next] backwards and then the delayed copies; the prepend in
       [deliver] reverses again per destination, so inboxes end up in
       send order *)
    for i = fabric_take next - 1 downto 0 do
      deliver ~round next.f_dst.(i) next.f_src.(i) next.f_msg.(i)
    done;
    (match Hashtbl.find_opt arrivals round with
    | None -> ()
    | Some cell ->
        List.iter (fun (dst, src, msg) -> deliver ~round dst src msg) !cell;
        Hashtbl.remove arrivals round);
    (* step every due node, lowest id first; a visit only ever asks for
       a later round, so this drains exactly this round's nodes *)
    let v = ref (wakeq_pop_due wq round) in
    while !v >= 0 do
      let node = !v in
      let next = min (visit ~round node) (next_fault_after node round) in
      if next < max_int then wakeq_push wq node next;
      v := wakeq_pop_due wq round
    done;
    (match trace with
    | None -> ()
    | Some s ->
        Trace.record s
          (Trace.Round_end
             {
               round;
               sent = !sent_this_round;
               delivered = !delivered_this_round;
               in_flight = !pending;
               halted = !halted_count;
             }));
    if !halted_count = n && !pending = 0 then continue := false
  done;
  let all_halted = !halted_count = n in
  if (not all_halted) || !pending > 0 then begin
    let running = n - !halted_count in
    match on_incomplete with
    | `Ignore -> ()
    | `Warn ->
        Log.warn (fun m ->
            m
              "Sim.simulate: stopped at max_rounds=%d with %d node(s) still \
               running and %d message(s) in flight"
              max_rounds running !pending)
    | `Raise -> raise (Incomplete { max_rounds; running })
  end;
  let faults =
    match adversary with
    | None -> no_faults
    | Some adv ->
        {
          dropped = Fault.dropped adv;
          duplicated = Fault.duplicated adv;
          delayed = Fault.delayed adv;
          crashed = Fault.crashed_nodes adv ~upto_round:!rounds_used;
        }
  in
  ( states,
    {
      rounds_used = !rounds_used;
      total_messages = !total_messages;
      max_bits_seen = !max_bits_seen;
      node_steps = !node_steps;
      all_halted;
      faults;
    } )
