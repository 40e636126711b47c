(** Faithful synchronous CONGEST simulator.

    Nodes run the same program; per round each node reads its inbox (one
    message per neighbor at most on a fault-free fabric; an adversary may
    duplicate or delay deliveries), updates its state, and emits at most
    one message per incident edge. Only nodes with mail or a due
    wake-up are stepped (see {!wake} and {!simulate}); the others are
    idle by contract. Message sizes are measured by a
    user-supplied [bits] function and checked against the bandwidth;
    exceeding it raises {!Bandwidth_exceeded} — this is how the ABCP96
    baseline's unbounded messages are surfaced.

    The fabric is perfectly reliable unless an adversary ({!Fault.t}) is
    interposed via the run {!Config}, in which case messages may be
    dropped, duplicated, or delayed, and nodes may crash-stop; every
    injected fault is counted in {!stats.faults}. Programs that must
    survive such an adversary should be wrapped with
    {!Reliable.simulate}.

    All run options live in one {!Config.t} record consumed by
    {!simulate}; build one with {!Config.default} and the [with_*]
    setters (or a record update). *)

exception
  Bandwidth_exceeded of {
    node : int;
    dst : int;  (** destination neighbor of the offending message *)
    round : int;  (** 1-based round in which it was sent *)
    bits : int;
    bandwidth : int;
  }

exception Incomplete of { max_rounds : int; running : int }
(** Raised by [`Raise] on incomplete runs: [max_rounds] elapsed with
    [running] nodes still not halted (or messages still in flight). *)

type wake =
  | Run  (** step me again next round *)
  | Halt
      (** vote to halt: sleep until a message arrives. A halted node
          must stay idle when stepped with an empty inbox (conformance
          check (d)), so the simulator does not step it at all. *)
  | Sleep_until of int
      (** stay running (not halted) but skip the rounds before this
          1-based global round unless a message arrives first; a round
          at or before the current one means [Run]. Sleeping is only a
          hint: a node stepped early with an empty inbox must send
          nothing and keep its vote, so mapping every [Sleep_until] to
          [Run] changes no output, statistic, or trace. *)
(** What a node asks of the scheduler after a round. *)

type ('st, 'msg) program = {
  init : node:int -> neighbors:int array -> 'st;
      (** Initial state; a node knows its own identifier and its neighbors'
          (standard after one round of identifier exchange). *)
  round :
    round:int ->
    node:int ->
    state:'st ->
    inbox:(int * 'msg) list ->
    'st * (int * 'msg) list * wake;
      (** [round ~round ~node ~state ~inbox] returns the new state,
          outgoing [(neighbor, message)] pairs, and the node's {!wake}.
          [round] is the 1-based global round; a node is not stepped in
          every round, so a program that needs the time reads it here
          instead of counting its own invocations. Sending twice to the
          same neighbor in one round is rejected. *)
}

type fault_stats = {
  dropped : int;  (** messages lost (iid, burst, or sent to a crashed node) *)
  duplicated : int;  (** extra copies injected *)
  delayed : int;  (** deliveries postponed past the next round *)
  crashed : int list;  (** nodes crash-stopped during the run, sorted *)
}

val no_faults : fault_stats

type stats = {
  rounds_used : int;
  total_messages : int;  (** program-sent messages (injected copies excluded) *)
  max_bits_seen : int;
  node_steps : int;
      (** calls to [program.round]: at most [rounds_used * n], usually
          far fewer, since idle nodes are not stepped *)
  all_halted : bool;  (** false when stopped by [max_rounds] *)
  faults : fault_stats;  (** {!no_faults} when no adversary was given *)
}

(** Run configuration: every knob of a simulation in one value, so entry
    points take [?config] instead of a growing pile of optional
    arguments, and new knobs (like tracing) do not ripple through every
    caller's signature. *)
module Config : sig
  type t = {
    max_rounds : int option;  (** [None] means [4 * n + 16] *)
    bandwidth : int option;  (** [None] means {!Bits.bandwidth} *)
    adversary : Fault.t option;
    on_incomplete : [ `Ignore | `Warn | `Raise ];
    trace : Trace.sink option;  (** event sink; [None] = tracing off *)
    transport_window : int option;
        (** overrides {!Reliable.config}'s send window when set; ignored
            by raw (non-reliable) simulations *)
    transport_rto : int option;
        (** overrides {!Reliable.config}'s base retransmission timeout *)
    liveness_timeout : int option;
        (** overrides {!Reliable.config}'s crash-detection timeout: the
            silence threshold (in outer rounds) after which an awaited
            neighbor is declared dead *)
  }

  val default : t
  (** No adversary, no trace, defaults for rounds/bandwidth, [`Warn],
      no transport overrides (so reliable runs keep their
      byte-identical default behavior). *)

  val with_max_rounds : int -> t -> t
  val with_bandwidth : int -> t -> t
  val with_adversary : Fault.t -> t -> t
  val with_on_incomplete : [ `Ignore | `Warn | `Raise ] -> t -> t
  val with_transport_window : int -> t -> t
  val with_transport_rto : int -> t -> t
  val with_liveness_timeout : int -> t -> t

  val with_trace : Trace.sink -> t -> t
  (** Setters take the configuration last for pipeline style:
      [Config.(default |> with_max_rounds 64 |> with_trace sink)]. *)
end

val log_src : Logs.src
(** Logs source ["congest.sim"] used by [`Warn] on incomplete runs. *)

val simulate :
  ?config:Config.t ->
  bits:('msg -> int) ->
  Dsgraph.Graph.t ->
  ('st, 'msg) program ->
  'st array * stats
(** Runs until every node votes to halt {e and} no message is in flight,
    or until [config.max_rounds] (default [4 * n + 16]).

    {b Scheduling.} Every node is stepped in round 1. Afterwards a round
    steps only the nodes that received a message this round, asked to
    [Run], or whose [Sleep_until] round is due — in ascending node id,
    so inboxes, adversary decisions and traces come out exactly as if
    every node were stepped every round. Under an adversary a node is
    also visited on each of its crash and revive rounds. Pending wake-ups
    sit in an indexed min-heap of [(round, node)] that is allocated once
    per run; [stats.node_steps] counts the steps taken.
    [config.bandwidth] defaults to {!Bits.bandwidth}. Returns final
    states (a crashed node's state is frozen at its crash round).

    When the run is cut off by [max_rounds] with nodes still running or
    messages still in flight, [config.on_incomplete] decides what
    happens: [`Warn] (default) logs a warning on {!log_src} —
    easy-to-miss silent truncation was a real bug source — [`Raise]
    raises {!Incomplete}, and [`Ignore] stays silent for callers that
    use the cutoff deliberately (Las Vegas retries, adversarial-fault
    sweeps).

    When [config.trace] holds a sink, every round boundary, message
    event (sent / delivered / dropped / duplicated / delayed), halt and
    crash transition, and bandwidth high-water mark is recorded in it;
    with [trace = None] no event is allocated at all. *)
