(** Hierarchical phase spans: named, nested regions of a run, with every
    traced round boundary, message, and {!Cost.charge} attributed to the
    span path that was open when it happened.

    A span is one path segment pushed onto the sink's open-span stack;
    the recorded events carry the full ["/"]-joined path (e.g.
    ["netdecomp/color=3/strong_carving/transform/level=7"]). The entry
    points take the [Trace.sink option] that run configurations already
    carry, so instrumentation sites need no configuration of their own:
    with no sink attached (or a [~spans:false] sink) every call here is
    a no-op that allocates nothing.

    Attribution happens at replay time ({!rollups}): an event's {e self}
    cost goes to the innermost open span — or to the ["(unspanned)"]
    bucket when none is open, so per-span self totals always sum exactly
    to the {!Metrics.of_trace} globals — and its {e inclusive} cost to
    every open ancestor. Rollups are purely logical, so identical runs
    give identical rollups; wall-clock seconds and GC words per span
    come from a {!Resource} recorder attached to the sink
    ({!Resource.rollups}). *)

val unspanned : string
(** The synthetic bucket for events recorded while no span is open. *)

val enter : Trace.sink option -> string -> unit
(** Opens a phase named by one path segment. No-op without a sink. *)

val enter_idx : Trace.sink option -> string -> int -> unit
(** [enter_idx t name i] = [enter t (name ^ "=" ^ string_of_int i)],
    except the label is only formatted when a sink is attached — the
    form loop instrumentation uses ([enter_idx trace "color" k]). *)

val exit : Trace.sink option -> unit
(** Closes the innermost open span.
    @raise Invalid_argument when a sink is attached and no span is
    open. *)

val with_span : Trace.sink option -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] brackets [f ()] in {!val-enter}/{!val-exit},
    exiting also on exceptions. The closure allocates, so per-iteration
    hot loops prefer explicit [enter_idx]/[exit] pairs. *)

type rollup = {
  path : string;  (** full ["/"]-joined span path *)
  depth : int;  (** path segments; [0] for {!unspanned} *)
  entries : int;  (** number of activations *)
  rounds : int;  (** self: simulator [Round_start]s + [Cost_charged] rounds *)
  rounds_incl : int;  (** inclusive: self + all descendants *)
  messages : int;  (** self: [Message_sent]s + [Cost_charged] messages *)
  messages_incl : int;
  bits : int;  (** self: total [Message_sent] payload bits *)
  bits_incl : int;
  max_message_bits : int;  (** largest message/charge watermark seen *)
}

val rollups : Trace.sink -> rollup list
(** Replays the sink's event stream into per-path rollups, in order of
    first appearance (chronological). The sum of the self [rounds] /
    [messages] / [bits] over all rollups (including {!unspanned}) equals
    the corresponding {!Metrics.of_trace} totals: [rounds + cost_rounds],
    [messages_sent + cost_messages], and the [bits_per_message] sum. On
    a capacity-truncated sink the replay is best-effort. *)

type weight = [ `Rounds | `Messages | `Bits ]

val to_folded : ?weight:weight -> Trace.sink -> string
(** Flamegraph-compatible folded stacks: one ["frame;frame;... value"]
    line per span path with nonzero self weight (default [`Rounds]).
    Feed to [flamegraph.pl] or any folded-stack renderer. *)

val of_folded : string -> ((string * int) list, string) result
(** Parses {!to_folded} output back into [(path, weight)] pairs with
    ["/"] separators restored; blank lines are skipped. *)

val rollup_csv : rollup list -> string
(** One row per path with all self and inclusive columns; header
    [path,depth,entries,rounds,rounds_incl,...,max_message_bits]. *)

val pp_rollups : Format.formatter -> rollup list -> unit
(** Indented per-phase table (inclusive columns), for CLI output. *)

val save :
  ?dir:string -> ?weight:weight -> prefix:string -> Trace.sink -> string list
(** Writes [<prefix>_phases.csv] ({!rollup_csv}) and [<prefix>.folded]
    ({!to_folded} with [weight]) under [dir] (default ["bench_results"],
    created if missing); returns the paths written. *)
