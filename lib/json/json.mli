(** The repo's one JSON codec: a value type, a string quoter for the
    [Printf]-based emitters, and a strict recursive-descent reader.

    Every artifact the tools write (traces, metrics, run reports,
    conformance and lint/analyze results, trajectory snapshots, diffs,
    Chrome traces) quotes its strings with {!quote}, and every reader
    of those artifacts parses through {!of_string}. No dependencies
    beyond the standard library. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list  (** members in document order *)

val quote : string -> string
(** [quote s] is the JSON string literal for [s], surrounding quotes
    included: ['"'] and ['\\'] are backslash-escaped, bytes below 0x20
    become [\n], [\r], [\t] or [\u00XX], and every other byte (UTF-8
    included) passes through raw. [of_string (quote s) = Ok (String s)]
    for every byte string [s]. *)

val of_string : string -> (t, string) result
(** Parses one JSON document (surrounding whitespace allowed). Errors
    name the fault and its byte offset, e.g.
    ["unterminated string at offset 12"]. Trailing non-whitespace is an
    error. [\uXXXX] escapes decode to UTF-8 (surrogate pairs combined;
    a lone surrogate decodes to U+FFFD). Raw control characters inside
    strings are rejected, as in strict JSON. *)

val member : string -> t -> t option
(** [member key v]: the first member named [key] when [v] is an
    object, else [None]. *)

val to_string_opt : t -> string option
val to_float_opt : t -> float option

val to_int_opt : t -> int option
(** [Some i] for a number with an integral value; [None] otherwise. *)

val to_list : t -> t list
(** The elements of an array; [[]] for any other value. *)
