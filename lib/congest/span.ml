(* Hierarchical phase spans over the trace sink. The recording half is
   in Trace (the sink owns the open-span stack and the packed buffer);
   this module is the user-facing API plus the replay that attributes
   rounds, messages, and bits to span paths. *)

let unspanned = "(unspanned)"

let enter trace name =
  match trace with None -> () | Some s -> Trace.enter_span s name

let enter_idx trace name i =
  match trace with
  | None -> ()
  | Some s -> Trace.enter_span s (Printf.sprintf "%s=%d" name i)

let exit trace = match trace with None -> () | Some s -> Trace.exit_span s

let with_span trace name f =
  match trace with
  | None -> f ()
  | Some s -> (
      Trace.enter_span s name;
      match f () with
      | v ->
          Trace.exit_span s;
          v
      | exception e ->
          Trace.exit_span s;
          raise e)

type rollup = {
  path : string;
  depth : int;
  entries : int;
  rounds : int;
  rounds_incl : int;
  messages : int;
  messages_incl : int;
  bits : int;
  bits_incl : int;
  max_message_bits : int;
}

type acc = {
  mutable a_entries : int;
  mutable a_rounds : int;
  mutable a_rounds_incl : int;
  mutable a_messages : int;
  mutable a_messages_incl : int;
  mutable a_bits : int;
  mutable a_bits_incl : int;
  mutable a_max_bits : int;
}

let path_depth path =
  if path = unspanned then 0
  else 1 + String.fold_left (fun k c -> if c = '/' then k + 1 else k) 0 path

(* Replay attribution: self goes to the innermost open span at the time
   of the event ([unspanned] when none is open — kept as an explicit
   bucket so per-span self totals sum exactly to the Metrics.of_trace
   globals), inclusive to every open ancestor. Open paths are pairwise
   distinct (each extends its parent), so inclusive counts each once. *)
let rollups sink =
  let tbl : (string, acc) Hashtbl.t = Hashtbl.create 32 in
  let order = ref [] in
  let get path =
    match Hashtbl.find_opt tbl path with
    | Some a -> a
    | None ->
        let a =
          {
            a_entries = 0;
            a_rounds = 0;
            a_rounds_incl = 0;
            a_messages = 0;
            a_messages_incl = 0;
            a_bits = 0;
            a_bits_incl = 0;
            a_max_bits = 0;
          }
        in
        Hashtbl.add tbl path a;
        order := path :: !order;
        a
  in
  let stack = ref [] in
  let charge ~rounds ~messages ~bits ~maxb =
    let open_paths = !stack in
    let self = match open_paths with p :: _ -> p | [] -> unspanned in
    let a = get self in
    a.a_rounds <- a.a_rounds + rounds;
    a.a_messages <- a.a_messages + messages;
    a.a_bits <- a.a_bits + bits;
    if maxb > a.a_max_bits then a.a_max_bits <- maxb;
    let incl p =
      let a = get p in
      a.a_rounds_incl <- a.a_rounds_incl + rounds;
      a.a_messages_incl <- a.a_messages_incl + messages;
      a.a_bits_incl <- a.a_bits_incl + bits
    in
    match open_paths with
    | [] -> incl unspanned
    | ps -> List.iter incl ps
  in
  Trace.iter
    (fun ev ->
      match ev with
      | Trace.Span_enter { path } ->
          let a = get path in
          a.a_entries <- a.a_entries + 1;
          stack := path :: !stack
      | Trace.Span_exit _ -> (
          match !stack with [] -> () | _ :: rest -> stack := rest)
      | Trace.Round_start _ -> charge ~rounds:1 ~messages:0 ~bits:0 ~maxb:0
      | Trace.Message_sent { bits; _ } ->
          charge ~rounds:0 ~messages:1 ~bits ~maxb:bits
      | Trace.Cost_charged { rounds; messages; max_bits; _ } ->
          charge ~rounds ~messages ~bits:0 ~maxb:max_bits
      | _ -> ())
    sink;
  List.rev_map
    (fun path ->
      let a = Hashtbl.find tbl path in
      {
        path;
        depth = path_depth path;
        entries = a.a_entries;
        rounds = a.a_rounds;
        rounds_incl = a.a_rounds_incl;
        messages = a.a_messages;
        messages_incl = a.a_messages_incl;
        bits = a.a_bits;
        bits_incl = a.a_bits_incl;
        max_message_bits = a.a_max_bits;
      })
    !order

type weight = [ `Rounds | `Messages | `Bits ]

let weight_of r = function
  | `Rounds -> r.rounds
  | `Messages -> r.messages
  | `Bits -> r.bits

(* flamegraph folded-stack format: frames joined by ';', one
   "stack value" line per path, weight = the span's SELF count (the
   flamegraph renderer re-derives inclusive totals by summation) *)
let to_folded ?(weight = `Rounds) sink =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      let v = weight_of r weight in
      if v > 0 then begin
        Buffer.add_string b
          (String.map (fun c -> if c = '/' then ';' else c) r.path);
        Buffer.add_char b ' ';
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b '\n'
      end)
    (rollups sink);
  Buffer.contents b

let of_folded text =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        if String.trim line = "" then go acc rest
        else
          match String.rindex_opt line ' ' with
          | None -> Error (Printf.sprintf "folded line without weight: %s" line)
          | Some i -> (
              let stack = String.sub line 0 i in
              let count =
                String.sub line (i + 1) (String.length line - i - 1)
              in
              match int_of_string_opt (String.trim count) with
              | None ->
                  Error (Printf.sprintf "bad folded weight %S in %s" count line)
              | Some v ->
                  let path =
                    String.map (fun c -> if c = ';' then '/' else c) stack
                  in
                  go ((path, v) :: acc) rest))
  in
  go [] (String.split_on_char '\n' text)

let rollup_csv rs =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "path,depth,entries,rounds,rounds_incl,messages,messages_incl,bits,bits_incl,max_message_bits\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d\n" r.path r.depth
           r.entries r.rounds r.rounds_incl r.messages r.messages_incl r.bits
           r.bits_incl r.max_message_bits))
    rs;
  Buffer.contents b

let pp_rollups ppf rs =
  Format.fprintf ppf "%-52s %10s %10s %10s@." "phase" "rounds" "messages"
    "bits";
  List.iter
    (fun r ->
      let indent = String.make (2 * max 0 (r.depth - 1)) ' ' in
      let label =
        match String.rindex_opt r.path '/' with
        | Some i -> String.sub r.path (i + 1) (String.length r.path - i - 1)
        | None -> r.path
      in
      Format.fprintf ppf "%-52s %10d %10d %10d@." (indent ^ label)
        r.rounds_incl r.messages_incl r.bits_incl)
    rs

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let save ?(dir = "bench_results") ?weight ~prefix sink =
  ensure_dir dir;
  let rs = rollups sink in
  let csv_path = Filename.concat dir (prefix ^ "_phases.csv") in
  let folded_path = Filename.concat dir (prefix ^ ".folded") in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc
  in
  write csv_path (rollup_csv rs);
  write folded_path (to_folded ?weight sink);
  [ csv_path; folded_path ]
