type phase = {
  path : string;
  depth : int;
  rounds : float;
  messages : float;
  bits : float;
  seconds : float;
  minor_words : float;
}

type side = {
  label : string;
  fingerprint : Stats.fingerprint option;
  seconds_mad : float;
  phases : phase list;
}

(* ------------------------------------------------------------------ *)
(* Minimal JSON reader                                                  *)
(* ------------------------------------------------------------------ *)

(* run reports nest objects and arrays, so the flat scanners in
   {!Trajectory} are not enough here; this is a full (if small)
   recursive-descent parser over the subset our own emitters produce *)
type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 >= n then fail "truncated \\u escape";
                let code =
                  int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4)
                in
                (match code with
                | Some c when c < 128 -> Buffer.add_char buf (Char.chr c)
                | Some _ -> Buffer.add_char buf '?'
                | None -> fail "bad \\u escape");
                pos := !pos + 4
            | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            incr pos;
            go ()
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let keyword word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail ("expected " ^ word)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let kvs = ref [] in
          let rec loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            kvs := (k, v) :: !kvs;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                loop ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          loop ();
          Obj (List.rev !kvs)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                loop ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          loop ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    Ok v
  with Bad_json m -> Error m

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let opt_member k j = Option.bind j (member k)
let as_str = function Some (Str s) -> Some s | _ -> None
let as_arr = function Some (Arr l) -> l | _ -> []

let num_or d = function
  | Some (Num f) -> f
  | Some (Bool true) -> 1.0
  | Some (Bool false) -> 0.0
  | _ -> d

(* ------------------------------------------------------------------ *)
(* Loading sides                                                        *)
(* ------------------------------------------------------------------ *)

let fingerprint_of_member j =
  match member "fingerprint" j with
  | None -> None
  | Some fp -> (
      match
        ( as_str (member "git_sha" fp),
          as_str (member "ocaml_version" fp),
          as_str (member "hostname" fp) )
      with
      | Some git_sha, Some ocaml_version, Some hostname ->
          Some
            {
              Stats.git_sha;
              ocaml_version;
              word_size = int_of_float (num_or 0.0 (member "word_size" fp));
              flambda = num_or 0.0 (member "flambda" fp) <> 0.0;
              hostname;
            }
      | _ -> None)

let side_of_report_json ~label text =
  match parse_json text with
  | Error e -> Error (Printf.sprintf "%s: JSON parse failed: %s" label e)
  | Ok doc ->
      if member "report" doc = None then
        Error (Printf.sprintf "%s: not a run report (no \"report\" object)" label)
      else begin
        (* span rollups carry the logical tree; resource rollups attach
           allocation (and cover resource-only paths like "(unspanned)") *)
        let res_rollups =
          as_arr (opt_member "rollups" (member "resources" doc))
        in
        (* logical costs come from the span rollups, wall seconds and
           words from the resource rollups, joined by path *)
        let resource_of field path =
          List.fold_left
            (fun acc r ->
              if as_str (member "path" r) = Some path then
                num_or acc (member field r)
              else acc)
            0.0 res_rollups
        in
        let phases =
          List.map
            (fun r ->
              let path = Option.value (as_str (member "path" r)) ~default:"?" in
              {
                path;
                depth = int_of_float (num_or 0.0 (member "depth" r));
                rounds = num_or 0.0 (member "rounds" r);
                messages = num_or 0.0 (member "messages" r);
                bits = num_or 0.0 (member "bits" r);
                seconds = resource_of "seconds" path;
                minor_words = resource_of "minor_words" path;
              })
            (as_arr (member "rollups" doc))
        in
        let span_paths = List.map (fun p -> p.path) phases in
        let extra =
          List.filter_map
            (fun r ->
              match as_str (member "path" r) with
              | Some path when not (List.mem path span_paths) ->
                  Some
                    {
                      path;
                      depth = int_of_float (num_or 0.0 (member "depth" r));
                      rounds = 0.0;
                      messages = 0.0;
                      bits = 0.0;
                      seconds = num_or 0.0 (member "seconds" r);
                      minor_words = num_or 0.0 (member "minor_words" r);
                    }
              | _ -> None)
            res_rollups
        in
        Ok
          {
            label;
            fingerprint = fingerprint_of_member doc;
            seconds_mad = num_or 0.0 (opt_member "seconds_mad" (member "report" doc));
            phases = phases @ extra;
          }
      end

let side_of_trajectory_line ~label line =
  let phases =
    List.filter_map
      (fun obj ->
        match Trajectory.str_field "name" obj with
        | None -> None
        | Some name ->
            let num f = Option.value (Trajectory.num_field f obj) ~default:0.0 in
            Some
              {
                path = name;
                depth = 0;
                rounds = num "rounds";
                messages = num "messages";
                bits = num "max_bits";
                seconds = num "seconds";
                minor_words = num "minor_words_per_node";
              })
      (Trajectory.workload_objs line)
  in
  let seconds_mad =
    List.fold_left
      (fun acc obj ->
        Float.max acc
          (Option.value (Trajectory.num_field "seconds_mad" obj) ~default:0.0))
      0.0
      (Trajectory.workload_objs line)
  in
  {
    label;
    fingerprint =
      Option.bind
        (Trajectory.fingerprint_of_line line)
        Stats.fingerprint_of_json;
    seconds_mad;
    phases;
  }

let read_all path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let load spec =
  let file, idx =
    match String.rindex_opt spec '#' with
    | Some i when i < String.length spec - 1 -> (
        match
          int_of_string_opt
            (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some k -> (String.sub spec 0 i, Some k)
        | None -> (spec, None))
    | _ -> (spec, None)
  in
  if not (Sys.file_exists file) then
    Error (Printf.sprintf "%s: no such file" file)
  else
    let text = read_all file in
    let trimmed = String.trim text in
    let is_report =
      String.length trimmed > 10 && String.sub trimmed 0 10 = "{\"report\":"
    in
    if is_report then
      if idx <> None then
        Error (Printf.sprintf "%s: '#<index>' only applies to trajectory files" spec)
      else side_of_report_json ~label:(Filename.basename file) text
    else begin
      let lines = Trajectory.read_snapshot_lines file in
      let count = List.length lines in
      if count = 0 then
        Error (Printf.sprintf "%s: no snapshot lines" file)
      else
        let k = Option.value idx ~default:(-1) in
        let pos = if k < 0 then count + k else k - 1 in
        if pos < 0 || pos >= count then
          Error
            (Printf.sprintf "%s: snapshot index %d out of range (1..%d)" spec k
               count)
        else
          Ok
            (side_of_trajectory_line
               ~label:(Printf.sprintf "%s#%d" (Filename.basename file) (pos + 1))
               (List.nth lines pos))
    end

(* ------------------------------------------------------------------ *)
(* Alignment and significance                                           *)
(* ------------------------------------------------------------------ *)

type status = Matched | Added | Removed | Renamed of string

type mdelta = { m_name : string; m_old : float; m_new : float; m_sig : bool }

type row = {
  r_path : string;
  r_depth : int;
  r_status : status;
  r_metrics : mdelta list;
  r_score : float;
}

type t = {
  a_label : string;
  b_label : string;
  forced : bool;
  rows : row list;
  significant : int;
}

type options = { rel : float; k : float; min_seconds : float; force : bool }

let default_options = { rel = 0.10; k = 3.0; min_seconds = 0.005; force = false }

let metric_names = [ "rounds"; "messages"; "bits"; "seconds"; "minor_words" ]

let metric_of p = function
  | "rounds" -> p.rounds
  | "messages" -> p.messages
  | "bits" -> p.bits
  | "seconds" -> p.seconds
  | "minor_words" -> p.minor_words
  | m -> invalid_arg ("Diff.metric_of: " ^ m)

(* seconds is the only noisy column: it must clear both the MAD-widened
   relative gate and an absolute floor; the logical metrics are
   deterministic for seeded runs, so the pure relative gate suffices *)
let significant_delta ~opts ~mad name ov nv =
  let gate =
    if name = "seconds" then
      Float.max (Stats.threshold ~rel:opts.rel ~k:opts.k ~mad ov) opts.min_seconds
    else Stats.threshold ~rel:opts.rel ~k:0.0 ~mad:0.0 ov
  in
  Float.abs (nv -. ov) > gate

let zero_phase path depth =
  {
    path;
    depth;
    rounds = 0.0;
    messages = 0.0;
    bits = 0.0;
    seconds = 0.0;
    minor_words = 0.0;
  }

let parent_of path =
  match String.rindex_opt path '/' with
  | None -> ""
  | Some i -> String.sub path 0 i

let row_of ~opts ~mad status (old_p : phase) (new_p : phase) =
  let metrics =
    List.map
      (fun name ->
        let ov = metric_of old_p name and nv = metric_of new_p name in
        {
          m_name = name;
          m_old = ov;
          m_new = nv;
          m_sig = significant_delta ~opts ~mad name ov nv;
        })
      metric_names
  in
  let score =
    List.fold_left
      (fun acc m ->
        if m.m_sig then
          Float.max acc
            (Float.abs (m.m_new -. m.m_old) /. Float.max (Float.abs m.m_old) 1e-9)
        else acc)
      0.0 metrics
  in
  let keep = match status with Removed -> old_p | _ -> new_p in
  {
    r_path = keep.path;
    r_depth = keep.depth;
    r_status = status;
    r_metrics = metrics;
    r_score = score;
  }

let compare ?(options = default_options) (a : side) (b : side) =
  match (a.fingerprint, b.fingerprint) with
  | Some fa, Some fb
    when (not (Stats.fingerprint_equal fa fb)) && not options.force ->
      Error
        (Format.asprintf
           "refusing to compare across environments (use --force):@ %s: %a@ \
            %s: %a"
           a.label Stats.pp_fingerprint fa b.label Stats.pp_fingerprint fb)
  | _ ->
      let forced =
        match (a.fingerprint, b.fingerprint) with
        | Some fa, Some fb -> not (Stats.fingerprint_equal fa fb)
        | _ -> false
      in
      let mad = Float.max a.seconds_mad b.seconds_mad in
      let opts = options in
      let find side path =
        List.find_opt (fun p -> p.path = path) side.phases
      in
      let matched =
        List.filter_map
          (fun bp ->
            Option.map
              (fun ap -> row_of ~opts ~mad Matched ap bp)
              (find a bp.path))
          b.phases
      in
      let added = List.filter (fun bp -> find a bp.path = None) b.phases in
      let removed = List.filter (fun ap -> find b ap.path = None) a.phases in
      (* renamed-phase pairing: a removed and an added phase sharing
         parent and depth, taken in order, count as a rename when their
         round totals are within 2x (or both zero) *)
      let renamed = ref [] in
      let still_added = ref [] in
      let remaining_removed = ref removed in
      List.iter
        (fun bp ->
          let candidate =
            List.find_opt
              (fun ap ->
                ap.depth = bp.depth
                && parent_of ap.path = parent_of bp.path
                &&
                let r_old = ap.rounds and r_new = bp.rounds in
                if r_old = 0.0 && r_new = 0.0 then true
                else
                  r_old > 0.0 && r_new > 0.0
                  && r_new /. r_old >= 0.5
                  && r_new /. r_old <= 2.0)
              !remaining_removed
          in
          match candidate with
          | Some ap ->
              remaining_removed :=
                List.filter (fun p -> p.path <> ap.path) !remaining_removed;
              renamed := row_of ~opts ~mad (Renamed ap.path) ap bp :: !renamed
          | None -> still_added := bp :: !still_added)
        added;
      let added_rows =
        List.map
          (fun bp -> row_of ~opts ~mad Added (zero_phase bp.path bp.depth) bp)
          (List.rev !still_added)
      in
      let removed_rows =
        List.map
          (fun ap ->
            row_of ~opts ~mad Removed ap (zero_phase ap.path ap.depth))
          !remaining_removed
      in
      let rows = matched @ List.rev !renamed @ added_rows @ removed_rows in
      let rows =
        List.stable_sort
          (fun r1 r2 ->
            match Float.compare r2.r_score r1.r_score with
            | 0 -> String.compare r1.r_path r2.r_path
            | c -> c)
          rows
      in
      let significant =
        List.length
          (List.filter (fun r -> List.exists (fun m -> m.m_sig) r.r_metrics) rows)
      in
      Ok { a_label = a.label; b_label = b.label; forced; rows; significant }

let significant_rows t =
  List.filter (fun r -> List.exists (fun m -> m.m_sig) r.r_metrics) t.rows

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let status_cell = function
  | Matched -> ""
  | Added -> "added"
  | Removed -> "removed"
  | Renamed old -> "renamed from " ^ old

let delta_cell m =
  if m.m_old = m.m_new then "·"
  else
    let pct =
      if m.m_old <> 0.0 then
        Printf.sprintf " (%+.1f%%)" (100.0 *. (m.m_new -. m.m_old) /. m.m_old)
      else ""
    in
    Printf.sprintf "%s%g -> %g%s" (if m.m_sig then "! " else "") m.m_old m.m_new pct

let to_markdown t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "# Differential profile: %s vs %s\n\n" t.a_label t.b_label;
  if t.forced then
    add "**Warning:** environment fingerprints differ; comparison was forced.\n\n";
  if t.significant = 0 then
    add "No significant phase deltas (%d phases aligned).\n\n"
      (List.length t.rows)
  else
    add "%d of %d phases changed significantly (marked `!`).\n\n" t.significant
      (List.length t.rows);
  add "| phase | status | rounds | messages | bits | seconds | minor words |\n";
  add "|---|---|---|---|---|---|---|\n";
  List.iter
    (fun r ->
      add "| %s | %s |" r.r_path (status_cell r.r_status);
      List.iter (fun m -> add " %s |" (delta_cell m)) r.r_metrics;
      add "\n")
    t.rows;
  add "\n";
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\"diff\":{\"old\":%S,\"new\":%S,\"forced\":%b,\"significant\":%d,"
    t.a_label t.b_label t.forced t.significant;
  add "\"rows\":[%s]}}"
    (String.concat ","
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"path\":%S,\"depth\":%d,\"status\":%S,\"score\":%.6f,\"metrics\":[%s]}"
              r.r_path r.r_depth
              (match r.r_status with
              | Matched -> "matched"
              | Added -> "added"
              | Removed -> "removed"
              | Renamed old -> "renamed:" ^ old)
              r.r_score
              (String.concat ","
                 (List.map
                    (fun m ->
                      Printf.sprintf
                        "{\"name\":%S,\"old\":%g,\"new\":%g,\"significant\":%b}"
                        m.m_name m.m_old m.m_new m.m_sig)
                    r.r_metrics)))
          t.rows));
  Buffer.contents buf

(* difffolded input: "frame;frame old new", one line per stack, weights
   as integer microseconds of SELF time *)
let to_folded t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun r ->
      let sec name =
        match List.find_opt (fun m -> m.m_name = name) r.r_metrics with
        | Some m -> (m.m_old, m.m_new)
        | None -> (0.0, 0.0)
      in
      let o, v = sec "seconds" in
      Buffer.add_string buf
        (Printf.sprintf "%s %.0f %.0f\n"
           (String.map (fun c -> if c = '/' then ';' else c) r.r_path)
           (o *. 1e6) (v *. 1e6)))
    (List.stable_sort (fun r1 r2 -> String.compare r1.r_path r2.r_path) t.rows);
  Buffer.contents buf
