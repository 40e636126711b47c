type entry = {
  name : string;
  rounds : int;
  messages : int;
  max_bits : int;
  phases : int;
  seconds : float;
  seconds_mad : float;
  minor_words_per_node : float;
  peak_heap_mb : float;
}

let snapshot_json ?fingerprint ~time entries =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "{\"time\":%.0f," time);
  (match fingerprint with
  | Some fp ->
      Buffer.add_string buf
        (Printf.sprintf "\"fingerprint\":%s," (Stats.fingerprint_json fp))
  | None -> ());
  Buffer.add_string buf "\"workloads\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"rounds\":%d,\"messages\":%d,\"max_bits\":%d,\"phases\":%d,\"seconds\":%.4f,\"seconds_median\":%.4f,\"seconds_mad\":%.6f,\"minor_words_per_node\":%.1f,\"peak_heap_mb\":%.1f}"
           (Json.quote e.name) e.rounds e.messages e.max_bits e.phases e.seconds e.seconds
           e.seconds_mad e.minor_words_per_node e.peak_heap_mb))
    entries;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* the trajectory file is a JSON array with exactly one snapshot object
   per line, so appending = collect the '{'-lines and rewrite *)
let read_snapshot_lines ?(warn = fun ~line_number:_ _ -> ()) path =
  if not (Sys.file_exists path) then []
  else begin
    let ic = open_in path in
    let lines = ref [] in
    let lineno = ref 0 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         incr lineno;
         if String.length line > 0 then
           if line.[0] = '{' then begin
             let line =
               if line.[String.length line - 1] = ',' then
                 String.sub line 0 (String.length line - 1)
               else line
             in
             match Json.of_string line with
             | Ok (Json.Object _) -> lines := line :: !lines
             | _ -> warn ~line_number:!lineno line
           end
           else if line <> "[" && line <> "]" then
             warn ~line_number:!lineno line
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !lines
  end

let write path lines =
  let oc = open_out path in
  output_string oc "[\n";
  output_string oc (String.concat ",\n" lines);
  output_string oc "\n]\n";
  close_out oc

type snapshot = {
  time : float;
  fingerprint : Stats.fingerprint option;
  workloads : (string * (string * float) list) list;
}

let empty_snapshot = { time = 0.0; fingerprint = None; workloads = [] }

let snapshot_of_line line =
  match Json.of_string line with
  | Error e -> Error e
  | Ok (Json.Object _ as v) ->
      let workload w =
        match (Json.member "name" w, w) with
        | Some (Json.String name), Json.Object kvs ->
            Some
              ( name,
                List.filter_map
                  (fun (k, x) -> Option.map (fun f -> (k, f)) (Json.to_float_opt x))
                  kvs )
        | _ -> None
      in
      Ok
        {
          time =
            Option.value
              (Option.bind (Json.member "time" v) Json.to_float_opt)
              ~default:0.0;
          fingerprint =
            Option.bind (Json.member "fingerprint" v) Stats.fingerprint_of_value;
          workloads =
            List.filter_map workload
              (Json.to_list
                 (Option.value (Json.member "workloads" v) ~default:Json.Null));
        }
  | Ok _ -> Error "snapshot line is not a JSON object"

let fingerprint_of_line line =
  match snapshot_of_line line with
  | Ok { fingerprint = Some fp; _ } -> Some (Stats.fingerprint_json fp)
  | _ -> None

type regression = {
  r_name : string;
  r_metric : string;
  r_old : float;
  r_new : float;
  r_pct : float;
}

let default_metrics =
  [
    "rounds";
    "messages";
    "max_bits";
    "seconds";
    "minor_words_per_node";
    "peak_heap_mb";
  ]

let read_or_empty line =
  Result.value (snapshot_of_line line) ~default:empty_snapshot

let compare_workloads ~metrics ~k olds news =
  List.concat_map
    (fun (name, ncols) ->
      match List.assoc_opt name olds with
      | None -> []  (* newly-added row: nothing to diff against *)
      | Some ocols ->
          List.filter_map
            (fun metric ->
              match (List.assoc_opt metric ocols, List.assoc_opt metric ncols) with
              | Some ov, Some nv when ov > 0.0 ->
                  (* noisy metrics carry a recorded "<metric>_mad"
                     column; the gate widens to max(10%, k*MAD), and
                     metrics without one keep the pure 10% gate *)
                  let mad_of cols =
                    Option.value (List.assoc_opt (metric ^ "_mad") cols)
                      ~default:0.0
                  in
                  let mad = Float.max (mad_of ocols) (mad_of ncols) in
                  (* seconds additionally needs to clear an absolute
                     floor (as in {!Diff}): sub-millisecond headline
                     jitter on the fast workloads never flags *)
                  let floor = if metric = "seconds" then 0.005 else 0.0 in
                  if Stats.exceeds ~k ~mad ~baseline:ov nv && nv -. ov > floor
                  then
                    Some
                      {
                        r_name = name;
                        r_metric = metric;
                        r_old = ov;
                        r_new = nv;
                        r_pct = 100.0 *. (nv -. ov) /. ov;
                      }
                  else None
              | _ -> None)
            metrics)
    news

let compare_lines ?(metrics = default_metrics) ?(k = 3.0) ~old_line ~new_line
    () =
  compare_workloads ~metrics ~k (read_or_empty old_line).workloads
    (read_or_empty new_line).workloads

type verdict =
  | Regressions of regression list
  | Incomparable of { old_fp : string; new_fp : string }

let compare_snapshots ?(metrics = default_metrics) ?(k = 3.0) ~old_line
    ~new_line () =
  let o = read_or_empty old_line and n = read_or_empty new_line in
  match (o.fingerprint, n.fingerprint) with
  | Some ofp, Some nfp when not (Stats.fingerprint_equal ofp nfp) ->
      Incomparable
        { old_fp = Stats.fingerprint_json ofp; new_fp = Stats.fingerprint_json nfp }
  | _ -> Regressions (compare_workloads ~metrics ~k o.workloads n.workloads)

let verdict_line = function
  | Incomparable _ -> "not compared: the environment fingerprint changed"
  | Regressions [] -> "no significant regressions vs the previous snapshot"
  | Regressions regs ->
      Printf.sprintf "%d significant regression(s) vs the previous snapshot"
        (List.length regs)

let regression_line r =
  Printf.sprintf "regression: %s %s: %g -> %g (+%.1f%%)" r.r_name r.r_metric
    r.r_old r.r_new r.r_pct
