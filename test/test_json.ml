(* Tests for the Json codec: the quote/parse round-trip over arbitrary
   bytes, nesting, strict rejection with offsets, \u decoding, and that
   the output of every in-repo emitter parses. *)

let check = Alcotest.check

let parse_ok text =
  match Json.of_string text with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "rejected %S: %s" text e)

let error_of text =
  match Json.of_string text with
  | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" text)
  | Error e -> e

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)

let prop_quote_roundtrip =
  QCheck.Test.make ~count:1000 ~name:"of_string (quote s) = String s"
    QCheck.(
      make ~print:(Printf.sprintf "%S")
        Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 64)))
    (fun s -> Json.of_string (Json.quote s) = Ok (Json.String s))

let test_quote_every_byte () =
  (* one string holding all 256 byte values, so no byte is left to the
     generator's luck *)
  let s = String.init 256 Char.chr in
  check Alcotest.bool "all bytes round-trip" true
    (Json.of_string (Json.quote s) = Ok (Json.String s));
  check Alcotest.string "UTF-8 passes through raw" "\"h\xc3\xb6st\""
    (Json.quote "h\xc3\xb6st");
  check Alcotest.string "short and \\u escapes" "\"a\\\"b\\\\c\\nd\\te\\u0001\""
    (Json.quote "a\"b\\c\nd\te\001")

let test_nested () =
  let v = parse_ok {| { "a" : [1, -2.5e3, [true, false, null], {}], "b": {"c": "d"}, "e": [] } |} in
  check Alcotest.bool "structure" true
    (v
    = Json.Object
        [
          ( "a",
            Json.Array
              [
                Json.Number 1.0;
                Json.Number (-2500.0);
                Json.Array [ Json.Bool true; Json.Bool false; Json.Null ];
                Json.Object [];
              ] );
          ("b", Json.Object [ ("c", Json.String "d") ]);
          ("e", Json.Array []);
        ]);
  check Alcotest.(option string) "member + to_string_opt" (Some "d")
    (Option.bind
       (Option.bind (Json.member "b" v) (Json.member "c"))
       Json.to_string_opt);
  check Alcotest.int "to_list" 4
    (List.length (Json.to_list (Option.get (Json.member "a" v))));
  check Alcotest.(list int) "to_int_opt on integral numbers only" [ 1; -2500 ]
    (List.filter_map Json.to_int_opt
       (Json.to_list (Option.get (Json.member "a" v))));
  check Alcotest.(option int) "fractional is not an int" None
    (Json.to_int_opt (Json.Number 0.5));
  check Alcotest.(option (float 0.0)) "to_float_opt" (Some (-2500.0))
    (Json.to_float_opt (List.nth (Json.to_list (Option.get (Json.member "a" v))) 1));
  check Alcotest.(option string) "member of a non-object" None
    (Option.bind (Json.member "a" (Json.Array [])) Json.to_string_opt)

let test_rejections () =
  let e = error_of {|{"a":1} x|} in
  check Alcotest.bool ("trailing garbage: " ^ e) true
    (contains e "trailing" && contains e "offset 8");
  let e = error_of {|{"a":"abc|} in
  check Alcotest.bool ("unterminated string: " ^ e) true
    (contains e "unterminated string" && contains e "offset 9");
  List.iter
    (fun bad -> ignore (error_of bad))
    [
      "";
      "{";
      "[1,]";
      "{\"a\" 1}";
      "01";
      "1.";
      "+1";
      "nul";
      "\"\\x\"";
      "\"a\nb\"";
      "{\"a\":1,}";
    ]

let test_unicode_escapes () =
  let str text =
    match parse_ok text with
    | Json.String s -> s
    | _ -> Alcotest.fail "not a string"
  in
  check Alcotest.string "ASCII" "A/" (str {|"\u0041\/"|});
  check Alcotest.string "two-byte UTF-8" "\xc3\xa9" (str {|"\u00e9"|});
  check Alcotest.string "three-byte UTF-8" "\xe2\x82\xac" (str {|"\u20AC"|});
  check Alcotest.string "surrogate pair" "\xf0\x9f\x98\x80"
    (str {|"\ud83d\ude00"|});
  check Alcotest.string "lone surrogate" "\xef\xbf\xbdx" (str {|"\ud83dx"|});
  ignore (error_of {|"\u12"|});
  ignore (error_of {|"\u12g4"|})

(* ------------------------------------------------------------------ *)
(* Every emitter's output parses                                        *)
(* ------------------------------------------------------------------ *)

let parses name text =
  match Json.of_string text with
  | Ok v -> v
  | Error e -> Alcotest.fail (Printf.sprintf "%s does not parse: %s" name e)

let test_report_json () =
  let d = Workload.Algorithms.find_decomposer "thm2.3" in
  let r = Workload.Report.of_decomposer ~seed:1 d Workload.Suite.grid ~n:64 in
  let v = parses "Report.to_json" (Workload.Report.to_json r) in
  check Alcotest.(option string) "algo" (Some "thm2.3")
    (Option.bind
       (Option.bind (Json.member "report" v) (Json.member "algo"))
       Json.to_string_opt)

let test_conform_json () =
  let d = Workload.Algorithms.find_decomposer "thm2.3" in
  let row = Workload.Conform.decomposer_row ~seed:1 d Workload.Suite.grid ~n:64 in
  match parses "Conform.to_json" (Workload.Conform.to_json [ row ]) with
  | Json.Array [ r ] ->
      check Alcotest.(option string) "target" (Some "decomposer:thm2.3")
        (Option.bind (Json.member "target" r) Json.to_string_opt)
  | _ -> Alcotest.fail "expected a one-row array"

let test_chrome_and_metrics_json () =
  let sink = Congest.Trace.sink () in
  let res = Congest.Resource.create () in
  Congest.Resource.attach res sink;
  ignore
    (Weakdiam.Distributed.carve ~trace:sink (Dsgraph.Gen.grid 4 4) ~epsilon:0.5);
  let chrome = parses "Resource.chrome_json" (Congest.Resource.chrome_json res) in
  check Alcotest.bool "chrome events" true
    (Json.to_list (Option.get (Json.member "traceEvents" chrome)) <> []);
  let lines =
    String.split_on_char '\n'
      (Congest.Metrics.to_jsonl (Congest.Metrics.of_trace sink))
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.bool "metrics lines" true (lines <> []);
  List.iter (fun l -> ignore (parses "Metrics.to_jsonl line" l)) lines;
  String.split_on_char '\n' (Congest.Trace.to_jsonl sink)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l -> ignore (parses "Trace.to_jsonl line" l))

let test_snapshot_json () =
  let fp = Workload.Stats.current_fingerprint () in
  let line =
    Workload.Trajectory.snapshot_json ~fingerprint:fp ~time:1.0
      [
        {
          Workload.Trajectory.name = "w\xc3\xa9/\"q\"";
          rounds = 1;
          messages = 2;
          max_bits = 3;
          phases = 4;
          seconds = 0.5;
          seconds_mad = 0.01;
          minor_words_per_node = 6.0;
          peak_heap_mb = 7.0;
        };
      ]
  in
  ignore (parses "Trajectory.snapshot_json" line);
  match Workload.Trajectory.snapshot_of_line line with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check Alcotest.(list string) "names" [ "w\xc3\xa9/\"q\"" ]
        (List.map fst s.Workload.Trajectory.workloads);
      check Alcotest.bool "fingerprint" true
        (s.Workload.Trajectory.fingerprint = Some fp)

(* the committed analyzer report, one directory above the test dir *)
let test_committed_analyze_results () =
  let path =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "analyze_results.json"
  in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let v = parses "analyze_results.json" text in
  check Alcotest.bool "modules listed" true
    (Json.to_list (Option.get (Json.member "modules" v)) <> [])

let () =
  Alcotest.run "json"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_quote_roundtrip;
          Alcotest.test_case "every byte value quotes" `Quick
            test_quote_every_byte;
          Alcotest.test_case "nested arrays and objects" `Quick test_nested;
          Alcotest.test_case "rejections carry offsets" `Quick test_rejections;
          Alcotest.test_case "\\u escapes decode to UTF-8" `Quick
            test_unicode_escapes;
        ] );
      ( "emitters",
        [
          Alcotest.test_case "Report.to_json" `Quick test_report_json;
          Alcotest.test_case "Conform.to_json" `Quick test_conform_json;
          Alcotest.test_case "chrome, metrics and trace JSON" `Quick
            test_chrome_and_metrics_json;
          Alcotest.test_case "trajectory snapshot line" `Quick
            test_snapshot_json;
          Alcotest.test_case "committed analyze_results.json" `Quick
            test_committed_analyze_results;
        ] );
    ]
