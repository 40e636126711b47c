type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let quote s =
  if not (String.exists needs_escape s) then "\"" ^ s ^ "\""
  else begin
    let b = Buffer.create (String.length s + 8) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end

exception Bad of string * int

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code * 16) + d
    done;
    pos := !pos + 4;
    !code
  in
  (* [pos] is just past the "\u"; surrogate pairs combine, a lone
     surrogate becomes U+FFFD *)
  let unicode_escape buf =
    let hi = hex4 () in
    let code =
      if hi >= 0xD800 && hi <= 0xDBFF
         && !pos + 1 < n
         && s.[!pos] = '\\'
         && s.[!pos + 1] = 'u'
      then begin
        let save = !pos in
        pos := !pos + 2;
        let lo = hex4 () in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
        else begin
          pos := save;
          0xFFFD
        end
      end
      else if hi >= 0xD800 && hi <= 0xDFFF then 0xFFFD
      else hi
    in
    Buffer.add_utf_8_uchar buf (Uchar.of_int code)
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
            if !pos >= n then fail "unterminated string";
            let c = s.[!pos] in
            incr pos;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' -> unicode_escape buf
            | c ->
                decr pos;
                fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c when Char.code c < 0x20 -> fail "control character in string"
        | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents buf
  in
  (* JSON's number grammar: optional '-', then 0 or a digit run without
     a leading zero, an optional fraction and an optional exponent *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        incr pos
      done;
      if !pos = d0 then fail "bad number"
    in
    if peek () = Some '-' then incr pos;
    (match peek () with
    | Some '0' -> incr pos
    | Some '1' .. '9' -> digits ()
    | _ -> fail "bad number");
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    Number (float_of_string (String.sub s start (!pos - start)))
  in
  let keyword word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail ("expected " ^ word)
  in
  (* [item] parses one element after the opening bracket has been
     consumed; elements are separated by ',' up to [close] *)
  let sequence close item =
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else begin
      let rec loop acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            loop acc
        | Some c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      loop []
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        incr pos;
        Object
          (sequence '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | Some '[' ->
        incr pos;
        Array (sequence ']' value)
    | Some '"' -> String (parse_string ())
    | Some 't' -> keyword "true" (Bool true)
    | Some 'f' -> keyword "false" (Bool false)
    | Some 'n' -> keyword "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Bad (msg, at) -> Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function Object kvs -> List.assoc_opt key kvs | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_float_opt = function Number f -> Some f | _ -> None

let to_int_opt = function
  | Number f when Float.is_integer f && Float.abs f < 0x1p62 ->
      Some (int_of_float f)
  | _ -> None

let to_list = function Array l -> l | _ -> []
