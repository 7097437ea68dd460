(* Minimal recursive-descent JSON reader for the export layer's own
   artifacts (metric snapshots, BENCH_PR*.json).  Full RFC 8259 value
   grammar, no streaming, no dependency — the repo deliberately carries
   no third-party JSON library.  Numbers are floats (ints in our
   snapshots are well below 2^53, so round-tripping is exact). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.s
    && match c.s.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected '%c' at offset %d, found '%c'" ch c.pos x
  | None -> fail "expected '%c' at offset %d, found end of input" ch c.pos

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail "invalid literal at offset %d" c.pos

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    if c.pos >= String.length c.s then fail "unterminated string"
    else begin
      let ch = c.s.[c.pos] in
      c.pos <- c.pos + 1;
      match ch with
      | '"' -> Buffer.contents b
      | '\\' ->
        (if c.pos >= String.length c.s then fail "unterminated escape";
         let e = c.s.[c.pos] in
         c.pos <- c.pos + 1;
         (match e with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
            if c.pos + 4 > String.length c.s then fail "truncated \\u escape";
            let hex = String.sub c.s c.pos 4 in
            c.pos <- c.pos + 4;
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail "bad \\u escape %s" hex
            in
            (* escaped control chars in our own output are ASCII; encode
               anything else as UTF-8 *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
          | e -> fail "bad escape '\\%c'" e));
        go ()
      | ch -> Buffer.add_char b ch; go ()
    end
  in
  go ()

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.s && is_num_char c.s.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let tok = String.sub c.s start (c.pos - start) in
  match float_of_string_opt tok with
  | Some f -> Num f
  | None -> fail "bad number %S at offset %d" tok start

(* the parser recurses once per open bracket, and [Proto] runs it on
   client frames before any deadline applies: a frame of 4 MB of '['
   must fail at the bound, not after millions of stack frames *)
let max_depth = 512

let rec parse_value c depth =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some ('{' | '[') when depth >= max_depth ->
    fail "nesting deeper than %d at offset %d" max_depth c.pos
  | Some '{' ->
    expect c '{';
    skip_ws c;
    if peek c = Some '}' then (expect c '}'; Obj [])
    else begin
      let rec members acc =
        skip_ws c;
        let key = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' -> expect c ','; members ((key, v) :: acc)
        | Some '}' -> expect c '}'; Obj (List.rev ((key, v) :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      members []
    end
  | Some '[' ->
    expect c '[';
    skip_ws c;
    if peek c = Some ']' then (expect c ']'; Arr [])
    else begin
      let rec items acc =
        let v = parse_value c (depth + 1) in
        skip_ws c;
        match peek c with
        | Some ',' -> expect c ','; items (v :: acc)
        | Some ']' -> expect c ']'; Arr (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      items []
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { s; pos = 0 } in
  match parse_value c 0 with
  | v ->
    skip_ws c;
    if c.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Parse_error m -> Error m

(* ---- accessors ---- *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_obj = function Obj kvs -> Some kvs | _ -> None
(* integral and inside [min_int, max_int] = [-2^62, 2^62): never
   truncated, never wrapped *)
let to_int = function
  | Num f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Some (int_of_float f)
  | _ -> None
