open Lexer

exception Parse_error of string

let max_depth = 512

(* [depth] counts the open parentheses and NOTs around the predicate
   being parsed, so hostile nesting fails fast instead of recursing *)
type state = { mutable toks : token list; mutable depth : int }

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let peek st = match st.toks with [] -> None | t :: _ -> Some t

let advance st =
  match st.toks with
  | [] -> fail "unexpected end of input"
  | t :: rest ->
    st.toks <- rest;
    t

let expect_kw st kw =
  match advance st with
  | Kw k when k = kw -> ()
  | t -> fail "expected %s, found %s" kw (token_to_string t)

let expect_sym st sym =
  match advance st with
  | Sym s when s = sym -> ()
  | t -> fail "expected %s, found %s" sym (token_to_string t)

let accept_kw st kw =
  match peek st with
  | Some (Kw k) when k = kw ->
    ignore (advance st);
    true
  | _ -> false

let accept_sym st sym =
  match peek st with
  | Some (Sym s) when s = sym ->
    ignore (advance st);
    true
  | _ -> false

let ident st =
  match advance st with
  | Ident s -> s
  | t -> fail "expected identifier, found %s" (token_to_string t)

(* attr ::= ident | ident "." ident *)
let attr st =
  let first = ident st in
  if accept_sym st "." then { Ast.rel = Some first; name = ident st }
  else { Ast.rel = None; name = first }

let const st =
  match advance st with
  | Int_lit n -> Ast.Cint n
  | Float_lit f -> Ast.Cfloat f
  | Str_lit s -> Ast.Cstring s
  | t -> fail "expected constant, found %s" (token_to_string t)

let cmp_of_sym = function
  | "=" -> Some Ast.Eq
  | "<>" -> Some Ast.Neq
  | "<" -> Some Ast.Lt
  | "<=" -> Some Ast.Le
  | ">" -> Some Ast.Gt
  | ">=" -> Some Ast.Ge
  | _ -> None

let cmp st =
  match advance st with
  | Sym s ->
    (match cmp_of_sym s with
     | Some c -> c
     | None -> fail "expected comparison operator, found %s" s)
  | t -> fail "expected comparison operator, found %s" (token_to_string t)

let agg_of_kw = function
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "AVG" -> Some Ast.Avg
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | _ -> None

let alias st = if accept_kw st "AS" then Some (ident st) else None

let select_item st =
  match peek st with
  | Some (Kw k) when agg_of_kw k <> None ->
    ignore (advance st);
    let fn = Option.get (agg_of_kw k) in
    expect_sym st "(";
    let arg =
      if accept_sym st "*" then
        if fn = Ast.Count then None
        else fail "%s(*) is only valid for COUNT" k
      else Some (attr st)
    in
    expect_sym st ")";
    Ast.Sel_agg (fn, arg, alias st)
  | _ ->
    let a = attr st in
    Ast.Sel_attr (a, alias st)

let select_items st =
  if accept_sym st "*" then [ Ast.Star ]
  else begin
    let rec go acc =
      let item = select_item st in
      if accept_sym st "," then go (item :: acc) else List.rev (item :: acc)
    in
    go []
  end

(* atom with attribute on the left, already consumed *)
let atom_after_attr st a =
  let negated = accept_kw st "NOT" in
  let wrap p = if negated then Ast.Not p else p in
  match peek st with
  | Some (Kw "BETWEEN") ->
    ignore (advance st);
    let lo = const st in
    expect_kw st "AND";
    let hi = const st in
    wrap (Ast.Between (a, lo, hi))
  | Some (Kw "IN") ->
    ignore (advance st);
    expect_sym st "(";
    let rec go acc =
      let v = const st in
      if accept_sym st "," then go (v :: acc) else List.rev (v :: acc)
    in
    let vs = go [] in
    expect_sym st ")";
    wrap (Ast.In_list (a, vs))
  | Some (Kw "LIKE") ->
    ignore (advance st);
    (match advance st with
     | Str_lit pat -> wrap (Ast.Like (a, pat))
     | t -> fail "expected pattern string after LIKE, found %s" (token_to_string t))
  | Some (Kw "IS") ->
    if negated then fail "NOT before IS is not supported; use IS NOT NULL";
    ignore (advance st);
    let inner_not = accept_kw st "NOT" in
    expect_kw st "NULL";
    if inner_not then Ast.Is_not_null a else Ast.Is_null a
  | _ ->
    if negated then fail "NOT must precede BETWEEN, IN or LIKE here";
    let c = cmp st in
    (match peek st with
     | Some (Int_lit _ | Float_lit _ | Str_lit _) -> Ast.Cmp (c, a, const st)
     | Some (Ident _) -> Ast.Cmp_attrs (c, a, attr st)
     | Some t -> fail "expected constant or attribute, found %s" (token_to_string t)
     | None -> fail "unexpected end of input in predicate")

let atom st =
  match peek st with
  | Some (Kw k) when agg_of_kw k <> None ->
    ignore (advance st);
    let fn = Option.get (agg_of_kw k) in
    expect_sym st "(";
    let arg =
      if accept_sym st "*" then
        if fn = Ast.Count then None
        else fail "%s(*) is only valid for COUNT" k
      else Some (attr st)
    in
    expect_sym st ")";
    let c = cmp st in
    Ast.Cmp_agg (c, fn, arg, const st)
  | Some (Int_lit _ | Float_lit _ | Str_lit _) ->
    (* constant-first comparison: normalize to attribute-first *)
    let v = const st in
    let c = cmp st in
    let a = attr st in
    Ast.Cmp (Ast.cmp_flip c, a, v)
  | _ ->
    let a = attr st in
    atom_after_attr st a

let rec pred st = or_pred st

and or_pred st =
  let left = and_pred st in
  if accept_kw st "OR" then Ast.Or (left, or_pred st) else left

and and_pred st =
  let left = unit_pred st in
  if accept_kw st "AND" then Ast.And (left, and_pred st) else left

and unit_pred st =
  if accept_kw st "NOT" then nested st (fun () -> Ast.Not (unit_pred st))
  else if accept_sym st "(" then
    nested st (fun () ->
        let p = pred st in
        expect_sym st ")";
        p)
  else atom st

and nested st f =
  if st.depth >= max_depth then fail "predicate nesting deeper than %d" max_depth;
  st.depth <- st.depth + 1;
  let p = f () in
  st.depth <- st.depth - 1;
  p

let attr_list st =
  let rec go acc =
    let a = attr st in
    if accept_sym st "," then go (a :: acc) else List.rev (a :: acc)
  in
  go []

let order_list st =
  let rec go acc =
    let a = attr st in
    let dir =
      if accept_kw st "DESC" then Ast.Desc
      else begin
        ignore (accept_kw st "ASC");
        Ast.Asc
      end
    in
    if accept_sym st "," then go ((a, dir) :: acc) else List.rev ((a, dir) :: acc)
  in
  go []

let query st =
  expect_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let select = select_items st in
  expect_kw st "FROM";
  let rec from_list acc =
    let r = ident st in
    if accept_sym st "," then from_list (r :: acc) else List.rev (r :: acc)
  in
  let from = from_list [] in
  let rec joins acc =
    let kind =
      if accept_kw st "INNER" then begin
        expect_kw st "JOIN";
        Some Ast.Inner
      end
      else if accept_kw st "LEFT" then begin
        ignore (accept_kw st "OUTER");
        expect_kw st "JOIN";
        Some Ast.Left
      end
      else if accept_kw st "JOIN" then Some Ast.Inner
      else None
    in
    match kind with
    | Some jkind ->
      let jrel = ident st in
      expect_kw st "ON";
      let jleft = attr st in
      expect_sym st "=";
      let jright = attr st in
      joins ({ Ast.jkind; jrel; jleft; jright } :: acc)
    | None -> List.rev acc
  in
  let joins = joins [] in
  let where = if accept_kw st "WHERE" then Some (pred st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      attr_list st
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (pred st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      order_list st
    end
    else []
  in
  let limit =
    if accept_kw st "LIMIT" then begin
      match advance st with
      | Int_lit n -> Some n
      | t -> fail "expected integer after LIMIT, found %s" (token_to_string t)
    end
    else None
  in
  ignore (accept_sym st ";");
  (match st.toks with
   | [] -> ()
   | t :: _ -> fail "trailing input starting at %s" (token_to_string t));
  { Ast.distinct; select; from; joins; where; group_by; having; order_by; limit }

let parse input =
  let st = { toks = Lexer.tokenize input; depth = 0 } in
  query st

let parse_result input =
  match parse input with
  | q -> Ok q
  | exception Parse_error msg -> Error msg
  | exception Lexer.Lex_error (msg, off) ->
    Error (Printf.sprintf "%s at offset %d" msg off)
