let const_to_string = function
  | Ast.Cint n -> string_of_int n
  | Ast.Cfloat f ->
    (* keep a dot so the lexer reads it back as a float *)
    let s = Printf.sprintf "%g" f in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Ast.Cstring s -> "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"

let attr_to_string (a : Ast.attr) =
  match a.rel with None -> a.name | Some r -> r ^ "." ^ a.name

let cmp_to_string = function
  | Ast.Eq -> "="
  | Ast.Neq -> "<>"
  | Ast.Lt -> "<"
  | Ast.Le -> "<="
  | Ast.Gt -> ">"
  | Ast.Ge -> ">="

let agg_to_string = function
  | Ast.Count -> "COUNT"
  | Ast.Sum -> "SUM"
  | Ast.Avg -> "AVG"
  | Ast.Min -> "MIN"
  | Ast.Max -> "MAX"

(* precedence: Or < And < Not < atoms; parenthesize a subterm whenever its
   operator binds looser than the context *)
let pred_prec = function
  | Ast.Or _ -> 1
  | Ast.And _ -> 2
  | Ast.Not _ -> 3
  | _ -> 4

(* one buffer for the whole predicate: concatenating per level would copy
   a flat AND chain once per operand, quadratic in its length *)
let rec add_pred b ctx p =
  let paren = pred_prec p < ctx in
  if paren then Buffer.add_char b '(';
  (match p with
   | Ast.Cmp (c, a, v) ->
     Printf.bprintf b "%s %s %s" (attr_to_string a) (cmp_to_string c)
       (const_to_string v)
   | Ast.Cmp_agg (c, f, a, v) ->
     let arg = match a with None -> "*" | Some a -> attr_to_string a in
     Printf.bprintf b "%s(%s) %s %s" (agg_to_string f) arg (cmp_to_string c)
       (const_to_string v)
   | Ast.Cmp_attrs (c, a, a') ->
     Printf.bprintf b "%s %s %s" (attr_to_string a) (cmp_to_string c)
       (attr_to_string a')
   | Ast.Between (a, lo, hi) ->
     Printf.bprintf b "%s BETWEEN %s AND %s" (attr_to_string a)
       (const_to_string lo) (const_to_string hi)
   | Ast.In_list (a, vs) ->
     Printf.bprintf b "%s IN (%s)" (attr_to_string a)
       (String.concat ", " (List.map const_to_string vs))
   | Ast.Like (a, pat) ->
     Printf.bprintf b "%s LIKE %s" (attr_to_string a)
       (const_to_string (Ast.Cstring pat))
   | Ast.Is_null a -> Printf.bprintf b "%s IS NULL" (attr_to_string a)
   | Ast.Is_not_null a -> Printf.bprintf b "%s IS NOT NULL" (attr_to_string a)
   (* AND/OR parse right-associatively, so a left-nested same-operator
      child needs parentheses for the print/parse round trip to be exact *)
   | Ast.And (l, r) ->
     add_pred b 3 l;
     Buffer.add_string b " AND ";
     add_pred b 2 r
   | Ast.Or (l, r) ->
     add_pred b 2 l;
     Buffer.add_string b " OR ";
     add_pred b 1 r
   | Ast.Not q ->
     Buffer.add_string b "NOT ";
     add_pred b 3 q);
  if paren then Buffer.add_char b ')'

let pred_to_string p =
  let b = Buffer.create 64 in
  add_pred b 0 p;
  Buffer.contents b

let with_alias base = function
  | None -> base
  | Some a -> base ^ " AS " ^ a

let select_item_to_string = function
  | Ast.Star -> "*"
  | Ast.Sel_attr (a, alias) -> with_alias (attr_to_string a) alias
  | Ast.Sel_agg (f, None, alias) -> with_alias (agg_to_string f ^ "(*)") alias
  | Ast.Sel_agg (f, Some a, alias) ->
    with_alias (Printf.sprintf "%s(%s)" (agg_to_string f) (attr_to_string a)) alias

let to_string (q : Ast.query) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "SELECT ";
  if q.distinct then Buffer.add_string buf "DISTINCT ";
  Buffer.add_string buf (String.concat ", " (List.map select_item_to_string q.select));
  Buffer.add_string buf " FROM ";
  Buffer.add_string buf (String.concat ", " q.from);
  List.iter
    (fun (j : Ast.join) ->
      let kw = match j.Ast.jkind with Ast.Inner -> "JOIN" | Ast.Left -> "LEFT JOIN" in
      Buffer.add_string buf
        (Printf.sprintf " %s %s ON %s = %s" kw j.Ast.jrel
           (attr_to_string j.Ast.jleft) (attr_to_string j.Ast.jright)))
    q.joins;
  (match q.where with
   | None -> ()
   | Some p ->
     Buffer.add_string buf " WHERE ";
     add_pred buf 0 p);
  (match q.group_by with
   | [] -> ()
   | gs ->
     Buffer.add_string buf
       (" GROUP BY " ^ String.concat ", " (List.map attr_to_string gs)));
  (match q.having with
   | None -> ()
   | Some p ->
     Buffer.add_string buf " HAVING ";
     add_pred buf 0 p);
  (match q.order_by with
   | [] -> ()
   | os ->
     let one (a, d) =
       attr_to_string a ^ (match d with Ast.Asc -> "" | Ast.Desc -> " DESC")
     in
     Buffer.add_string buf (" ORDER BY " ^ String.concat ", " (List.map one os)));
  (match q.limit with
   | None -> ()
   | Some n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n));
  Buffer.contents buf
