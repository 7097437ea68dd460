module Ast = Sqlir.Ast

let w_projection = 0.35
let w_group_by = 0.50
let w_selection = 0.15

let attr_str = Sqlir.Printer.attr_to_string

let projection_set (q : Ast.query) =
  List.filter_map
    (function
      | Ast.Star -> Some "*"
      | Ast.Sel_attr (a, _) -> Some (attr_str a)
      | Ast.Sel_agg (fn, arg, _) ->
        Some
          ((match fn with
            | Ast.Count -> "count" | Ast.Sum -> "sum" | Ast.Avg -> "avg"
            | Ast.Min -> "min" | Ast.Max -> "max")
           ^ "("
           ^ (match arg with None -> "*" | Some a -> attr_str a)
           ^ ")"))
    q.Ast.select
  |> List.sort_uniq String.compare

let group_by_set (q : Ast.query) =
  List.map attr_str q.Ast.group_by |> List.sort_uniq String.compare

let selection_set (q : Ast.query) =
  let atom_shape p =
    match p with
    | Ast.Cmp (c, a, _) -> Some (attr_str a ^ " " ^ Sqlir.Printer.cmp_to_string c)
    | Ast.Cmp_attrs (c, a, b) ->
      Some (attr_str a ^ " " ^ Sqlir.Printer.cmp_to_string c ^ " " ^ attr_str b)
    | Ast.Between (a, _, _) -> Some (attr_str a ^ " between")
    | Ast.In_list (a, _) -> Some (attr_str a ^ " in")
    | Ast.Like (a, _) -> Some (attr_str a ^ " like")
    | Ast.Is_null a -> Some (attr_str a ^ " null")
    | Ast.Is_not_null a -> Some (attr_str a ^ " notnull")
    | Ast.Cmp_agg (c, fn, arg, _) ->
      Some
        (Printf.sprintf "%s(%s) %s"
           (match fn with
            | Ast.Count -> "count" | Ast.Sum -> "sum" | Ast.Avg -> "avg"
            | Ast.Min -> "min" | Ast.Max -> "max")
           (match arg with None -> "*" | Some a -> attr_str a)
           (Sqlir.Printer.cmp_to_string c))
    | Ast.And _ | Ast.Or _ | Ast.Not _ -> None
  in
  let preds =
    Option.to_list q.Ast.where @ Option.to_list q.Ast.having
    |> List.concat_map Ast.predicate_atoms
  in
  (* join conditions participate in selection too *)
  let joins =
    List.map
      (fun (j : Ast.join) -> attr_str j.Ast.jleft ^ " = " ^ attr_str j.Ast.jright)
      q.Ast.joins
  in
  (List.filter_map atom_shape preds @ joins) |> List.sort_uniq String.compare

let combine ~projection ~group_by ~selection =
  ((w_projection *. projection)
   +. (w_group_by *. group_by)
   +. (w_selection *. selection))
  /. (w_projection +. w_group_by +. w_selection)
