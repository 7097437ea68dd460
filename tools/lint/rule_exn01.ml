(* EXN01 — bare panics inside functions handed to Parallel.Pool.

   A task that raises inside a pool batch does not surface where it
   happened: the exception crosses a domain boundary, is stashed, and is
   re-raised only after the whole batch drains ([Pool.run_tasks]'s
   contract), by which point the lane's partial work is silently gone.
   Flags [assert false] and [failwith] occurring inside a syntactic
   [fun]/[function] argument of a [Pool.run_tasks] / [Pool.for_range] /
   [Pool.map_range] / [Pool.map_range_r] / [Pool.both] call (both
   [Pool.x] and [Parallel.Pool.x] spellings).  [map_range_r] contains
   the exception, but a panic there still reports an anonymous
   [Unexpected] instead of the typed cause.  Named task functions are
   a known blind spot of the syntactic check. *)

open Parsetree

let id = "EXN01"
let severity = Rule.Error

let pool_combinators =
  [ "run_tasks"; "for_range"; "map_range"; "map_range_r"; "both" ]

let is_pool_call txt =
  match List.rev (Rule.flatten_longident txt) with
  | fn :: "Pool" :: _ -> List.mem fn pool_combinators
  | _ -> false

let contains_fun (e : expression) =
  Rule.exists_expr e (fun e ->
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> true
      | _ -> false)

(* collect panic sites inside [e] *)
let panics (e : expression) =
  let acc = ref [] in
  let open Ast_iterator in
  let it =
    { default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
           | Pexp_assert
               { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ } ->
             acc := (e.pexp_loc, "assert false") :: !acc
           | Pexp_ident { txt; _ }
             when (match Rule.norm_longident txt with
                  | [ "failwith" ] -> true
                  | _ -> false) ->
             acc := (e.pexp_loc, "failwith") :: !acc
           | _ -> ());
          default_iterator.expr self e) }
  in
  it.expr it e;
  List.rev !acc

let check (src : Rule.source) =
  match src.impl with
  | None -> []
  | Some str ->
    let acc = ref [] in
    Rule.iter_exprs str (fun e ->
        match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
          when is_pool_call txt ->
          List.iter
            (fun (_, arg) ->
              if contains_fun arg then
                List.iter
                  (fun (loc, what) ->
                    acc :=
                      Rule.at id severity ~path:src.path loc
                        (what
                        ^ " inside a Parallel.Pool task: the exception crosses a \
                           domain boundary and only surfaces after the batch \
                           drains; return a result or handle it in the task")
                      :: !acc)
                  (panics arg))
            args
        | _ -> ());
    List.rev !acc

let rule : Rule.t =
  { Rule.id;
    severity;
    doc = "no bare assert false / failwith inside closures passed to Parallel.Pool";
    check }
