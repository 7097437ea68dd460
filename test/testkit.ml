(* Shared QCheck generators for the test suites: random (syntactically
   valid) SQL queries and values. *)

module Ast = Sqlir.Ast
module Gen = QCheck.Gen

let ident_pool = [ "a"; "b"; "c"; "d"; "price"; "qty"; "name_"; "cat" ]
let rel_pool = [ "r"; "s"; "t_" ]

let ident = Gen.oneofl ident_pool
let rel_name = Gen.oneofl rel_pool

let small_string =
  Gen.oneofl [ "x"; "yz"; "foo"; "it's"; "A B"; ""; "100%"; "under_score" ]

(* floats that survive a %g print / re-parse round trip *)
let tame_float =
  Gen.map (fun n -> float_of_int n /. 8.0) (Gen.int_range (-8000) 8000)

let const : Ast.const Gen.t =
  Gen.frequency
    [ (4, Gen.map (fun n -> Ast.Cint n) (Gen.int_range (-1000) 1000));
      (2, Gen.map (fun f -> Ast.Cfloat f) tame_float);
      (3, Gen.map (fun s -> Ast.Cstring s) small_string) ]

let int_const = Gen.map (fun n -> Ast.Cint n) (Gen.int_range (-1000) 1000)

let attr : Ast.attr Gen.t =
  Gen.frequency
    [ (4, Gen.map (fun n -> Ast.attr n) ident);
      (1, Gen.map2 (fun r n -> Ast.attr ~rel:r n) rel_name ident) ]

let cmp = Gen.oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ]

let agg_fn = Gen.oneofl [ Ast.Count; Ast.Sum; Ast.Avg; Ast.Min; Ast.Max ]

let atom : Ast.pred Gen.t =
  Gen.frequency
    [ (4, Gen.map3 (fun c a v -> Ast.Cmp (c, a, v)) cmp attr const);
      (1, Gen.map3 (fun c a b -> Ast.Cmp_attrs (c, a, b)) cmp attr attr);
      (2,
       Gen.map3 (fun a lo hi -> Ast.Between (a, lo, hi)) attr int_const int_const);
      (2,
       Gen.map2
         (fun a vs -> Ast.In_list (a, vs))
         attr
         (Gen.list_size (Gen.int_range 1 4) const));
      (1, Gen.map2 (fun a s -> Ast.Like (a, s ^ "%")) attr small_string);
      (1, Gen.map (fun a -> Ast.Is_null a) attr);
      (1, Gen.map (fun a -> Ast.Is_not_null a) attr) ]

let pred : Ast.pred Gen.t =
  let open Gen in
  sized_size (int_range 0 2) @@ fix (fun self n ->
      if n = 0 then atom
      else
        frequency
          [ (3, atom);
            (2, map2 (fun l r -> Ast.And (l, r)) (self (n - 1)) (self (n - 1)));
            (2, map2 (fun l r -> Ast.Or (l, r)) (self (n - 1)) (self (n - 1)));
            (1, map (fun p -> Ast.Not p) (self (n - 1))) ])

let maybe_alias = Gen.(frequency [ (3, return None); (1, map Option.some ident) ])

let select_item : Ast.select_item Gen.t =
  Gen.frequency
    [ (5, Gen.map2 (fun a al -> Ast.Sel_attr (a, al)) attr maybe_alias);
      (1, Gen.map (fun al -> Ast.Sel_agg (Ast.Count, None, al)) maybe_alias);
      (2, Gen.map3 (fun f a al -> Ast.Sel_agg (f, Some a, al)) agg_fn attr maybe_alias) ]

let query : Ast.query Gen.t =
  let open Gen in
  let* distinct = bool in
  let* use_star = frequency [ (1, return true); (4, return false) ] in
  let* select =
    if use_star then return [ Ast.Star ]
    else list_size (int_range 1 3) select_item
  in
  let* from = list_size (int_range 1 2) rel_name >|= List.sort_uniq compare in
  let* with_join = frequency [ (1, return true); (3, return false) ] in
  let* joins =
    if with_join then
      let* a = attr and* b = attr in
      let* jkind = oneofl [ Ast.Inner; Ast.Left ] in
      return [ { Ast.jkind; jrel = "j_rel"; jleft = a; jright = b } ]
    else return []
  in
  let* where = option ~ratio:0.7 pred in
  let* group_by =
    frequency [ (3, return []); (1, list_size (int_range 1 2) attr) ]
  in
  let* having =
    if group_by = [] then return None
    else
      option ~ratio:0.4
        (let* c = cmp and* f = agg_fn and* v = int_const in
         let* arg = option attr in
         let arg = if f = Ast.Count then arg else Some (Ast.attr "a") in
         return (Ast.Cmp_agg (c, f, arg, v)))
  in
  let* order_by =
    frequency
      [ (3, return []);
        (1,
         list_size (int_range 1 2)
           (pair attr (oneofl [ Ast.Asc; Ast.Desc ]))) ]
  in
  let* limit = option ~ratio:0.3 (int_range 1 100) in
  return
    { Ast.distinct; select; from; joins; where; group_by; having; order_by; limit }

let arbitrary_query =
  QCheck.make ~print:(fun q -> Sqlir.Printer.to_string q) query

let arbitrary_pred =
  QCheck.make ~print:(fun p -> Sqlir.Printer.pred_to_string p) pred

(* values *)
let value : Minidb.Value.t Gen.t =
  Gen.frequency
    [ (4, Gen.map (fun n -> Minidb.Value.Vint n) (Gen.int_range (-1000) 1000));
      (2, Gen.map (fun f -> Minidb.Value.Vfloat f) tame_float);
      (3, Gen.map (fun s -> Minidb.Value.Vstring s) small_string);
      (1, Gen.return Minidb.Value.Vnull) ]

let arbitrary_value = QCheck.make ~print:Minidb.Value.to_string value

(* the body of a totality property: [f input] returns [Ok] or [Error]
   for every input, never an exception *)
let never_raises f input =
  match f input with
  | _ -> true
  | exception e ->
    QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) input
