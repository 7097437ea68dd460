module Ast = Sqlir.Ast

type plan = {
  log : Sqlir.Ast.query list;
  real_count : int;
}

(* redraw every constant of the query uniformly from its attribute's
   declared domain; the query SHAPE is kept, so decoys are indistinguishable
   from real traffic at the structural level *)
let redraw_constants rng info q =
  let fresh_const ctx (c : Ast.const) =
    let attr_of =
      match ctx with
      | Ast.In_predicate a -> Some a
      | Ast.In_aggregate ((Ast.Min | Ast.Max | Ast.Sum | Ast.Avg), Some a) -> Some a
      | Ast.In_aggregate _ -> None
    in
    match attr_of with
    | None -> c
    | Some a ->
      (match Workload.Gen_db.column info a.Ast.name with
       | col ->
         (match c with
          | Ast.Cint _ ->
            Ast.Cint
              (col.Workload.Gen_db.lo
               + Crypto.Drbg.uniform_int rng
                   (col.Workload.Gen_db.hi - col.Workload.Gen_db.lo + 1))
          | Ast.Cstring _ when col.Workload.Gen_db.vocab <> [] ->
            Ast.Cstring
              (List.nth col.Workload.Gen_db.vocab
                 (Crypto.Drbg.uniform_int rng
                    (List.length col.Workload.Gen_db.vocab)))
          | Ast.Cstring s ->
            (* LIKE patterns and free strings: keep the shape, scramble *)
            Ast.Cstring s
          | Ast.Cfloat f -> Ast.Cfloat f)
       | exception Not_found -> c)
  in
  let q' = Ast.map_query ~rel:Fun.id ~attr:Fun.id ~const:fresh_const q in
  (* BETWEEN bounds may have been redrawn out of order *)
  Sqlir.Normalizer.normalize_cipher_safe q'

let inject ~seed ~ratio info log =
  if ratio < 0.0 then invalid_arg "Decoys.inject: negative ratio";
  let n = List.length log in
  let count = int_of_float (ceil (ratio *. float_of_int n)) in
  let rng = Crypto.Drbg.create ~seed:("decoys/" ^ seed) in
  let arr = Array.of_list log in
  let decoys =
    List.init count (fun _ ->
        let template = arr.(Crypto.Drbg.uniform_int rng n) in
        redraw_constants rng info template)
  in
  { log = log @ decoys; real_count = n }

let strip plan v =
  if Array.length v <> List.length plan.log then
    invalid_arg "Decoys.strip: vector does not match padded log";
  Array.sub v 0 plan.real_count

let strip_matrix plan m =
  if Mining.Dist_matrix.size m <> List.length plan.log then
    invalid_arg "Decoys.strip_matrix: matrix does not match padded log";
  Mining.Dist_matrix.prefix m plan.real_count
