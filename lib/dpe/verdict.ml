module M = Distance.Measure
module Ast = Sqlir.Ast

type report = {
  measure : M.t;
  pairs : int;
  max_deviation : float;
  mean_plain_distance : float;
  ok : bool;
}

let pp_report fmt r =
  Format.fprintf fmt
    "%-12s pairs=%-5d mean d=%.4f  max |d(Enc)-d|=%g  %s"
    (M.to_string r.measure) r.pairs r.mean_plain_distance r.max_deviation
    (if r.ok then "PRESERVED" else "VIOLATED")

let check_dpe ?plain_db ?cipher_db ?(x = Distance.D_access.default_x)
    enc measure log =
  let enc_log = Encryptor.encrypt_log enc log in
  let plain_ctx = { M.db = plain_db; x } in
  let cipher_ctx = { M.db = cipher_db; x } in
  let dp = M.matrix plain_ctx measure log in
  let dc = M.matrix cipher_ctx measure enc_log in
  let n = Mining.Dist_matrix.size dp in
  let pairs = n * (n - 1) / 2 and sum = ref 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      sum := !sum +. Mining.Dist_matrix.get dp i j
    done
  done;
  let max_deviation = Mining.Dist_matrix.max_abs_diff dp dc in
  { measure; pairs; max_deviation;
    mean_plain_distance = (if pairs = 0 then 0.0 else !sum /. float_of_int pairs);
    ok = max_deviation = 0.0 }

(* token-level encryption: what Enc does to one (fused) token of the query
   text.  Fused LIMIT tokens are structural and stay put. *)
let encrypt_token enc lexeme =
  match Sqlir.Lexer.tokenize lexeme with
  | [ (Sqlir.Lexer.Kw _ | Sqlir.Lexer.Sym _) ] -> lexeme
  | [ Sqlir.Lexer.Ident s ] ->
    (* under the token scheme's global map this equals encrypt_rel *)
    Encryptor.encrypt_attr_name enc s
  | [ (Sqlir.Lexer.Int_lit _ | Sqlir.Lexer.Float_lit _ | Sqlir.Lexer.Str_lit _ as tok) ] ->
    let c =
      match tok with
      | Sqlir.Lexer.Int_lit n -> Ast.Cint n
      | Sqlir.Lexer.Float_lit f -> Ast.Cfloat f
      | Sqlir.Lexer.Str_lit s -> Ast.Cstring s
      | _ -> assert false
    in
    (* constants carry no attribute context at the token level: only valid
       for Global policies, which is exactly the token scheme *)
    Sqlir.Printer.const_to_string
      (Encryptor.encrypt_const enc
         (Ast.In_predicate { Ast.rel = None; name = "" }) c)
  | _ -> lexeme (* fused structural token, e.g. "LIMIT 20" *)

let check_token_equivalence enc q =
  let plain_tokens =
    Distance.D_token.fuse (Sqlir.Lexer.tokenize (Sqlir.Printer.to_string q))
  in
  let mapped =
    List.map (encrypt_token enc) plain_tokens |> List.sort_uniq String.compare
  in
  let cipher_tokens =
    Distance.D_token.tokens (Sqlir.Printer.to_string (Encryptor.encrypt_query enc q))
  in
  mapped = cipher_tokens

let encrypt_attr_string enc s =
  match String.index_opt s '.' with
  | None -> Encryptor.encrypt_attr_name enc s
  | Some i ->
    Encryptor.encrypt_rel enc (String.sub s 0 i)
    ^ "."
    ^ Encryptor.encrypt_attr_name enc
        (String.sub s (i + 1) (String.length s - i - 1))

let encrypt_feature enc (f : Distance.Feature.t) : Distance.Feature.t =
  let ea = encrypt_attr_string enc in
  match f with
  | Distance.Feature.Fselect a -> Distance.Feature.Fselect (ea a)
  | Distance.Feature.Fselect_agg (fn, a) ->
    Distance.Feature.Fselect_agg (fn, Option.map ea a)
  | Distance.Feature.Fdistinct -> Distance.Feature.Fdistinct
  | Distance.Feature.Ffrom r -> Distance.Feature.Ffrom (Encryptor.encrypt_rel enc r)
  | Distance.Feature.Fjoin (k, r, a, b) ->
    Distance.Feature.Fjoin (k, Encryptor.encrypt_rel enc r, ea a, ea b)
  | Distance.Feature.Fwhere (a, op) ->
    (* attribute-against-attribute shapes embed the second attribute *)
    let op' =
      match String.index_opt op ' ' with
      | Some i when String.length op > i + 1 ->
        String.sub op 0 i ^ " " ^ ea (String.sub op (i + 1) (String.length op - i - 1))
      | _ -> op
    in
    Distance.Feature.Fwhere (ea a, op')
  | Distance.Feature.Fgroup_by a -> Distance.Feature.Fgroup_by (ea a)
  | Distance.Feature.Fhaving (fn, a, op) ->
    Distance.Feature.Fhaving (fn, Option.map ea a, op)
  | Distance.Feature.Forder_by (a, d) -> Distance.Feature.Forder_by (ea a, d)
  | Distance.Feature.Flimit -> Distance.Feature.Flimit

let check_structure_equivalence enc q =
  let mapped =
    List.map (encrypt_feature enc) (Distance.Feature.of_query q)
    |> List.sort_uniq Distance.Feature.compare
  in
  let cipher = Distance.Feature.of_query (Encryptor.encrypt_query enc q) in
  mapped = cipher

let check_result_equivalence ~plain_db ~cipher_db enc q =
  let plain_res = Minidb.Executor.run plain_db q in
  let cipher_res = Minidb.Executor.run cipher_db (Encryptor.encrypt_query enc q) in
  let mapped =
    List.map
      (Encryptor.encrypt_result_tuple enc plain_res.Minidb.Executor.provenance)
      plain_res.Minidb.Executor.tuples
    |> List.sort_uniq (List.compare Minidb.Value.compare)
  in
  mapped = Minidb.Executor.result_tuple_set cipher_res

let check_access_equivalence enc q =
  (* Definition 2 for access_A on a single query: the encrypted query's
     area map must be keyed by exactly the encrypted attribute names, and
     each area must be the image of the plaintext area — same coarse shape
     (Empty/All/region) and same self-relations.  Relations BETWEEN areas
     are only ever taken per attribute across two queries; that full
     pairwise preservation is checked by [check_dpe Access].  (Areas of
     different attributes are never compared by the distance: they live
     under independent keys.) *)
  let plain = Distance.Access_area.of_query q in
  let cipher = Distance.Access_area.of_query (Encryptor.encrypt_query enc q) in
  let mapped_keys =
    List.map (fun (k, _) -> encrypt_attr_string enc k) plain
    |> List.sort_uniq String.compare
  in
  let cipher_keys = List.map fst cipher |> List.sort_uniq String.compare in
  let shape (a : Distance.Access_area.t) =
    match a with
    | Distance.Access_area.Empty -> `Empty
    | Distance.Access_area.All -> `All
    | Distance.Access_area.Num _ -> `Region
    | Distance.Access_area.Sfinite _ | Distance.Access_area.Scofinite _
    | Distance.Access_area.Opaque _ -> `Points
  in
  mapped_keys = cipher_keys
  && List.for_all
       (fun (k, a) ->
         let e = List.assoc (encrypt_attr_string enc k) cipher in
         let sp = shape a and se = shape e in
         (* a DET-encrypted numeric point set legitimately becomes a string
            point set; everything else keeps its shape *)
         (sp = se || (sp = `Region && se = `Points))
         && Distance.Access_area.equal e e
         && Distance.Access_area.overlaps a a = Distance.Access_area.overlaps e e)
       plain

let check_equivalence ?plain_db ?cipher_db enc notion q =
  match notion with
  | Equivalence.Token_equivalence -> check_token_equivalence enc q
  | Equivalence.Structural_equivalence -> check_structure_equivalence enc q
  | Equivalence.Result_equivalence ->
    (match plain_db, cipher_db with
     | Some p, Some c -> check_result_equivalence ~plain_db:p ~cipher_db:c enc q
     | _ -> invalid_arg "Verdict.check_equivalence: result needs both databases")
  | Equivalence.Access_area_equivalence -> check_access_equivalence enc q
