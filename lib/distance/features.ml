(* Per-query feature precomputation for pairwise distance matrices.

   The seed path re-derives everything per pair: printing, lexing,
   feature extraction, access-area analysis — O(n^2) tokenizations for
   an n-query matrix.  This module builds every per-query artifact once
   (O(n) tokenizations), interns symbols into small ints per matrix, and
   exposes pair evaluators that are bit-identical to the per-pair
   measures:

   - interning is injective, so intersection/union cardinalities of the
     interned sets equal those of the original string / Feature.t sets
     and the Jaccard float is the same division;
   - the edit kernel ({!D_edit.myers_with_peq}) computes the same
     integer distance as the seed DP, so the normalized float is the
     same division;
   - access and clause distances go through the exact seed expressions
     ({!D_access.distance_of_areas}, {!D_clause.combine}). *)

module Interner = struct
  type 'a t = { tbl : ('a, int) Hashtbl.t; mutable next : int }

  let create () = { tbl = Hashtbl.create 256; next = 0 }

  let id t x =
    match Hashtbl.find_opt t.tbl x with
    | Some i -> i
    | None ->
      let i = t.next in
      t.next <- i + 1;
      Hashtbl.add t.tbl x i;
      i

  let size t = t.next
end

type record = {
  edit_tokens : int array;  (* interned fused token sequence: edit input *)
  peq : int array;  (* Myers pattern bitvectors of [edit_tokens] *)
  token_set : int array;  (* sorted duplicate-free [edit_tokens] *)
  structure_set : int array;  (* interned Feature.t set *)
  clause_proj : int array;  (* interned D_clause component sets *)
  clause_group : int array;
  clause_sel : int array;
  areas : (string * Access_area.t) list;  (* Access_area.of_query *)
}

type t = {
  records : record array;
  alphabet : int;
}

let length t = Array.length t.records

let m_builds = Obs.Registry.counter "kitdpe.distance.features.builds"
let m_reuse = Obs.Registry.counter "kitdpe.distance.features.reuse"

(* phase A output: everything derivable from one query alone, before
   any cross-query interning *)
type raw = {
  r_fused : string array;
  r_structure : Feature.t list;
  r_proj : string list;
  r_group : string list;
  r_sel : string list;
  r_areas : (string * Access_area.t) list;
}

let raw_of_query i q =
  Fault.point ~key:i "distance.features.build";
  Obs.Metric.incr m_builds;
  {
    r_fused =
      Array.of_list
        (D_token.fuse (Sqlir.Lexer.tokenize (Sqlir.Printer.to_string q)));
    r_structure = Feature.of_query q;
    r_proj = D_clause.projection_set q;
    r_group = D_clause.group_by_set q;
    r_sel = D_clause.selection_set q;
    r_areas = Access_area.of_query q;
  }

(* sorted duplicate-free id set of a token sequence *)
let sorted_set_of_seq arr =
  let a = Array.copy arr in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    Array.sub a 0 !k
  end

(* [xs] is already deduplicated in its source domain, so the injective
   ids need only sorting *)
let intern_set intern xs =
  let a = Array.of_list (List.map (Interner.id intern) xs) in
  Array.sort Int.compare a;
  a

let resolve_pool = function
  | Some p -> p
  | None -> Parallel.Pool.global ()

(* phases B (sequential interning — the tables are not domain-safe) and
   C (parallel peq construction) *)
let finish ~pool raws =
  let edit_int = Interner.create () in
  let feat_int = Interner.create () in
  let clause_int = Interner.create () in
  let interned =
    Array.map
      (fun r ->
        let edit_tokens = Array.map (Interner.id edit_int) r.r_fused in
        ( r,
          edit_tokens,
          intern_set feat_int r.r_structure,
          intern_set clause_int r.r_proj,
          intern_set clause_int r.r_group,
          intern_set clause_int r.r_sel ))
      raws
  in
  let alphabet = max 1 (Interner.size edit_int) in
  let records =
    Parallel.Pool.map_range pool (Array.length interned) (fun i ->
        let r, edit_tokens, structure_set, clause_proj, clause_group, clause_sel =
          interned.(i)
        in
        {
          edit_tokens;
          peq = D_edit.myers_peq ~alphabet edit_tokens;
          token_set = sorted_set_of_seq edit_tokens;
          structure_set;
          clause_proj;
          clause_group;
          clause_sel;
          areas = r.r_areas;
        })
  in
  { records; alphabet }

let build_r ?pool (queries : Sqlir.Ast.query array) =
  let pool = resolve_pool pool in
  Parallel.Pool.map_range_r pool ~label:"features.build" (Array.length queries)
    (fun i -> raw_of_query i queries.(i))
  |> Result.map (finish ~pool)

let build ?pool queries = Fault.Error.get_ok (build_r ?pool queries)

(* ---- pair evaluators ---------------------------------------------------

   Each evaluation touches two precomputed records, hence [reuse += 2]:
   a full n-matrix performs n(n-1)/2 pair evaluations and reports
   [builds = n], [reuse = n^2 - n]. *)

let token t i j =
  Obs.Metric.add m_reuse 2;
  Jaccard.distance_sorted_ints t.records.(i).token_set t.records.(j).token_set

let structure t i j =
  Obs.Metric.add m_reuse 2;
  Jaccard.distance_sorted_ints t.records.(i).structure_set
    t.records.(j).structure_set

let clause t i j =
  Obs.Metric.add m_reuse 2;
  let a = t.records.(i) and b = t.records.(j) in
  D_clause.combine
    ~projection:(Jaccard.distance_sorted_ints a.clause_proj b.clause_proj)
    ~group_by:(Jaccard.distance_sorted_ints a.clause_group b.clause_group)
    ~selection:(Jaccard.distance_sorted_ints a.clause_sel b.clause_sel)
    ()

let access ~x t i j =
  Obs.Metric.add m_reuse 2;
  D_access.distance_of_areas ~x t.records.(i).areas t.records.(j).areas

let edit_distance_int t i j =
  let a = t.records.(i) and b = t.records.(j) in
  let m = Array.length a.edit_tokens in
  if m = 0 then Array.length b.edit_tokens
  else
    D_edit.myers_with_peq ~alphabet:t.alphabet ~m ~peq:a.peq b.edit_tokens

let edit t i j =
  Obs.Metric.add m_reuse 2;
  let a = t.records.(i) and b = t.records.(j) in
  let n = max (Array.length a.edit_tokens) (Array.length b.edit_tokens) in
  if n = 0 then 0.0
  else float_of_int (edit_distance_int t i j) /. float_of_int n

let edit_len t i = Array.length t.records.(i).edit_tokens

let token_set t i = t.records.(i).token_set
let structure_set t i = t.records.(i).structure_set
let clause_projection t i = t.records.(i).clause_proj
