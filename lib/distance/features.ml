(* Per-query feature precomputation: the one implementation of the
   token, structure, clause, access and edit measures.

   Every per-query artifact is built once (O(n) tokenizations for an
   n-query matrix), symbols are interned into small ints per table, and
   pairs are evaluated from the records:

   - interning is injective, so intersection/union cardinalities of the
     interned sets equal those of the original string / Feature.t sets
     and the Jaccard float is the same division;
   - the edit kernel ({!D_edit.myers}) computes the Levenshtein distance
     of the interned token sequences, which is that of the tokens;
   - access and clause distances combine the per-query parts with
     {!D_access.distance_of_areas} and {!D_clause.combine}. *)

module Interner = struct
  type 'a t = { tbl : ('a, int) Hashtbl.t; mutable next : int }

  let create size = { tbl = Hashtbl.create size; next = 0 }

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
  token_set : int array;  (* sorted duplicate-free [edit_tokens] *)
  structure_set : int array;  (* interned Feature.t set *)
  clause_proj : int array;  (* interned D_clause component sets *)
  clause_group : int array;
  clause_sel : int array;
  areas : (string * Access_area.t) list;  (* Access_area.of_query *)
}

(* [records.(i)] is query [i]'s record; queries with the same printed
   text and AST share one record, built once *)
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

(* the part of a record each measure reads, see {!classes} *)
type key = Token_set | Edit_tokens | Structure_set | Clause_sets | Areas

(* With [only], just the parts that key's evaluator reads are built and
   the others left empty; [text] is lexed only for the token parts. *)
let raw_of_query ?only text q =
  Obs.Metric.incr m_builds;
  let wants k = match only with None -> true | Some o -> o = k in
  let clause = wants Clause_sets in
  {
    r_fused =
      (if wants Token_set || wants Edit_tokens then
         Array.of_list (D_token.fuse (Sqlir.Lexer.tokenize text))
       else [||]);
    r_structure = (if wants Structure_set then Feature.of_query q else []);
    r_proj = (if clause then D_clause.projection_set q else []);
    r_group = (if clause then D_clause.group_by_set q else []);
    r_sel = (if clause then D_clause.selection_set q else []);
    r_areas = (if wants Areas then Access_area.of_query q else []);
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

(* phase B: sequential interning — the tables are not domain-safe.
   [raws.(i)] is [None] for a query that shares the record of the
   earlier query [first.(i)].  [Array.map] runs in index order, so the
   distinct raws meet the interners in query order and every id is what
   a per-query build assigns. *)
let finish first raws =
  (* sized to the log: {!of_pair} builds a table on every call *)
  let size = min 256 (8 * Array.length raws) in
  let edit_int = Interner.create size in
  let feat_int = Interner.create size in
  let clause_int = Interner.create size in
  let record r =
    (* the three clause components share ids, assigned selection
       first: the prefix index breaks rank ties by id *)
    let clause_sel = intern_set clause_int r.r_sel in
    let clause_group = intern_set clause_int r.r_group in
    let clause_proj = intern_set clause_int r.r_proj in
    let edit_tokens = Array.map (Interner.id edit_int) r.r_fused in
    {
      edit_tokens;
      token_set = sorted_set_of_seq edit_tokens;
      structure_set = intern_set feat_int r.r_structure;
      clause_proj;
      clause_group;
      clause_sel;
      areas = r.r_areas;
    }
  in
  let built = Array.map (Option.map record) raws in
  let records =
    Array.mapi
      (fun i r -> match r with Some r -> r | None -> Option.get built.(first.(i)))
      built
  in
  { records; alphabet = max 1 (Interner.size edit_int) }

(* Queries are the same record when their printed texts are equal (the
   token and edit measures read the text) and so are their ASTs (the
   others read the AST: [%g] printing can merge two float constants). *)
module Distinct = Hashtbl.Make (struct
  type t = string * Sqlir.Ast.query

  let equal (s, q) (s', q') =
    String.equal s s' && (q == q' || Sqlir.Ast.equal_query q q')

  let hash (s, _) = Hashtbl.hash s
end)

(* [first.(i)] is the smallest index of a query that is the same
   record as query [i] *)
let first_occurrences texts queries =
  let seen = Distinct.create 64 in
  Array.mapi
    (fun i text ->
      let key = (text, queries.(i)) in
      match Distinct.find_opt seen key with
      | Some f -> f
      | None ->
        Distinct.add seen key i;
        i)
    texts

(* A repeat's record is its first occurrence's, so a failed first
   occurrence fails its repeats too, each under its own index, as when
   every query builds its own record.  [es] lists [Task_failed] errors
   only (see [Parallel.Pool.map_range_r]). *)
let with_repeats first es =
  let cause = Array.make (Array.length first) None in
  List.iter
    (function
      | Fault.Error.Task_failed { index; cause = c; _ } -> cause.(index) <- Some c
      | _ -> ())
    es;
  List.filter_map
    (fun i ->
      match cause.(i), cause.(first.(i)) with
      | (Some c, _ | None, Some c) ->
        Some (Fault.Error.Task_failed { label = "features.build"; index = i; cause = c })
      | None, None -> None)
    (List.init (Array.length first) Fun.id)

(* Two batches over every query: the first prints it (and carries the
   fault point), the second builds the record of each first
   occurrence. *)
let build_r ?pool (queries : Sqlir.Ast.query array) =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let batch f =
    Parallel.Pool.map_range_r pool ~label:"features.build" (Array.length queries) f
  in
  Result.bind
    (batch (fun i ->
         Fault.point ~key:i "distance.features.build";
         Sqlir.Printer.to_string queries.(i)))
    (fun texts ->
      let first = first_occurrences texts queries in
      match
        batch (fun i ->
            if first.(i) = i then Some (raw_of_query texts.(i) queries.(i)) else None)
      with
      | Ok raws -> Ok (finish first raws)
      | Error es -> Error (with_repeats first es))

let build ?pool queries = Fault.Error.get_ok (build_r ?pool queries)

(* two records with only [key]'s parts, in the calling thread; the
   queries are printed only for the token parts *)
let of_pair key q1 q2 =
  let text q =
    match key with
    | Token_set | Edit_tokens -> Sqlir.Printer.to_string q
    | Structure_set | Clause_sets | Areas -> ""
  in
  let raw q = Some (raw_of_query ~only:key (text q) q) in
  finish [| 0; 1 |] [| raw q1; raw q2 |]

let sub t ids = { t with records = Array.map (fun i -> t.records.(i)) ids }

(* ---- class maps ------------------------------------------------------ *)

type classes = {
  class_of : int array;
  reps : int array;
  members : int array array;
}

(* Group [0 .. n-1] by [key_of i] under structural equality.  The
   hash reads up to 256 values, so keys that share a long prefix (the
   templated head of a query) still spread.  Classes are numbered by
   first member, so the representative is the smallest member and the
   representatives ascend. *)
let group (type k) n (key_of : int -> k) =
  let module H = Hashtbl.Make (struct
    type t = k

    let equal a b = compare a b = 0
    let hash = Hashtbl.hash_param 256 256
  end) in
  let seen = H.create 64 in
  let class_of = Array.make n 0 in
  let sizes = ref [] in
  for i = 0 to n - 1 do
    let key = key_of i in
    match H.find_opt seen key with
    | Some (c, count) ->
      class_of.(i) <- c;
      incr count
    | None ->
      let c = H.length seen and count = ref 1 in
      H.add seen key (c, count);
      class_of.(i) <- c;
      sizes := (i, count) :: !sizes
  done;
  let sizes = Array.of_list (List.rev !sizes) in
  let members = Array.map (fun (_, count) -> Array.make !count 0) sizes in
  let fill = Array.make (Array.length sizes) 0 in
  Array.iteri
    (fun i c ->
      members.(c).(fill.(c)) <- i;
      fill.(c) <- fill.(c) + 1)
    class_of;
  { class_of; reps = Array.map fst sizes; members }

let classes t key =
  let r i = t.records.(i) in
  let n = length t in
  match key with
  | Token_set -> group n (fun i -> (r i).token_set)
  | Edit_tokens -> group n (fun i -> (r i).edit_tokens)
  | Structure_set -> group n (fun i -> (r i).structure_set)
  | Clause_sets ->
    group n (fun i -> ((r i).clause_proj, (r i).clause_group, (r i).clause_sel))
  | Areas -> group n (fun i -> (r i).areas)

(* ---- pair evaluators ---------------------------------------------------

   Each evaluation touches two precomputed records, hence [reuse += 2]:
   a matrix over d classes, m of them with two or more members,
   performs d(d-1)/2 + m evaluations (see Measure.matrix_r). *)

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

let access ~x t i j =
  Obs.Metric.add m_reuse 2;
  D_access.distance_of_areas ~x t.records.(i).areas t.records.(j).areas

(* staged: [edit_distance_int t i] builds query [i]'s pattern table
   once, for every [j] of its row *)
let edit_distance_int t i =
  let dist = D_edit.myers ~alphabet:t.alphabet t.records.(i).edit_tokens in
  fun j -> dist t.records.(j).edit_tokens

let edit t i =
  let dist = edit_distance_int t i in
  let m = Array.length t.records.(i).edit_tokens in
  fun j ->
    Obs.Metric.add m_reuse 2;
    let n = max m (Array.length t.records.(j).edit_tokens) in
    if n = 0 then 0.0 else float_of_int (dist j) /. float_of_int n

let edit_len t i = Array.length t.records.(i).edit_tokens

let token_set t i = t.records.(i).token_set
let structure_set t i = t.records.(i).structure_set
let clause_projection t i = t.records.(i).clause_proj
