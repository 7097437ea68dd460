(* Per-query feature precomputation: the one implementation of the
   token, structure, clause, access and edit measures.

   A table holds one key's part per query, built once per distinct
   query, with its symbols interned into small ints, and pairs are
   evaluated from the parts:

   - interning is injective, so intersection/union cardinalities of the
     interned sets equal those of the original string / Feature.t sets
     and the Jaccard float is the same division;
   - the edit kernel ({!D_edit.myers}) computes the Levenshtein distance
     of the interned token sequences, which is that of the tokens;
   - the clause distance combines three Jaccard distances with
     {!D_clause.combine};
   - the access distance counts the per-attribute codes of a pair's
     areas, read from a code table that each table fills on first
     read, and sums them as the per-attribute definition does (see
     [access] below). *)

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

(* [first.(i)] is the smallest index of a query that shares query [i]'s
   record *)
type t = {
  queries : Sqlir.Ast.query array;
  texts : string array;
  first : int array;
}

type key = Token_set | Edit_tokens | Structure_set | Clause_sets | Areas

type clauses = { proj : int array; group : int array; sel : int array }

(* One attribute's distinct areas, numbered 0 .. k-1, in canonical
   form: [pair] holds the code of areas [r] and [s] at [r * k + s], and
   [alone] the code of area [r] against [Empty] at [2r] and of [Empty]
   against area [r] at [2r + 1].  A code is 0 (equal), 1 (overlap) or 2
   (disjoint), or [unknown] until its first read computes it.  A code is
   a pure function of its two areas, so two domains that race on an
   unknown byte compute and write the same value. *)
type codes = { areas : Access_area.t array; pair : Bytes.t; alone : Bytes.t }

(* per query, shared by the queries of one record *)
type part =
  | Sets of int array array  (* token or structure sets *)
  | Seqs of int array array * int  (* edit sequences, alphabet size *)
  | Clauses of clauses array
  | Area_ids of int array array * codes array
      (* per query, its ascending (attribute, area) ids packed by
         [area_id]; per attribute, its code table *)

type table = { key : key; part : part }

let m_builds = Obs.Registry.counter "kitdpe.distance.features.builds"
let m_reuse = Obs.Registry.counter "kitdpe.distance.features.reuse"

(* Queries are the same record when their printed texts are equal (the
   token and edit measures read the text) and so are their ASTs (the
   others read the AST: [%g] printing can merge two float constants). *)
module Distinct = Hashtbl.Make (struct
  type t = string * Sqlir.Ast.query

  let equal (s, q) (s', q') =
    String.equal s s' && (q == q' || Sqlir.Ast.equal_query q q')

  let hash (s, _) = Hashtbl.hash s
end)

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

let batch pool n f =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  Parallel.Pool.map_range_r pool ~label:"features.build" n f

(* one batch that prints every query and carries the fault point *)
let build_r ?pool queries =
  Result.map
    (fun texts -> { queries; texts; first = first_occurrences texts queries })
    (batch pool (Array.length queries) (fun i ->
         Fault.point ~key:i "distance.features.build";
         Sqlir.Printer.to_string queries.(i)))

let build ?pool queries = Fault.Error.get_ok (build_r ?pool queries)

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

(* [xs] is already deduplicated in its source domain, so the injective
   ids need only sorting *)
let intern_set intern xs =
  let a = Array.of_list (List.map (Interner.id intern) xs) in
  Array.sort Int.compare a;
  a

(* ---- access areas --------------------------------------------------

   An attribute's areas are interned under [compare = 0], the equality
   of [Hashtbl] and of [group], so two queries have equal id arrays
   exactly when their area lists are equal, and the class map does not
   change.  Equal ids give equal codes: [compare] treats [nan] as equal
   to itself and [-0.0] as [0.0], and the relations decide only by
   comparing endpoints, which treats each of these pairs alike. *)

let area_bits = 32
let area_id attr area = (attr lsl area_bits) lor area
let attr_of id = id lsr area_bits
let area_of id = id land ((1 lsl area_bits) - 1)

(* an attribute's interned areas, newest first in [seen] *)
type attribute = { id : int; ids : Access_area.t Interner.t; mutable seen : Access_area.t list }

let unknown = '\255'

(* the code table of one attribute: k^2 + 2k bytes *)
let codes_of attribute =
  let areas = Array.of_list (List.rev_map Access_area.canonical attribute.seen) in
  let k = Array.length areas in
  { areas; pair = Bytes.make (k * k) unknown; alone = Bytes.make (2 * k) unknown }

let code a b =
  if Access_area.equal a b then '\000'
  else if Access_area.overlaps a b then '\001'
  else '\002'

(* the code at [p] of [table], computing it from [a] and [b] on its
   first read *)
let cached table p a b =
  let c = Bytes.unsafe_get table p in
  if c <> unknown then c
  else begin
    let c = code a b in
    Bytes.unsafe_set table p c;
    c
  end

(* The interner of an [Area_ids] part: [intern] maps one query's area
   list to its ascending ids, and [codes] allocates every attribute's
   code table once all queries are interned. *)
let area_interner size =
  let attrs = Hashtbl.create 16 and order = ref [] in
  let intern list =
    let ids =
      Array.of_list
        (List.map
           (fun (name, area) ->
             let a =
               match Hashtbl.find_opt attrs name with
               | Some a -> a
               | None ->
                 let a = { id = Hashtbl.length attrs; ids = Interner.create size; seen = [] } in
                 Hashtbl.add attrs name a;
                 order := a :: !order;
                 a
             in
             let k = Interner.size a.ids in
             let r = Interner.id a.ids area in
             if r = k then a.seen <- area :: a.seen;
             area_id a.id r)
           list)
    in
    Array.sort Int.compare ids;
    ids
  in
  let codes () = Array.of_list (List.rev_map codes_of !order) in
  (intern, codes)

(* how the per-query builder runs over the queries: a pool batch for a
   log, the calling thread for one pair *)
type runner = { run : 'r. (int -> 'r) -> ('r array, Fault.Error.t list) result }

(* The part builder.  [run] builds the raw part of each first occurrence
   (counted in [m_builds]); then [intern], which is not domain-safe,
   takes the raw parts in query order ([Array.map] runs in index order),
   so every id is what a per-query build assigns, and each repeat shares
   its first occurrence's part. *)
let part { run } ~text key queries first =
  let parts raw intern =
    Result.map
      (fun raws ->
        let built = Array.map (Option.map intern) raws in
        Array.mapi
          (fun i p -> match p with Some p -> p | None -> Option.get built.(first.(i)))
          built)
      (run (fun i ->
           if first.(i) = i then begin
             Obs.Metric.incr m_builds;
             Some (raw i)
           end
           else None))
  in
  let fused i = Array.of_list (D_token.fuse (Sqlir.Lexer.tokenize (text i))) in
  (* the key's interner, sized to the log: {!distance} builds one on
     every call *)
  let interner () = Interner.create (min 256 (8 * Array.length queries)) in
  Result.map
    (fun part -> { key; part })
    (match key with
     | Token_set ->
       let ids = interner () in
       (* the sorted duplicate-free ids of the token sequence *)
       parts fused (fun s ->
           let seq = Array.to_list (Array.map (Interner.id ids) s) in
           Array.of_list (List.sort_uniq Int.compare seq))
       |> Result.map (fun s -> Sets s)
     | Edit_tokens ->
       let ids = interner () in
       parts fused (Array.map (Interner.id ids))
       |> Result.map (fun s -> Seqs (s, max 1 (Interner.size ids)))
     | Structure_set ->
       parts (fun i -> Feature.of_query queries.(i)) (intern_set (interner ()))
       |> Result.map (fun s -> Sets s)
     | Clause_sets ->
       let ids = interner () in
       parts
         (fun i ->
           let q = queries.(i) in
           (D_clause.selection_set q, D_clause.group_by_set q, D_clause.projection_set q))
         (fun (sel, group, proj) ->
           (* the three components share ids, assigned selection first:
              the prefix index breaks rank ties by id *)
           let sel = intern_set ids sel in
           let group = intern_set ids group in
           { proj = intern_set ids proj; group; sel })
       |> Result.map (fun c -> Clauses c)
     | Areas ->
       let intern, codes = area_interner (min 64 (Array.length queries)) in
       parts (fun i -> Access_area.of_query queries.(i)) intern
       |> Result.map (fun ids -> Area_ids (ids, codes ())))

let table_r ?pool key log =
  let run f = batch pool (Array.length log.queries) f in
  part { run } ~text:(Array.get log.texts) key log.queries log.first
  |> Result.map_error (with_repeats log.first)

let of_areas areas =
  let intern, codes = area_interner (min 64 (Array.length areas)) in
  let ids = Array.map intern areas in
  { key = Areas; part = Area_ids (ids, codes ()) }

let key t = t.key

let length t =
  match t.part with
  | Sets s | Seqs (s, _) -> Array.length s
  | Clauses c -> Array.length c
  | Area_ids (a, _) -> Array.length a

let sub t ids =
  let pick a = Array.map (Array.get a) ids in
  let part =
    match t.part with
    | Sets s -> Sets (pick s)
    | Seqs (s, alphabet) -> Seqs (pick s, alphabet)
    | Clauses c -> Clauses (pick c)
    | Area_ids (a, codes) -> Area_ids (pick a, codes)
  in
  { t with part }

let wrong_key context =
  Fault.Error.E
    (Fault.Error.Invariant
       { context; reason = "the table holds another key's part" })

(* ---- class maps ------------------------------------------------------ *)

type classes = {
  class_of : int array;
  reps : int array;
  members : int array array;
}

(* Group [0 .. n-1] by [parts.(i)] under structural equality.  The
   hash reads up to 256 values, so parts that share a long prefix (the
   templated head of a query) still spread.  Classes are numbered by
   first member, so the representative is the smallest member and the
   representatives ascend. *)
let group (type k) (parts : k array) =
  let module H = Hashtbl.Make (struct
    type t = k

    let equal a b = compare a b = 0
    let hash = Hashtbl.hash_param 256 256
  end) in
  let n = Array.length parts in
  let seen = H.create 64 in
  let class_of = Array.make n 0 in
  let sizes = ref [] in
  for i = 0 to n - 1 do
    let key = parts.(i) in
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

let classes t =
  match t.part with
  | Sets s | Seqs (s, _) -> group s
  | Clauses c -> group c
  | Area_ids (a, _) -> group a

(* ---- the evaluator -----------------------------------------------------

   Each evaluation touches two precomputed parts, hence [reuse += 2]:
   a matrix over d classes, m of them with two or more members,
   performs d(d-1)/2 + m evaluations (see Measure.matrix_r). *)

(* staged: [edit_distance_int t i] builds query [i]'s pattern table
   once, for every [j] of its row *)
let edit_distance_int t i =
  match t.part with
  | Seqs (s, alphabet) ->
    let dist = D_edit.myers ~alphabet s.(i) in
    fun j -> dist s.(j)
  | Sets _ | Clauses _ | Area_ids _ ->
    raise (wrong_key "Distance.Features.edit_distance_int")

(* Definition 5 over two ascending id arrays: one merge counts the
   attributes of the union by code, [n1] overlapping and [n2] disjoint.
   The per-attribute definition sums the deltas in ascending value
   order, 0.0 < x < 1.0: adding the 0.0s to 0.0 leaves 0.0, so that sum
   is [x] added [n1] times, then 1.0 added [n2] times, which the loops
   below repeat addition for addition (DESIGN.md §10). *)
let access ~x codes a b =
  if not (x > 0.0 && x < 1.0) then invalid_arg "D_access: x must be in (0,1)";
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 and n = ref 0 and n1 = ref 0 and n2 = ref 0 in
  while !i < na || !j < nb do
    let c =
      if !j = nb || (!i < na && attr_of a.(!i) < attr_of b.(!j)) then begin
        let p = a.(!i) in
        incr i;
        let t = codes.(attr_of p) and r = area_of p in
        cached t.alone (2 * r) t.areas.(r) Access_area.Empty
      end
      else if !i = na || attr_of b.(!j) < attr_of a.(!i) then begin
        let q = b.(!j) in
        incr j;
        let t = codes.(attr_of q) and s = area_of q in
        cached t.alone ((2 * s) + 1) Access_area.Empty t.areas.(s)
      end
      else begin
        let p = a.(!i) and q = b.(!j) in
        incr i;
        incr j;
        let t = codes.(attr_of p) and r = area_of p and s = area_of q in
        cached t.pair ((r * Array.length t.areas) + s) t.areas.(r) t.areas.(s)
      end
    in
    incr n;
    if c = '\001' then incr n1 else if c = '\002' then incr n2
  done;
  if !n = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for _ = 1 to !n1 do
      sum := !sum +. x
    done;
    for _ = 1 to !n2 do
      sum := !sum +. 1.0
    done;
    !sum /. float_of_int !n
  end

let eval ~x t i =
  match t.part with
  | Sets s ->
    let a = s.(i) in
    fun j ->
      Obs.Metric.add m_reuse 2;
      Jaccard.distance_sorted_ints a s.(j)
  | Clauses c ->
    let a = c.(i) in
    fun j ->
      Obs.Metric.add m_reuse 2;
      let b = c.(j) in
      D_clause.combine
        ~projection:(Jaccard.distance_sorted_ints a.proj b.proj)
        ~group_by:(Jaccard.distance_sorted_ints a.group b.group)
        ~selection:(Jaccard.distance_sorted_ints a.sel b.sel)
  | Area_ids (ids, codes) ->
    let a = ids.(i) in
    fun j ->
      Obs.Metric.add m_reuse 2;
      access ~x codes a ids.(j)
  | Seqs (s, _) ->
    let dist = edit_distance_int t i in
    let m = Array.length s.(i) in
    fun j ->
      Obs.Metric.add m_reuse 2;
      let n = max m (Array.length s.(j)) in
      if n = 0 then 0.0 else float_of_int (dist j) /. float_of_int n

let distance ~x key q1 q2 =
  let queries = [| q1; q2 |] in
  let run f = Ok (Array.init 2 f) in
  let text i = Sqlir.Printer.to_string queries.(i) in
  eval ~x (Fault.Error.get_ok (part { run } ~text key queries [| 0; 1 |])) 0 1

let len t i =
  match t.part with
  | Seqs (s, _) -> Array.length s.(i)
  | Sets _ | Clauses _ | Area_ids _ -> raise (wrong_key "Distance.Features.len")

let set t i =
  match t.part with
  | Sets s -> s.(i)
  | Clauses c -> c.(i).proj
  | Seqs _ | Area_ids _ -> raise (wrong_key "Distance.Features.set")
