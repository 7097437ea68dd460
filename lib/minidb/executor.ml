module Ast = Sqlir.Ast

type error =
  | Unknown_relation of string
  | Unknown_attribute of string
  | Ambiguous_attribute of string
  | Type_error of string
  | Unsupported of string

exception Exec_error of error

let error_to_string = function
  | Unknown_relation r -> "unknown relation " ^ r
  | Unknown_attribute a -> "unknown attribute " ^ a
  | Ambiguous_attribute a -> "ambiguous attribute " ^ a
  | Type_error m -> "type error: " ^ m
  | Unsupported m -> "unsupported: " ^ m

let fail e = raise (Exec_error e)

type provenance =
  | Pattr of string * string
  | Pagg of Sqlir.Ast.agg_fn * (string * string) option

type result = {
  columns : string list;
  provenance : provenance list;
  tuples : Value.t list list;
}

(* an evaluation environment: one entry per relation in scope *)
type env = (string * Schema.t * Value.t array) list

let resolve_in_env (env : env) (a : Ast.attr) : Value.t =
  match a.rel with
  | Some r ->
    (match List.find_opt (fun (name, _, _) -> name = r) env with
     | None -> fail (Unknown_relation r)
     | Some (_, schema, row) ->
       (match Schema.index_of schema a.name with
        | None -> fail (Unknown_attribute (r ^ "." ^ a.name))
        | Some i -> row.(i)))
  | None ->
    let hits =
      List.filter_map
        (fun (_, schema, row) ->
          Option.map (fun i -> row.(i)) (Schema.index_of schema a.name))
        env
    in
    (match hits with
     | [ v ] -> v
     | [] -> fail (Unknown_attribute a.name)
     | _ :: _ :: _ -> fail (Ambiguous_attribute a.name))

(* which (relation, column) does an attribute denote, given the schemas in
   scope?  Used for provenance and for static checks. *)
let resolve_origin (schemas : Schema.t list) (a : Ast.attr) : string * string =
  match a.rel with
  | Some r ->
    (match List.find_opt (fun s -> s.Schema.rel = r) schemas with
     | None -> fail (Unknown_relation r)
     | Some s ->
       if Schema.index_of s a.name = None then
         fail (Unknown_attribute (r ^ "." ^ a.name))
       else (r, a.name))
  | None ->
    let hits =
      List.filter (fun s -> Schema.index_of s a.name <> None) schemas
    in
    (match hits with
     | [ s ] -> (s.Schema.rel, a.name)
     | [] -> fail (Unknown_attribute a.name)
     | _ :: _ :: _ -> fail (Ambiguous_attribute a.name))

(* three-valued logic *)
type tv = T | F | U

let tv_and a b =
  match a, b with F, _ | _, F -> F | T, T -> T | _ -> U

let tv_or a b =
  match a, b with T, _ | _, T -> T | F, F -> F | _ -> U

let tv_not = function T -> F | F -> T | U -> U

let tv_of_cmp (c : Ast.cmp) (n : int) =
  let holds =
    match c with
    | Ast.Eq -> n = 0
    | Ast.Neq -> n <> 0
    | Ast.Lt -> n < 0
    | Ast.Le -> n <= 0
    | Ast.Gt -> n > 0
    | Ast.Ge -> n >= 0
  in
  if holds then T else F

let compare_values a b =
  match Value.compare_sql a b with
  | Some n -> Some n
  | None -> if Value.is_null a || Value.is_null b then None
    else fail (Type_error
                 (Printf.sprintf "cannot compare %s with %s"
                    (Value.to_string a) (Value.to_string b)))

let rec eval_pred (env : env) (p : Ast.pred) : tv =
  match p with
  | Ast.Cmp (c, a, v) ->
    (match compare_values (resolve_in_env env a) (Value.of_const v) with
     | None -> U
     | Some n -> tv_of_cmp c n)
  | Ast.Cmp_attrs (c, a, b) ->
    (match compare_values (resolve_in_env env a) (resolve_in_env env b) with
     | None -> U
     | Some n -> tv_of_cmp c n)
  | Ast.Between (a, lo, hi) ->
    let v = resolve_in_env env a in
    (match compare_values v (Value.of_const lo), compare_values v (Value.of_const hi) with
     | Some x, Some y -> if x >= 0 && y <= 0 then T else F
     | _ -> U)
  | Ast.In_list (a, vs) ->
    let v = resolve_in_env env a in
    if Value.is_null v then U
    else if List.exists (fun c -> Value.equal v (Value.of_const c)) vs then T
    else F
  | Ast.Like (a, pat) ->
    (match resolve_in_env env a with
     | Value.Vnull -> U
     | Value.Vstring s -> if Value.like_match ~pattern:pat s then T else F
     | v -> fail (Type_error ("LIKE on non-string " ^ Value.to_string v)))
  | Ast.Is_null a -> if Value.is_null (resolve_in_env env a) then T else F
  | Ast.Is_not_null a -> if Value.is_null (resolve_in_env env a) then F else T
  | Ast.Cmp_agg _ ->
    fail (Unsupported "aggregate predicate outside HAVING")
  | Ast.And (l, r) -> tv_and (eval_pred env l) (eval_pred env r)
  | Ast.Or (l, r) -> tv_or (eval_pred env l) (eval_pred env r)
  | Ast.Not q -> tv_not (eval_pred env q)

(* ---- aggregates ---- *)

let agg_eval (fn : Ast.agg_fn) (arg : Ast.attr option) (group : env list) : Value.t =
  match fn, arg with
  | Ast.Count, None -> Value.Vint (List.length group)
  | Ast.Count, Some a ->
    Value.Vint
      (List.length
         (List.filter (fun env -> not (Value.is_null (resolve_in_env env a))) group))
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
    fail (Unsupported "aggregate over *")
  | fn, Some a ->
    let vs =
      List.filter_map
        (fun env ->
          let v = resolve_in_env env a in
          if Value.is_null v then None else Some v)
        group
    in
    if vs = [] then Value.Vnull
    else begin
      match fn with
      | Ast.Min | Ast.Max ->
        let pick cmp x y =
          match compare_values x y with
          | Some n -> if cmp n then x else y
          | None -> x
        in
        let f = if fn = Ast.Min then (fun n -> n < 0) else fun n -> n > 0 in
        List.fold_left (pick f) (List.hd vs) (List.tl vs)
      | Ast.Sum | Ast.Avg ->
        let as_float = List.exists (function Value.Vfloat _ -> true | _ -> false) vs in
        let total =
          List.fold_left
            (fun acc v ->
              match v with
              | Value.Vint n -> acc +. float_of_int n
              | Value.Vfloat f -> acc +. f
              | v -> fail (Type_error ("SUM/AVG over non-numeric " ^ Value.to_string v)))
            0.0 vs
        in
        if fn = Ast.Avg then Value.Vfloat (total /. float_of_int (List.length vs))
        else if as_float then Value.Vfloat total
        else Value.Vint (int_of_float total)
      | Ast.Count -> assert false
    end

let rec eval_having (group : env list) (repr : env) (p : Ast.pred) : tv =
  match p with
  | Ast.Cmp_agg (c, fn, arg, v) ->
    (match compare_values (agg_eval fn arg group) (Value.of_const v) with
     | None -> U
     | Some n -> tv_of_cmp c n)
  | Ast.And (l, r) -> tv_and (eval_having group repr l) (eval_having group repr r)
  | Ast.Or (l, r) -> tv_or (eval_having group repr l) (eval_having group repr r)
  | Ast.Not q -> tv_not (eval_having group repr q)
  | p ->
    (* non-aggregate predicates refer to group-by attributes, which are
       constant inside the group: evaluate on the representative row *)
    eval_pred repr p

(* ---- the pipeline ---- *)

let scan (db : Database.t) (rel : string) : (string * Schema.t * Value.t array) Seq.t =
  match Database.find db rel with
  | None -> fail (Unknown_relation rel)
  | Some table ->
    let schema = Table.schema table in
    List.to_seq (Table.rows table) |> Seq.map (fun row -> (rel, schema, row))

let cartesian (envs : env list) (more : (string * Schema.t * Value.t array) Seq.t) : env list =
  let entries = List.of_seq more in
  List.concat_map (fun env -> List.map (fun e -> env @ [ e ]) entries) envs

let run (db : Database.t) (q : Ast.query) : result =
  if q.Ast.from = [] then fail (Unsupported "empty FROM");
  (* duplicate relation mentions would make resolution ambiguous *)
  let rels = q.Ast.from @ List.map (fun j -> j.Ast.jrel) q.Ast.joins in
  if List.length (List.sort_uniq String.compare rels) <> List.length rels then
    fail (Unsupported "self-joins / duplicate relation mentions");
  let schemas =
    List.map
      (fun r ->
        match Database.find db r with
        | None -> fail (Unknown_relation r)
        | Some t -> Table.schema t)
      rels
  in
  (* Static validation: resolve every attribute and type-check every
     predicate against the schemas BEFORE touching any rows, like a real
     SQL engine.  This makes error behavior independent of the data — a
     prerequisite for the hash join and empty-input short-cuts to be
     semantics-preserving. *)
  let kind_of_column a =
    let r, c = resolve_origin schemas a in
    let schema = List.find (fun s -> s.Schema.rel = r) schemas in
    match Schema.column_type schema c with
    | Some (Value.Tint | Value.Tfloat) -> `Num
    | Some Value.Tstring -> `Str
    | None -> assert false
  in
  let kind_of_const = function
    | Sqlir.Ast.Cint _ | Sqlir.Ast.Cfloat _ -> `Num
    | Sqlir.Ast.Cstring _ -> `Str
  in
  let require_comparable a v =
    if kind_of_column a <> kind_of_const v then
      fail
        (Type_error
           (Printf.sprintf "cannot compare %s with %s"
              (Sqlir.Printer.attr_to_string a)
              (Sqlir.Printer.const_to_string v)))
  in
  let check_agg fn arg v =
    match fn, arg with
    | Ast.Count, _ ->
      if Option.fold ~none:false ~some:(fun c -> kind_of_const c <> `Num) v then
        fail (Type_error "COUNT compares against a number");
      Option.iter (fun a -> ignore (resolve_origin schemas a)) arg
    | (Ast.Sum | Ast.Avg), Some a ->
      if kind_of_column a <> `Num then
        fail (Type_error ("SUM/AVG over non-numeric " ^ Sqlir.Printer.attr_to_string a));
      Option.iter
        (fun c -> if kind_of_const c <> `Num then
            fail (Type_error "SUM/AVG compares against a number"))
        v
    | (Ast.Min | Ast.Max), Some a ->
      Option.iter (fun c -> require_comparable a c) v
    | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), None ->
      fail (Unsupported "aggregate over *")
  in
  let rec check_pred ~in_having p =
    match p with
    | Ast.Cmp (_, a, v) -> require_comparable a v
    | Ast.Cmp_attrs (_, a, b) ->
      if kind_of_column a <> kind_of_column b then
        fail
          (Type_error
             (Printf.sprintf "cannot compare %s with %s"
                (Sqlir.Printer.attr_to_string a) (Sqlir.Printer.attr_to_string b)))
    | Ast.Between (a, lo, hi) ->
      require_comparable a lo;
      require_comparable a hi
    | Ast.In_list (a, vs) -> List.iter (require_comparable a) vs
    | Ast.Like (a, _) ->
      if kind_of_column a <> `Str then
        fail (Type_error ("LIKE on non-string " ^ Sqlir.Printer.attr_to_string a))
    | Ast.Is_null a | Ast.Is_not_null a -> ignore (resolve_origin schemas a)
    | Ast.Cmp_agg (_, fn, arg, v) ->
      if not in_having then fail (Unsupported "aggregate predicate outside HAVING");
      check_agg fn arg (Some v)
    | Ast.And (l, r) | Ast.Or (l, r) ->
      check_pred ~in_having l;
      check_pred ~in_having r
    | Ast.Not p -> check_pred ~in_having p
  in
  Option.iter (check_pred ~in_having:false) q.Ast.where;
  Option.iter (check_pred ~in_having:true) q.Ast.having;
  List.iter (fun a -> ignore (resolve_origin schemas a)) q.Ast.group_by;
  List.iter (fun (a, _) -> ignore (resolve_origin schemas a)) q.Ast.order_by;
  let static_grouped =
    q.Ast.group_by <> []
    || List.exists (function Ast.Sel_agg _ -> true | _ -> false) q.Ast.select
    || q.Ast.having <> None
  in
  List.iter
    (function
      | Ast.Star ->
        if static_grouped then fail (Unsupported "SELECT * with grouping")
      | Ast.Sel_attr (a, _) ->
        ignore (resolve_origin schemas a);
        if static_grouped && not (List.exists (Ast.equal_attr a) q.Ast.group_by)
        then
          fail
            (Unsupported
               (Printf.sprintf "non-grouped attribute %s in aggregate query"
                  a.Ast.name))
      | Ast.Sel_agg (fn, arg, _) -> check_agg fn arg None)
    q.Ast.select;
  List.iter
    (fun (j : Ast.join) ->
      (* join attributes resolve within the prefix of relations that are in
         scope once the join applies; the full-scope check suffices here *)
      ignore (resolve_origin schemas j.Ast.jleft);
      ignore (resolve_origin schemas j.Ast.jright))
    q.Ast.joins;
  (* FROM *)
  let envs =
    List.fold_left (fun acc rel -> cartesian acc (scan db rel)) [ [] ] q.Ast.from
  in
  (* JOINs: inner keeps matches only; left keeps unmatched left rows padded
     with an all-null row for the joined relation.  When the ON predicate
     cleanly splits into one attribute per side, a hash join turns the
     O(|left| * |right|) nested loop into O(|left| + |right|). *)
  let join_step (acc, env_schemas) (j : Ast.join) =
    let jschema =
      match Database.find db j.Ast.jrel with
      | None -> fail (Unknown_relation j.Ast.jrel)
      | Some table -> Table.schema table
    in
    let entries = List.of_seq (scan db j.Ast.jrel) in
    let null_entry =
      (j.Ast.jrel, jschema, Array.make (Schema.arity jschema) Value.Vnull)
    in
    let hits_in schemas (a : Ast.attr) =
      List.length
        (List.filter
           (fun (rel, schema) ->
             (a.Ast.rel = None || a.Ast.rel = Some rel)
             && Schema.index_of schema a.Ast.name <> None)
           schemas)
    in
    let entry_schemas = [ (j.Ast.jrel, jschema) ] in
    let side a = (hits_in entry_schemas a, hits_in env_schemas a) in
    let plan =
      match side j.Ast.jleft, side j.Ast.jright with
      | (1, 0), (0, 1) -> Some (j.Ast.jleft, j.Ast.jright)
      | (0, 1), (1, 0) -> Some (j.Ast.jright, j.Ast.jleft)
      | _ -> None  (* ambiguous or degenerate: nested loop decides/raises *)
    in
    let joined =
      match plan with
      | Some (entry_attr, env_attr) ->
        (* ints and floats compare numerically in SQL, so they must share a
           hash key (exact for the integer magnitudes this engine stores) *)
        let key = function
          | Value.Vint n -> Value.Vfloat (float_of_int n)
          | v -> v
        in
        let index : (Value.t, (string * Schema.t * Value.t array) list) Hashtbl.t =
          Hashtbl.create (List.length entries)
        in
        List.iter
          (fun entry ->
            let v = resolve_in_env [ entry ] entry_attr in
            if not (Value.is_null v) then
              Hashtbl.replace index (key v)
                (entry :: Option.value ~default:[] (Hashtbl.find_opt index (key v))))
          entries;
        List.concat_map
          (fun env ->
            let v = resolve_in_env env env_attr in
            let hits =
              if Value.is_null v then []
              else
                List.rev (Option.value ~default:[] (Hashtbl.find_opt index (key v)))
            in
            match hits, j.Ast.jkind with
            | [], Ast.Left -> [ env @ [ null_entry ] ]
            | [], Ast.Inner -> []
            | hits, _ -> List.map (fun entry -> env @ [ entry ]) hits)
          acc
      | None ->
        let matches env =
          List.filter
            (fun entry ->
              let env' = env @ [ entry ] in
              match
                compare_values (resolve_in_env env' j.Ast.jleft)
                  (resolve_in_env env' j.Ast.jright)
              with
              | Some 0 -> true
              | Some _ | None -> false)
            entries
        in
        List.concat_map
          (fun env ->
            match matches env, j.Ast.jkind with
            | [], Ast.Left -> [ env @ [ null_entry ] ]
            | [], Ast.Inner -> []
            | hits, _ -> List.map (fun entry -> env @ [ entry ]) hits)
          acc
    in
    (joined, env_schemas @ entry_schemas)
  in
  let from_schemas =
    List.map
      (fun r ->
        match Database.find db r with
        | None -> fail (Unknown_relation r)
        | Some t -> (r, Table.schema t))
      q.Ast.from
  in
  let envs = fst (List.fold_left join_step (envs, from_schemas) q.Ast.joins) in
  (* WHERE *)
  let envs =
    match q.Ast.where with
    | None -> envs
    | Some p -> List.filter (fun env -> eval_pred env p = T) envs
  in
  let has_agg =
    List.exists (function Ast.Sel_agg _ -> true | _ -> false) q.Ast.select
    || q.Ast.having <> None
  in
  let grouped = q.Ast.group_by <> [] || has_agg in
  let expand_star () =
    List.concat_map
      (fun s -> List.map (fun c -> (s.Schema.rel, c)) (Schema.column_names s))
      schemas
  in
  let item_provenance = function
    | Ast.Star -> List.map (fun (r, c) -> Pattr (r, c)) (expand_star ())
    | Ast.Sel_attr (a, _) ->
      let r, c = resolve_origin schemas a in
      [ Pattr (r, c) ]
    | Ast.Sel_agg (fn, arg, _) ->
      [ Pagg (fn, Option.map (resolve_origin schemas) arg) ]
  in
  let provenance = List.concat_map item_provenance q.Ast.select in
  let default_label = function
    | Pattr (_, c) -> c
    | Pagg (fn, arg) ->
      let fn_name =
        match fn with
        | Ast.Count -> "count" | Ast.Sum -> "sum" | Ast.Avg -> "avg"
        | Ast.Min -> "min" | Ast.Max -> "max"
      in
      (match arg with None -> fn_name | Some (_, c) -> fn_name ^ "_" ^ c)
  in
  let item_labels = function
    | Ast.Star -> List.map (fun rc -> default_label (Pattr (fst rc, snd rc))) (expand_star ())
    | Ast.Sel_attr (a, alias) ->
      [ (match alias with
         | Some l -> l
         | None ->
           let r, c = resolve_origin schemas a in
           default_label (Pattr (r, c))) ]
    | Ast.Sel_agg (fn, arg, alias) ->
      [ (match alias with
         | Some l -> l
         | None -> default_label (Pagg (fn, Option.map (resolve_origin schemas) arg))) ]
  in
  let columns = List.concat_map item_labels q.Ast.select in
  (* produce (sort_keys, tuple) pairs *)
  let order_attrs = List.map fst q.Ast.order_by in
  let keyed_tuples =
    if not grouped then begin
      let project env =
        let item = function
          | Ast.Star ->
            List.concat_map
              (fun (_, schema, row) ->
                ignore schema;
                Array.to_list row)
              env
          | Ast.Sel_attr (a, _) -> [ resolve_in_env env a ]
          | Ast.Sel_agg _ -> assert false
        in
        let tuple = List.concat_map item q.Ast.select in
        let keys = List.map (fun a -> resolve_in_env env a) order_attrs in
        (keys, tuple)
      in
      List.map project envs
    end
    else begin
      if List.exists (function Ast.Star -> true | _ -> false) q.Ast.select then
        fail (Unsupported "SELECT * with grouping");
      (* bucket rows by group-by key *)
      let tbl = Hashtbl.create 64 in
      let order = ref [] in
      List.iter
        (fun env ->
          let key = List.map (fun a -> resolve_in_env env a) q.Ast.group_by in
          if not (Hashtbl.mem tbl key) then order := key :: !order;
          Hashtbl.replace tbl key
            (env :: (try Hashtbl.find tbl key with Not_found -> [])))
        envs;
      let groups =
        if q.Ast.group_by = [] then
          (* implicit single group, present even over an empty input *)
          [ (try Hashtbl.find tbl [] with Not_found -> []) ]
        else
          List.rev_map (fun key -> List.rev (Hashtbl.find tbl key)) !order
          |> List.rev
      in
      let project group =
        match group with
        | [] ->
          (* only the implicit group can be empty *)
          let item = function
            | Ast.Sel_agg (Ast.Count, _, _) -> [ Value.Vint 0 ]
            | Ast.Sel_agg (_, _, _) -> [ Value.Vnull ]
            | Ast.Sel_attr _ | Ast.Star -> fail (Unsupported "column without rows")
          in
          Some (([] : Value.t list), List.concat_map item q.Ast.select)
        | repr :: _ ->
          let keep =
            match q.Ast.having with
            | None -> true
            | Some p -> eval_having group repr p = T
          in
          if not keep then None
          else begin
            let item = function
              | Ast.Star -> assert false
              | Ast.Sel_attr (a, _) ->
                (* must be a group-by attribute to be well-defined *)
                if not (List.exists (Ast.equal_attr a) q.Ast.group_by) then
                  fail
                    (Unsupported
                       (Printf.sprintf "non-grouped attribute %s in aggregate query"
                          a.Ast.name));
                [ resolve_in_env repr a ]
              | Ast.Sel_agg (fn, arg, _) -> [ agg_eval fn arg group ]
            in
            let tuple = List.concat_map item q.Ast.select in
            let keys = List.map (fun a -> resolve_in_env repr a) order_attrs in
            Some (keys, tuple)
          end
      in
      List.filter_map project groups
    end
  in
  (* DISTINCT *)
  let keyed_tuples =
    if q.Ast.distinct then begin
      let seen = Hashtbl.create 64 in
      List.filter
        (fun (_, tuple) ->
          if Hashtbl.mem seen tuple then false
          else begin
            Hashtbl.add seen tuple ();
            true
          end)
        keyed_tuples
    end
    else keyed_tuples
  in
  (* ORDER BY: stable sort on the key list *)
  let keyed_tuples =
    if q.Ast.order_by = [] then keyed_tuples
    else begin
      let dirs = List.map snd q.Ast.order_by in
      let cmp (ka, _) (kb, _) =
        let rec go ks1 ks2 ds =
          match ks1, ks2, ds with
          | [], [], _ -> 0
          | k1 :: r1, k2 :: r2, d :: rd ->
            let c =
              match Value.compare_sql k1 k2 with
              | Some n -> n
              | None ->
                (* nulls sort first *)
                (match Value.is_null k1, Value.is_null k2 with
                 | true, true -> 0
                 | true, false -> -1
                 | false, true -> 1
                 | false, false -> 0)
            in
            let c = match d with Ast.Asc -> c | Ast.Desc -> -c in
            if c <> 0 then c else go r1 r2 rd
          | _ -> 0
        in
        go ka kb dirs
      in
      List.stable_sort cmp keyed_tuples
    end
  in
  let tuples = List.map snd keyed_tuples in
  let tuples =
    match q.Ast.limit with
    | None -> tuples
    | Some n -> List.filteri (fun i _ -> i < n) tuples
  in
  { columns; provenance; tuples }

let result_tuple_set r =
  List.sort_uniq (List.compare Value.compare) r.tuples
