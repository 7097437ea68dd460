module Ast = Sqlir.Ast
module Value = Minidb.Value

type row = {
  attr : string;
  cls : Dpe.Taxonomy.ppe_class;
  outcome : Attacks.outcome;
}

type report = {
  label : string;
  rows : row list;
  overall : Attacks.outcome;
}

let constants_by_attr log =
  let acc = ref [] in
  let collect ctx c =
    (match ctx with
     | Ast.In_predicate a -> acc := (a.Ast.name, c) :: !acc
     | Ast.In_aggregate (Ast.Count, _) -> ()
     | Ast.In_aggregate ((Ast.Min | Ast.Max), Some a) ->
       acc := (a.Ast.name, c) :: !acc
     | Ast.In_aggregate _ -> ());
    c
  in
  List.iter
    (fun q -> ignore (Ast.map_query ~rel:Fun.id ~attr:Fun.id ~const:collect q))
    log;
  List.rev !acc

let group_pairs plain_consts cipher_consts =
  (* keys come from the plaintext side; the cipher log is traversed in the
     same order because encryption is structure-preserving *)
  if List.length plain_consts <> List.length cipher_consts then
    invalid_arg "Harness: logs do not align";
  let tbl = Hashtbl.create 16 in
  List.iter2
    (fun (attr, pc) (_, cc) ->
      let pair = (Value.of_const pc, Value.of_const cc) in
      Hashtbl.replace tbl attr
        (pair :: Option.value ~default:[] (Hashtbl.find_opt tbl attr)))
    plain_consts cipher_consts;
  Hashtbl.fold (fun attr pairs acc -> (attr, List.rev pairs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge_outcomes outcomes =
  let cells = List.fold_left (fun acc o -> acc + o.Attacks.cells) 0 outcomes in
  let recovered =
    List.fold_left (fun acc o -> acc + o.Attacks.recovered) 0 outcomes
  in
  { Attacks.cells; recovered;
    rate = (if cells = 0 then 0.0 else float_of_int recovered /. float_of_int cells) }

let report_of_groups ~label ~class_of groups =
  let rows =
    List.map
      (fun (attr, pairs) ->
        let cls = class_of attr in
        let aux = Aux_model.of_values (List.map fst pairs) in
        { attr; cls; outcome = Attacks.for_class cls aux pairs })
      groups
  in
  { label; rows; overall = merge_outcomes (List.map (fun r -> r.outcome) rows) }

let attack_log ~label ~class_of ~plain ~cipher =
  let groups = group_pairs (constants_by_attr plain) (constants_by_attr cipher) in
  report_of_groups ~label ~class_of groups

(* every relation- and attribute-name occurrence in traversal order,
   tagged "rel" or "attr" *)
let names_by_position log =
  let acc = ref [] in
  let collect_rel r = acc := ("rel", r) :: !acc; r in
  let collect_attr (a : Ast.attr) =
    Option.iter (fun r -> acc := ("rel", r) :: !acc) a.Ast.rel;
    acc := ("attr", a.Ast.name) :: !acc;
    a
  in
  List.iter
    (fun q ->
      ignore
        (Ast.map_query ~rel:collect_rel ~attr:collect_attr
           ~const:(fun _ c -> c) q))
    log;
  List.rev !acc

let attack_names ~label ~plain ~cipher =
  let p = names_by_position plain and c = names_by_position cipher in
  if List.length p <> List.length c then invalid_arg "Harness: logs do not align";
  let tbl = Hashtbl.create 4 in
  List.iter2
    (fun (ns, pn) (_, cn) ->
      let pair = (Value.Vstring pn, Value.Vstring cn) in
      Hashtbl.replace tbl ns
        (pair :: Option.value ~default:[] (Hashtbl.find_opt tbl ns)))
    p c;
  let groups =
    Hashtbl.fold (fun ns pairs acc -> (ns, List.rev pairs) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* names are deterministic pseudonyms under every scheme *)
  report_of_groups ~label ~class_of:(fun _ -> Dpe.Taxonomy.DET) groups

let attack_database ~label ~class_of ~plain ~cipher ~cipher_rel_of ~cipher_attr_of =
  let groups =
    List.concat_map
      (fun rel ->
        let pt = Minidb.Database.find_exn plain rel in
        let ct = Minidb.Database.find_exn cipher (cipher_rel_of rel) in
        let schema = Minidb.Table.schema pt in
        List.map
          (fun col ->
            let pv = Minidb.Table.column_values pt col in
            let cv = Minidb.Table.column_values ct (cipher_attr_of col) in
            let pairs =
              List.combine pv cv
              |> List.filter (fun (p, _) -> not (Value.is_null p))
            in
            (col, pairs))
          (Minidb.Schema.column_names schema))
      (Minidb.Database.relations plain)
  in
  (* merge same-named columns across relations (they share keys/policies) *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (col, pairs) ->
      Hashtbl.replace tbl col
        (Option.value ~default:[] (Hashtbl.find_opt tbl col) @ pairs))
    groups;
  let merged =
    Hashtbl.fold (fun col pairs acc -> (col, pairs) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  report_of_groups ~label ~class_of merged

let pp fmt r =
  Format.fprintf fmt "%s: overall recovery %d/%d = %.3f@." r.label
    r.overall.Attacks.recovered r.overall.Attacks.cells r.overall.Attacks.rate;
  List.iter
    (fun row ->
      Format.fprintf fmt "  %-14s %-8s %4d/%-4d = %.3f@." row.attr
        (Dpe.Taxonomy.to_string row.cls)
        row.outcome.Attacks.recovered row.outcome.Attacks.cells
        row.outcome.Attacks.rate)
    r.rows
