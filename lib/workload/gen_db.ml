module Value = Minidb.Value

type column_info = {
  cname : string;
  cty : Minidb.Value.ty;
  lo : int;
  hi : int;
  vocab : string list;
  nullable : bool;
}

type rel_info = { rname : string; columns : column_info list }

type info = { rels : rel_info list }

let int_col ?(nullable = false) cname lo hi =
  { cname; cty = Value.Tint; lo; hi; vocab = []; nullable }

let str_col ?(nullable = false) cname vocab =
  { cname; cty = Value.Tstring; lo = 0; hi = 0; vocab; nullable }

let skyserver_info =
  { rels =
      [ { rname = "photoobj";
          columns =
            [ int_col "objid" 1 1_000_000;
              int_col "ra" 0 360_000;       (* milli-degrees *)
              int_col "dec" (-90_000) 90_000;
              int_col "magnitude" 10 30;
              int_col ~nullable:true "redshift" 0 5_000;
              str_col "class"
                [ "STAR"; "GALAXY"; "QSO"; "UNKNOWN"; "SKY"; "NEBULA" ];
              int_col "flags" 0 255 ] };
        { rname = "specobj";
          columns =
            [ int_col "specid" 1 1_000_000;
              int_col "objid" 1 1_000_000;
              int_col "z" 0 5_000;
              str_col "template" [ "T1"; "T2"; "T3"; "T4" ] ] } ] }

let retail_info =
  { rels =
      [ { rname = "sales";
          columns =
            [ int_col "saleid" 1 10_000_000;
              int_col "storeid" 1 50;
              int_col "prodid" 1 500;
              int_col "qty" 1 20;
              int_col "amount" 1 5_000 ] };
        { rname = "stores";
          columns =
            [ int_col "storeid" 1 50;
              str_col "region" [ "north"; "south"; "east"; "west"; "central" ];
              int_col "size" 100 10_000 ] };
        { rname = "products";
          columns =
            [ int_col "prodid" 1 500;
              str_col "category"
                [ "grocery"; "clothing"; "electronics"; "toys"; "garden" ];
              int_col "price" 1 1_000 ] } ] }

let column info name =
  let rec go = function
    | [] -> raise Not_found
    | r :: rest ->
      (match List.find_opt (fun c -> c.cname = name) r.columns with
       | Some c -> c
       | None -> go rest)
  in
  go info.rels

let draw_value rng (c : column_info) =
  if c.nullable && Crypto.Drbg.uniform_int rng 10 = 0 then Value.Vnull
  else
    match c.cty with
    | Value.Tint -> Value.Vint (c.lo + Crypto.Drbg.uniform_int rng (c.hi - c.lo + 1))
    | Value.Tstring ->
      Value.Vstring (List.nth c.vocab (Crypto.Drbg.uniform_int rng (List.length c.vocab)))
    | Value.Tfloat -> Value.Vfloat (Crypto.Drbg.uniform_float rng)

let rows_for rel_index rows = if rel_index = 0 then rows else max 1 (rows / 2)

let generate info ~seed ~rows =
  let rng = Crypto.Drbg.create ~seed:("gen_db/" ^ seed) in
  List.fold_left
    (fun (db, idx) (r : rel_info) ->
      let schema =
        Minidb.Schema.make ~rel:r.rname
          (List.map (fun c -> (c.cname, c.cty)) r.columns)
      in
      let n = rows_for idx rows in
      let make_row i =
        Array.of_list
          (List.map
             (fun c ->
               (* primary-key-ish columns stay unique and dense *)
               if String.length c.cname >= 2
                  && (c.cname = "objid" && r.rname = "photoobj"
                      || c.cname = "specid" || c.cname = "saleid"
                      || (c.cname = "storeid" && r.rname = "stores")
                      || (c.cname = "prodid" && r.rname = "products"))
               then Value.Vint (i + 1)
               else if c.cname = "objid" && r.rname = "specobj" then
                 (* foreign key into photoobj's dense ids *)
                 Value.Vint (1 + Crypto.Drbg.uniform_int rng (rows_for 0 rows))
               else if c.cname = "storeid" && r.rname = "sales" then
                 Value.Vint (1 + Crypto.Drbg.uniform_int rng 50)
               else if c.cname = "prodid" && r.rname = "sales" then
                 Value.Vint (1 + Crypto.Drbg.uniform_int rng 500)
               else draw_value rng c)
             r.columns)
      in
      let table =
        Minidb.Table.of_rows schema (List.init n make_row)
      in
      (Minidb.Database.add_table db table, idx + 1))
    (Minidb.Database.empty, 0) info.rels
  |> fst

let skyserver ~seed ~rows = generate skyserver_info ~seed ~rows
let retail ~seed ~rows = generate retail_info ~seed ~rows

let for_log ~seed ~rows log =
  let rels = List.concat_map Sqlir.Ast.relations log in
  if List.exists (fun r -> r = "photoobj" || r = "specobj") rels then
    skyserver ~seed ~rows
  else retail ~seed ~rows
