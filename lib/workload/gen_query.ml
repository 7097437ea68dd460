module Ast = Sqlir.Ast

type caps = {
  allow_like : bool;
  allow_sum : bool;
  allow_order_limit : bool;
  allow_join : bool;
  allow_having : bool;
}

let caps_full = {
  allow_like = true;
  allow_sum = true;
  allow_order_limit = true;
  allow_join = true;
  allow_having = true;
}

let caps_for_measure = function
  | Distance.Measure.Result -> { caps_full with allow_like = false; allow_sum = false }
  | Distance.Measure.Token | Distance.Measure.Structure | Distance.Measure.Access
  | Distance.Measure.Edit | Distance.Measure.Clause ->
    caps_full

type params = {
  n : int;
  templates : int;
  seed : string;
  caps : caps;
}

let attr name = Ast.attr name
let qattr rel name = Ast.attr ~rel name

(* jitter an integer around a center, within [lo, hi]; the width scales
   with the domain so same-template queries stay close but not equal *)
let jitter rng ~lo ~hi center =
  let width = max 1 ((hi - lo) / 20) in
  let v = center + Crypto.Drbg.uniform_int rng (2 * width + 1) - width in
  max lo (min hi v)

let pick rng xs = List.nth xs (Crypto.Drbg.uniform_int rng (List.length xs))

let between rng ~lo ~hi c_lo c_hi a =
  let x = jitter rng ~lo ~hi c_lo and y = jitter rng ~lo ~hi c_hi in
  Ast.Between (a, Ast.Cint (min x y), Ast.Cint (max x y))

(* ---- SkyServer templates ---- *)

let sky_shapes caps =
  [ `Range; `Point ]
  @ (if caps.allow_join then [ `Join; `LeftJoin ] else [])
  @ [ `Count ]
  @ (if caps.allow_sum then [ `SumAgg ] else [])
  @ (if caps.allow_order_limit then [ `TopK ] else [])
  @ (if caps.allow_like then [ `Like ] else [])


type sky_template = {
  ra_center : int * int;
  dec_center : int * int;
  cls : string;
  mag_cut : int;
  z_cut : int;
  shape : int;  (* which query shape the template prefers *)
}

let sky_template rng i caps =
  let u n = Crypto.Drbg.uniform_int rng n in
  let ra = u 300_000 in
  let dec = u 150_000 - 75_000 in
  let shapes = sky_shapes caps in
  ignore i;
  { ra_center = (ra, ra + 10_000 + u 20_000);
    dec_center = (dec, dec + 5_000 + u 10_000);
    cls = pick rng [ "STAR"; "GALAXY"; "QSO"; "UNKNOWN"; "SKY"; "NEBULA" ];
    mag_cut = 15 + u 12;
    z_cut = 100 + u 3_000;
    shape = u (List.length shapes) }

let sky_query rng caps (t : sky_template) =
  let shapes = sky_shapes caps in
  let shape = List.nth shapes (t.shape mod List.length shapes) in
  let ra_lo, ra_hi = t.ra_center and dec_lo, dec_hi = t.dec_center in
  let ra_pred = between rng ~lo:0 ~hi:360_000 ra_lo ra_hi (attr "ra") in
  let dec_pred = between rng ~lo:(-90_000) ~hi:90_000 dec_lo dec_hi (attr "dec") in
  let mag_pred () =
    Ast.Cmp (Ast.Lt, attr "magnitude", Ast.Cint (jitter rng ~lo:10 ~hi:30 t.mag_cut))
  in
  let base = Ast.simple_query in
  match shape with
  | `Range ->
    let where = Ast.And (ra_pred, dec_pred) in
    let where =
      if Crypto.Drbg.uniform_int rng 2 = 0 then Ast.And (where, mag_pred ())
      else where
    in
    { base with
      select = [ Ast.Sel_attr (attr "objid", None); Ast.Sel_attr (attr "ra", None);
                 Ast.Sel_attr (attr "dec", None) ];
      from = [ "photoobj" ];
      where = Some where }
  | `Point ->
    let where = Ast.Cmp (Ast.Eq, attr "class", Ast.Cstring t.cls) in
    let where =
      if Crypto.Drbg.uniform_int rng 2 = 0 then
        Ast.And (where, Ast.Cmp (Ast.Eq, attr "flags",
                                 Ast.Cint (Crypto.Drbg.uniform_int rng 4)))
      else where
    in
    { base with
      select = [ Ast.Sel_attr (attr "objid", None); Ast.Sel_attr (attr "magnitude", None) ];
      from = [ "photoobj" ];
      where = Some where }
  | `Join ->
    { base with
      select = [ Ast.Sel_attr (qattr "photoobj" "objid", None); Ast.Sel_attr (attr "z", None) ];
      from = [ "photoobj" ];
      joins =
        [ { Ast.jkind = Ast.Inner; jrel = "specobj";
            jleft = qattr "photoobj" "objid"; jright = qattr "specobj" "objid" } ];
      where = Some (Ast.Cmp (Ast.Gt, attr "z",
                             Ast.Cint (jitter rng ~lo:0 ~hi:5_000 t.z_cut))) }
  | `LeftJoin ->
    (* objects with or without a spectroscopic match *)
    { base with
      select = [ Ast.Sel_attr (qattr "photoobj" "objid", None); Ast.Sel_attr (attr "z", None) ];
      from = [ "photoobj" ];
      joins =
        [ { Ast.jkind = Ast.Left; jrel = "specobj";
            jleft = qattr "photoobj" "objid"; jright = qattr "specobj" "objid" } ];
      where =
        Some (Ast.And (Ast.Cmp (Ast.Lt, attr "magnitude",
                                Ast.Cint (jitter rng ~lo:10 ~hi:30 t.mag_cut)),
                       Ast.Or (Ast.Is_null (attr "z"),
                               Ast.Cmp (Ast.Gt, attr "z",
                                        Ast.Cint (jitter rng ~lo:0 ~hi:5_000 t.z_cut))))) }
  | `Count ->
    let having =
      if caps.allow_having && Crypto.Drbg.uniform_int rng 2 = 0 then
        Some (Ast.Cmp_agg (Ast.Gt, Ast.Count, None,
                           Ast.Cint (1 + Crypto.Drbg.uniform_int rng 5)))
      else None
    in
    { base with
      select = [ Ast.Sel_attr (attr "class", None); Ast.Sel_agg (Ast.Count, None, None) ];
      from = [ "photoobj" ];
      where = Some (mag_pred ());
      group_by = [ attr "class" ];
      having }
  | `SumAgg ->
    { base with
      select = [ Ast.Sel_attr (attr "class", None);
                 Ast.Sel_agg (Ast.Sum, Some (attr "redshift"), Some "total_redshift") ];
      from = [ "photoobj" ];
      where = Some ra_pred;
      group_by = [ attr "class" ] }
  | `TopK ->
    { base with
      select = [ Ast.Sel_attr (attr "objid", None); Ast.Sel_attr (attr "magnitude", None) ];
      from = [ "photoobj" ];
      where = Some (Ast.Cmp (Ast.Eq, attr "class", Ast.Cstring t.cls));
      order_by = [ (attr "magnitude", Ast.Asc) ];
      limit = Some (5 + Crypto.Drbg.uniform_int rng 20) }
  | `Like ->
    { base with
      select = [ Ast.Sel_attr (attr "objid", None) ];
      from = [ "photoobj" ];
      where = Some (Ast.Like (attr "class", String.sub t.cls 0 1 ^ "%")) }

(* ---- retail templates ---- *)

type retail_template = {
  region : string;
  qty_cut : int;
  amount_center : int * int;
  category : string;
  prods : int list;
  rshape : int;
}

let retail_template rng _i =
  let u n = Crypto.Drbg.uniform_int rng n in
  let a = u 4_000 in
  { region = pick rng [ "north"; "south"; "east"; "west"; "central" ];
    qty_cut = 2 + u 15;
    amount_center = (a, a + 200 + u 800);
    category = pick rng [ "grocery"; "clothing"; "electronics"; "toys"; "garden" ];
    prods = List.init (2 + u 3) (fun _ -> 1 + u 500);
    rshape = u 1_000 }

let retail_shapes caps =
  [ `Filter; `PointCat ]
  @ (if caps.allow_join then [ `RegionJoin ] else [])
  @ (if caps.allow_sum then [ `Rollup ] else [ `CountRollup ])
  @ [ `MinMax ]

let retail_query rng caps (t : retail_template) =
  let shapes = retail_shapes caps in
  let shape = List.nth shapes (t.rshape mod List.length shapes) in
  let base = Ast.simple_query in
  let a_lo, a_hi = t.amount_center in
  let amount_pred = between rng ~lo:1 ~hi:5_000 a_lo a_hi (attr "amount") in
  match shape with
  | `Filter ->
    let prods =
      List.map (fun p -> Ast.Cint (jitter rng ~lo:1 ~hi:500 p)) t.prods
    in
    { base with
      select = [ Ast.Sel_attr (attr "saleid", None) ];
      from = [ "sales" ];
      where = Some (Ast.And (Ast.In_list (attr "prodid", prods), amount_pred)) }
  | `PointCat ->
    { base with
      select = [ Ast.Sel_attr (attr "prodid", None); Ast.Sel_attr (attr "price", None) ];
      from = [ "products" ];
      where = Some (Ast.Cmp (Ast.Eq, attr "category", Ast.Cstring t.category)) }
  | `RegionJoin ->
    { base with
      select = [ Ast.Sel_attr (qattr "sales" "saleid", None); Ast.Sel_attr (attr "amount", None) ];
      from = [ "sales" ];
      joins =
        [ { Ast.jkind = Ast.Inner; jrel = "stores";
            jleft = qattr "sales" "storeid"; jright = qattr "stores" "storeid" } ];
      where =
        Some (Ast.And (Ast.Cmp (Ast.Eq, attr "region", Ast.Cstring t.region),
                       amount_pred)) }
  | `Rollup ->
    let having =
      if caps.allow_having && Crypto.Drbg.uniform_int rng 2 = 0 then
        Some (Ast.Cmp_agg (Ast.Gt, Ast.Count, None,
                           Ast.Cint (1 + Crypto.Drbg.uniform_int rng 4)))
      else None
    in
    { base with
      select = [ Ast.Sel_attr (attr "storeid", None);
                 Ast.Sel_agg (Ast.Sum, Some (attr "amount"), Some "revenue") ];
      from = [ "sales" ];
      where = Some (Ast.Cmp (Ast.Gt, attr "qty",
                             Ast.Cint (jitter rng ~lo:1 ~hi:20 t.qty_cut)));
      group_by = [ attr "storeid" ];
      having }
  | `CountRollup ->
    { base with
      select = [ Ast.Sel_attr (attr "storeid", None); Ast.Sel_agg (Ast.Count, None, None) ];
      from = [ "sales" ];
      where = Some (Ast.Cmp (Ast.Gt, attr "qty",
                             Ast.Cint (jitter rng ~lo:1 ~hi:20 t.qty_cut)));
      group_by = [ attr "storeid" ] }
  | `MinMax ->
    { base with
      select = [ Ast.Sel_attr (attr "category", None);
                 Ast.Sel_agg (Ast.Max, Some (attr "price"), None) ];
      from = [ "products" ];
      group_by = [ attr "category" ] }

(* ---- log assembly ---- *)

let make_log ~template ~instantiate p =
  if p.templates < 1 then invalid_arg "Gen_query: templates >= 1";
  let trng = Crypto.Drbg.create ~seed:("templates/" ^ p.seed) in
  let templates = List.init p.templates (fun i -> template trng i) in
  let qrng = Crypto.Drbg.create ~seed:("queries/" ^ p.seed) in
  List.init p.n (fun _ ->
      let ti = Crypto.Drbg.uniform_int qrng p.templates in
      (ti, instantiate qrng (List.nth templates ti)))

let skyserver_log_labelled p =
  make_log p
    ~template:(fun rng i -> sky_template rng i p.caps)
    ~instantiate:(fun rng t -> sky_query rng p.caps t)

let retail_log_labelled p =
  make_log p
    ~template:(fun rng i -> retail_template rng i)
    ~instantiate:(fun rng t -> retail_query rng p.caps t)

let skyserver_log p = List.map snd (skyserver_log_labelled p)

let skyserver_sessions p ~length =
  if p.templates < 1 then invalid_arg "Gen_query: templates >= 1";
  if length < 1 then invalid_arg "Gen_query: session length >= 1";
  let trng = Crypto.Drbg.create ~seed:("templates/" ^ p.seed) in
  let templates = List.init p.templates (fun i -> sky_template trng i p.caps) in
  let qrng = Crypto.Drbg.create ~seed:("sessions/" ^ p.seed) in
  List.init p.n (fun _ ->
      let ti = Crypto.Drbg.uniform_int qrng p.templates in
      let t = List.nth templates ti in
      let len = max 1 (length - 2 + Crypto.Drbg.uniform_int qrng 5) in
      (ti, List.init len (fun _ -> sky_query qrng p.caps t)))
let retail_log p = List.map snd (retail_log_labelled p)
