module Ast = Sqlir.Ast
module SS = Set.Make (String)

type t =
  | Empty
  | All
  | Num of Interval.t
  | Sfinite of string list
  | Scofinite of string list
  | Opaque of string list

let normalize = function
  | Num i when Interval.is_empty i -> Empty
  | Num i when Interval.is_all i -> All
  | Sfinite [] -> Empty
  | Scofinite [] -> All
  | Opaque [] -> Empty
  | (Empty | All | Num _ | Sfinite _ | Scofinite _ | Opaque _) as a -> a

let sorted xs = List.sort_uniq String.compare xs

let to_string = function
  | Empty -> "{}"
  | All -> "ALL"
  | Num i -> Interval.to_string i
  | Sfinite xs -> "{" ^ String.concat "," xs ^ "}"
  | Scofinite xs -> "~{" ^ String.concat "," xs ^ "}"
  | Opaque xs -> "?{" ^ String.concat "," xs ^ "}"

(* canonical rendering used when boolean structure forces an area opaque *)
let canon a = to_string a

let set_inter a b = SS.elements (SS.inter (SS.of_list a) (SS.of_list b))
let set_union a b = sorted (a @ b)
let set_diff a b = SS.elements (SS.diff (SS.of_list a) (SS.of_list b))

let rec union a b =
  match normalize a, normalize b with
  | Empty, x | x, Empty -> x
  | All, _ | _, All -> All
  | Num x, Num y -> normalize (Num (Interval.union x y))
  | Sfinite x, Sfinite y -> Sfinite (set_union x y)
  | Scofinite x, Scofinite y -> normalize (Scofinite (set_inter x y))
  | Sfinite x, Scofinite y | Scofinite y, Sfinite x ->
    normalize (Scofinite (set_diff y x))
  | Opaque x, Opaque y -> Opaque (set_union x y)
  | x, y ->
    (* heterogeneous combination: keep a faithful opaque union so equality
       stays structural.  Order the two operands deterministically by
       re-associating through Opaque atoms. *)
    union (Opaque [ canon x ]) (Opaque [ canon y ])

let rec inter a b =
  match normalize a, normalize b with
  | Empty, _ | _, Empty -> Empty
  | All, x | x, All -> x
  | Num x, Num y -> normalize (Num (Interval.inter x y))
  | Sfinite x, Sfinite y -> normalize (Sfinite (set_inter x y))
  | Scofinite x, Scofinite y -> Scofinite (set_union x y)
  | Sfinite x, Scofinite y | Scofinite y, Sfinite x ->
    normalize (Sfinite (set_diff x y))
  | Opaque x, Opaque y ->
    (* conservative: the common atoms, which both regions certainly cover *)
    normalize (Opaque (set_inter x y))
  | x, y -> inter (Opaque [ "&" ^ canon x ]) (Opaque [ "&" ^ canon y ])

let complement = function
  | Empty -> All
  | All -> Empty
  | Num i -> normalize (Num (Interval.complement i))
  | Sfinite xs -> Scofinite xs
  | Scofinite xs -> Sfinite xs
  | Opaque xs -> Opaque [ "!" ^ String.concat "," xs ]

(* ---- canonical forms and the two relations ----

   [canonical] normalizes and sorts each list without duplicates, and
   returns its argument itself when it is canonical already; [equal]
   and [overlaps] are walks over canonical forms, which allocate
   nothing when given canonical areas. *)

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> String.compare a b < 0 && strictly_sorted rest
  | [] | [ _ ] -> true

let canonical a =
  match normalize a with
  | Sfinite xs when not (strictly_sorted xs) -> Sfinite (sorted xs)
  | Scofinite xs when not (strictly_sorted xs) -> Scofinite (sorted xs)
  | Opaque xs when not (strictly_sorted xs) -> Opaque (sorted xs)
  | (Empty | All | Num _ | Sfinite _ | Scofinite _ | Opaque _) as a -> a

(* sorted duplicate-free lists: some member of [x] is in [y] *)
let rec share x y =
  match x, y with
  | [], _ | _, [] -> false
  | a :: x', b :: y' ->
    let c = String.compare a b in
    c = 0 || if c < 0 then share x' y else share x y'

(* sorted duplicate-free lists: some member of [x] is not in [y] *)
let rec escapes x y =
  match x, y with
  | [], _ -> false
  | _ :: _, [] -> true
  | a :: x', b :: y' ->
    let c = String.compare a b in
    c < 0 || if c = 0 then escapes x' y' else escapes x y'

let equal a b =
  match canonical a, canonical b with
  | Empty, Empty | All, All -> true
  | Num x, Num y -> Interval.equal x y
  | Sfinite x, Sfinite y | Scofinite x, Scofinite y | Opaque x, Opaque y ->
    List.equal String.equal x y
  | _ -> false

let overlaps a b =
  match canonical a, canonical b with
  | Empty, _ | _, Empty -> false
  | All, _ | _, All -> true
  | Num x, Num y -> Interval.overlaps x y
  | Sfinite x, Sfinite y | Opaque x, Opaque y -> share x y
  | Sfinite x, Scofinite y | Scofinite y, Sfinite x -> escapes x y
  | Scofinite _, Scofinite _ -> true (* dense domain minus finitely many points *)
  | (Num _ | Sfinite _ | Scofinite _), Opaque _
  | Opaque _, (Num _ | Sfinite _ | Scofinite _)
  (* a type clash between numeric and string regions cannot arise on
     well-typed attributes; be conservative if it does *)
  | Num _, (Sfinite _ | Scofinite _)
  | (Sfinite _ | Scofinite _), Num _ -> false

(* ---- extraction from queries ---- *)

let const_num = function
  | Ast.Cint n -> Some (float_of_int n)
  | Ast.Cfloat f -> Some f
  | Ast.Cstring _ -> None

let region_of_cmp c v =
  match const_num v with
  | Some f ->
    let ival =
      match c with
      | Ast.Eq -> Interval.point f
      | Ast.Neq -> Interval.complement (Interval.point f)
      | Ast.Lt -> Interval.lower ~incl:false f
      | Ast.Le -> Interval.lower ~incl:true f
      | Ast.Gt -> Interval.upper ~incl:false f
      | Ast.Ge -> Interval.upper ~incl:true f
    in
    normalize (Num ival)
  | None ->
    let s = match v with Ast.Cstring s -> s | _ -> assert false in
    (match c with
     | Ast.Eq -> Sfinite [ s ]
     | Ast.Neq -> Scofinite [ s ]
     | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
       (* order over encrypted strings is not preserved: opaque region *)
       Opaque [ Sqlir.Printer.cmp_to_string c ^ s ])

let region_of_atom ~attr_key p =
  let for_attr a = Sqlir.Printer.attr_to_string a = attr_key in
  match p with
  | Ast.Cmp (c, a, v) when for_attr a -> Some (region_of_cmp c v)
  | Ast.Between (a, lo, hi) when for_attr a ->
    (match const_num lo, const_num hi with
     | Some l, Some h -> Some (normalize (Num (Interval.closed l h)))
     | _ ->
       Some
         (Opaque
            [ "between:"
              ^ Sqlir.Printer.const_to_string lo
              ^ ":"
              ^ Sqlir.Printer.const_to_string hi ]))
  | Ast.In_list (a, vs) when for_attr a ->
    Some (List.fold_left (fun acc v -> union acc (region_of_cmp Ast.Eq v)) Empty vs)
  | Ast.Like (a, pat) when for_attr a -> Some (Opaque [ "like:" ^ pat ])
  | Ast.Is_null a when for_attr a -> Some (Opaque [ "isnull" ])
  | Ast.Is_not_null a when for_attr a -> Some All
  | Ast.Cmp _ | Ast.Between _ | Ast.In_list _ | Ast.Like _
  | Ast.Is_null _ | Ast.Is_not_null _ | Ast.Cmp_attrs _ | Ast.Cmp_agg _ ->
    None
  | Ast.And _ | Ast.Or _ | Ast.Not _ -> assert false

(* negation normal form: Not is pushed onto atoms *)
let rec nnf = function
  | Ast.Not (Ast.Not p) -> nnf p
  | Ast.Not (Ast.And (l, r)) -> Ast.Or (nnf (Ast.Not l), nnf (Ast.Not r))
  | Ast.Not (Ast.Or (l, r)) -> Ast.And (nnf (Ast.Not l), nnf (Ast.Not r))
  | Ast.And (l, r) -> Ast.And (nnf l, nnf r)
  | Ast.Or (l, r) -> Ast.Or (nnf l, nnf r)
  | p -> p

let rec area_of_pred ~attr_key p =
  match p with
  | Ast.And (l, r) -> inter (area_of_pred ~attr_key l) (area_of_pred ~attr_key r)
  | Ast.Or (l, r) -> union (area_of_pred ~attr_key l) (area_of_pred ~attr_key r)
  | Ast.Not atom ->
    (* after NNF, Not only wraps atoms *)
    (match region_of_atom ~attr_key atom with
     | Some r -> complement r
     | None -> All)  (* a negated constraint on another attribute *)
  | atom ->
    (match region_of_atom ~attr_key atom with
     | Some r -> r
     | None -> All)

let of_query (q : Ast.query) =
  let keys =
    List.map Sqlir.Printer.attr_to_string (Ast.attributes q)
    |> List.sort_uniq String.compare
  in
  let where = Option.map nnf q.Ast.where in
  List.map
    (fun attr_key ->
      let area =
        match where with
        | None -> All
        | Some p -> area_of_pred ~attr_key p
      in
      (attr_key, area))
    keys

let delta ~x a b =
  if equal a b then 0.0 else if overlaps a b then x else 1.0
