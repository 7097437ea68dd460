type t =
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vnull
[@@deriving show, eq, ord]

type ty = Tint | Tfloat | Tstring [@@deriving show, eq, ord]

let of_const = function
  | Sqlir.Ast.Cint n -> Vint n
  | Sqlir.Ast.Cfloat f -> Vfloat f
  | Sqlir.Ast.Cstring s -> Vstring s

let to_const = function
  | Vint n -> Some (Sqlir.Ast.Cint n)
  | Vfloat f -> Some (Sqlir.Ast.Cfloat f)
  | Vstring s -> Some (Sqlir.Ast.Cstring s)
  | Vnull -> None

let is_null = function Vnull -> true | Vint _ | Vfloat _ | Vstring _ -> false

let compare_sql a b =
  match a, b with
  | Vnull, _ | _, Vnull -> None
  | Vint x, Vint y -> Some (Stdlib.compare x y)
  | Vfloat x, Vfloat y -> Some (Stdlib.compare x y)
  | Vint x, Vfloat y -> Some (Stdlib.compare (float_of_int x) y)
  | Vfloat x, Vint y -> Some (Stdlib.compare x (float_of_int y))
  | Vstring x, Vstring y -> Some (String.compare x y)
  | Vstring _, (Vint _ | Vfloat _) | (Vint _ | Vfloat _), Vstring _ -> None

let to_string = function
  | Vint n -> string_of_int n
  | Vfloat f -> Printf.sprintf "%g" f
  | Vstring s -> s
  | Vnull -> "NULL"

let like_match ~pattern s =
  let np = String.length pattern and ns = String.length s in
  (* memoized recursion over (pattern index, string index) *)
  let memo = Hashtbl.create 64 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi = np then si = ns
        else
          match pattern.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0
