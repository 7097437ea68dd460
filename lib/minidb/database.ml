module Smap = Map.Make (String)

type t = Table.t Smap.t

let empty = Smap.empty

let add_table t table =
  let rel = (Table.schema table).Schema.rel in
  if Smap.mem rel t then
    invalid_arg (Printf.sprintf "Database.add_table: %s already exists" rel);
  Smap.add rel table t

let find t rel = Smap.find_opt rel t

let find_exn t rel =
  match find t rel with Some table -> table | None -> raise Not_found

let relations t = Smap.bindings t |> List.map fst

let tables t = Smap.bindings t |> List.map snd

let total_rows t =
  Smap.fold (fun _ table acc -> acc + Table.cardinality table) t 0
