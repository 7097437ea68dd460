module Value = Minidb.Value

type t = {
  counts : (Value.t * int) list;  (* ascending value order *)
  total : int;
}

let of_values values =
  let tbl = Hashtbl.create 64 in
  let total = ref 0 in
  List.iter
    (fun v ->
      if not (Value.is_null v) then begin
        incr total;
        Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v))
      end)
    values;
  let counts =
    Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Value.compare a b)
  in
  { counts; total = !total }

let total t = t.total
let support_size t = List.length t.counts

let ranked t =
  List.sort
    (fun (va, ca) (vb, cb) ->
      if ca <> cb then compare cb ca else Value.compare va vb)
    t.counts

let mode t = match ranked t with [] -> None | (v, _) :: _ -> Some v

let quantile t p =
  if t.counts = [] then None
  else begin
    let target = p *. float_of_int t.total in
    let rec go acc = function
      | [] -> None
      | [ (v, _) ] -> Some v
      | (v, c) :: rest ->
        let acc' = acc + c in
        if float_of_int acc' >= target then Some v else go acc' rest
    in
    go 0 t.counts
  end
