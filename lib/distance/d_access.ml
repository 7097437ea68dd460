let default_x = 0.5

let lookup areas key =
  match List.assoc_opt key areas with
  | Some a -> a
  | None -> Access_area.Empty

let distance_of_areas ~x a1 a2 =
  if not (x > 0.0 && x < 1.0) then invalid_arg "D_access: x must be in (0,1)";
  let keys =
    List.sort_uniq String.compare (List.map fst a1 @ List.map fst a2)
  in
  match keys with
  | [] -> 0.0
  | _ ->
    let deltas =
      List.map (fun key -> Access_area.delta ~x (lookup a1 key) (lookup a2 key)) keys
    in
    (* sum in sorted VALUE order: attribute keys sort differently before
       and after encryption, and float addition is not associative — value
       ordering keeps d(Enc x, Enc y) = d(x, y) bit-exact for every x *)
    let values = List.sort Float.compare deltas in
    List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
