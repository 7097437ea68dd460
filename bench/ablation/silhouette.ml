let point_scores m labels =
  let n = Mining.Dist_matrix.size m in
  if Array.length labels <> n then invalid_arg "Silhouette: size mismatch";
  let mean_dist i members =
    let others = List.filter (fun j -> j <> i) members in
    match others with
    | [] -> None
    | _ ->
      Some
        (List.fold_left (fun acc j -> acc +. Mining.Dist_matrix.get m i j) 0.0 others
         /. float_of_int (List.length others))
  in
  let clusters = Hashtbl.create 16 in
  Array.iteri
    (fun i l ->
      if l <> -1 then
        Hashtbl.replace clusters l
          (i :: Option.value ~default:[] (Hashtbl.find_opt clusters l)))
    labels;
  Array.mapi
    (fun i l ->
      if l = -1 then 0.0
      else begin
        let own = Hashtbl.find clusters l in
        match mean_dist i own with
        | None -> 0.0 (* singleton *)
        | Some a ->
          let b =
            Hashtbl.fold
              (fun l' members acc ->
                if l' = l then acc
                else
                  match mean_dist i members with
                  | None -> acc
                  | Some d -> Float.min acc d)
              clusters infinity
          in
          if b = infinity then 0.0
          else if Float.max a b = 0.0 then 0.0
          else (b -. a) /. Float.max a b
      end)
    labels

let score m labels =
  let s = point_scores m labels in
  if Array.length s = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s)
