let par_threshold = 64

let build_r ?pool n d =
  let pool = match pool with Some p -> p | None -> Pool.global () in
  let m = Array.make_matrix n n 0.0 in
  (* Lanes write disjoint cells: row [i] owns [m.(i).(j)] for [j > i]
     plus the mirror cells [m.(j).(i)], i.e. column [i] below the
     diagonal; the pool's strided rows balance the triangular costs. *)
  let fill i =
    let row = m.(i) in
    for j = i + 1 to n - 1 do
      let v = d i j in
      row.(j) <- v;
      m.(j).(i) <- v
    done
  in
  let errors =
    if n < par_threshold || Pool.size pool <= 1 then begin
      (* same containment contract sequentially: a failing row is
         reported, the remaining rows are still built — and an expired
         request deadline abandons the remaining rows exactly like the
         pool's _r guard would *)
      let errs = ref [] in
      for i = 0 to n - 1 do
        match
          Pool.check_deadline ~context:"Parallel.Sym_matrix.build_r" ();
          fill i
        with
        | () -> ()
        | exception e ->
          errs := (i, Fault.Error.of_exn ~context:"Parallel.Sym_matrix.build_r" e) :: !errs
      done;
      List.rev !errs
    end
    else Pool.for_range_r pool n fill
  in
  match errors with
  | [] -> Ok m
  | errors -> Error errors
