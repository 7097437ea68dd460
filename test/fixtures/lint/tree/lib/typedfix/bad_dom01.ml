(* Deliberate DOM01 violations: closures handed to Parallel.Pool that
   mutate captured non-atomic state with no Mutex/DLS guard. *)

let racy_counter pool n =
  let hits = ref 0 in
  Parallel.Pool.for_range pool n (fun _i -> incr hits);
  !hits

let racy_table pool keys =
  let tbl = Hashtbl.create 8 in
  Parallel.Pool.run_tasks pool
    (List.map (fun k () -> Hashtbl.replace tbl k (String.length k)) keys);
  tbl

type acc = { mutable total : int }

let racy_record pool n =
  let a = { total = 0 } in
  Parallel.Pool.for_range pool n (fun i -> a.total <- a.total + i);
  a.total
