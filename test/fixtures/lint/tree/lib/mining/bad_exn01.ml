(* fixture: EXN01 — panics inside pool tasks *)
let run pool jobs =
  Parallel.Pool.for_range pool jobs (fun i ->
      if i < 0 then failwith "negative lane"
      else if i > 1_000_000 then assert false)
