(* Cells sharded by domain id.

   Writers pick a shard from [Domain.self ()]; two domains of a
   [Parallel.Pool] therefore never contend on the same cell (until more
   than [count] domains exist, at which point updates stay correct and
   merely share cells).  Readers merge all shards on demand — there is
   no lock anywhere. *)

type cells = int Atomic.t array

let count = 16 (* power of two, >= any realistic pool size *)
let index () = (Domain.self () :> int) land (count - 1)
let make () = Array.init count (fun _ -> Atomic.make 0)
let merge (cells : cells) = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 cells
let clear (cells : cells) = Array.iter (fun c -> Atomic.set c 0) cells
