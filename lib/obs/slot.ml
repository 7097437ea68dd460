(* The mutex is needed even between threads of one domain: a table
   resize allocates, and an allocation is a point where the runtime may
   switch to another thread of the same domain. *)

module H = Hashtbl.Make (Int)

type 'a table = { lock : Mutex.t; tbl : 'a H.t }
type 'a t = { default : 'a; key : 'a table Domain.DLS.key }

let make default =
  { default;
    key =
      Domain.DLS.new_key (fun () ->
          { lock = Mutex.create (); tbl = H.create 4 }) }

let get t =
  let s = Domain.DLS.get t.key in
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock s.lock;
  let v =
    match H.find s.tbl tid with v -> v | exception Not_found -> t.default
  in
  Mutex.unlock s.lock;
  v

(* restoring the default (physically) drops the entry *)
let set t v =
  let s = Domain.DLS.get t.key in
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock s.lock;
  if v == t.default then H.remove s.tbl tid else H.replace s.tbl tid v;
  Mutex.unlock s.lock

let with_value t v f =
  let prev = get t in
  set t v;
  Fun.protect ~finally:(fun () -> set t prev) f
