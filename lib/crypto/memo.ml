type counters = {
  c_hits : Obs.Metric.counter;
  c_misses : Obs.Metric.counter;
  c_evictions : Obs.Metric.counter;
}

let counters prefix =
  { c_hits = Obs.Registry.counter (prefix ^ ".cache_hits");
    c_misses = Obs.Registry.counter (prefix ^ ".cache_misses");
    c_evictions = Obs.Registry.counter (prefix ^ ".cache_evictions") }

type ('k, 'v) t = {
  tbl : ('k, 'v) Hashtbl.t;
  lock : Mutex.t;
  bound : int;
  obs : counters;
  (* per-memo telemetry, maintained under [lock] *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; size : int }

let create ?(bound = 1 lsl 16) obs =
  { tbl = Hashtbl.create 256;
    lock = Mutex.create ();
    bound = max 1 bound;
    obs;
    hits = 0;
    misses = 0;
    evictions = 0 }

(* [v] computed for the missing key [k]: the caller whose insert adds
   [k] counts the miss, so [misses] is the number of keys inserted for
   every pool size; one that finds [k] stored by another caller in the
   meantime counts a hit and returns the stored value *)
let insert m k v =
  Mutex.lock m.lock;
  let stored = Hashtbl.find_opt m.tbl k in
  let evicted = if Hashtbl.length m.tbl >= m.bound then Hashtbl.length m.tbl else 0 in
  (match stored with
   | Some _ -> m.hits <- m.hits + 1
   | None ->
     m.misses <- m.misses + 1;
     if evicted > 0 then Hashtbl.reset m.tbl;
     m.evictions <- m.evictions + evicted;
     Hashtbl.replace m.tbl k v);
  Mutex.unlock m.lock;
  match stored with
  | Some v ->
    Obs.Metric.incr m.obs.c_hits;
    v
  | None ->
    Obs.Metric.incr m.obs.c_misses;
    if evicted > 0 then Obs.Metric.add m.obs.c_evictions evicted;
    v

let find_or_add m k f =
  Mutex.lock m.lock;
  let hit = Hashtbl.find_opt m.tbl k in
  if Option.is_some hit then m.hits <- m.hits + 1;
  Mutex.unlock m.lock;
  match hit with
  | Some v ->
    Obs.Metric.incr m.obs.c_hits;
    v
  | None -> insert m k (f k)

let clear m =
  Mutex.lock m.lock;
  Hashtbl.reset m.tbl;
  Mutex.unlock m.lock

let stats m =
  Mutex.lock m.lock;
  let s =
    { hits = m.hits; misses = m.misses; evictions = m.evictions;
      size = Hashtbl.length m.tbl }
  in
  Mutex.unlock m.lock;
  s
