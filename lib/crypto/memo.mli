(** The bounded, domain-safe memo behind {!Det} and {!Ope}.

    Both classes are deterministic, so a memo of past encryptions is
    transparent: a hit returns exactly what the primitive would
    recompute.  One mutex guards each memo, so a single memo can serve
    every domain of a pool.  When full, the memo is dropped wholesale
    (no LRU bookkeeping on the hot path). *)

type ('k, 'v) t

type counters
(** The process-wide [Obs] counters a family of memos mirrors its
    per-memo hits, misses and evictions into. *)

val counters : string -> counters
(** [counters prefix] registers [prefix ^ ".cache_{hits,misses,evictions}"]. *)

val create : ?bound:int -> counters -> ('k, 'v) t
(** [bound] (default 65536, at least 1) caps the entry count. *)

val find_or_add : ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v
(** [find_or_add m k f] is the memoized [f k].  [f] runs outside the
    lock, and its result is stored only if it returns, so a raising [f]
    never poisons the memo.  When two callers compute the same missing
    key at once, the first to store it counts the miss; the other
    counts a hit and returns the stored value. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry.  Not counted as an eviction: it is an explicit
    reset, not capacity pressure. *)

type stats = { hits : int; misses : int; evictions : int; size : int }
(** [hits]/[misses] count the {!find_or_add} calls that returned, a
    miss being a call that inserted its key, so [misses] is the number
    of keys inserted for every pool size; [evictions] counts
    entries dropped by the bound, [size] is the current entry count. *)

val stats : ('k, 'v) t -> stats
