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
    never poisons the memo. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry.  Not counted as an eviction: it is an explicit
    reset, not capacity pressure. *)

type stats = { hits : int; misses : int; evictions : int; size : int }
(** [hits]/[misses] count {!find_or_add} lookups, [evictions] counts
    entries dropped by the bound, [size] is the current entry count. *)

val stats : ('k, 'v) t -> stats
