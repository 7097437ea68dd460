(** Deterministic encryption (the paper's DET class).

    SIV-style construction: the IV is a PRF of the plaintext, so equal
    plaintexts map to equal ciphertexts — exactly the equality leakage that
    token equivalence (Table I) requires — and nothing beyond equality is
    revealed under a query-only attack. *)

type key

val key_of_master : master:string -> purpose:string -> key

val encrypt : key -> string -> string
(** Layout: SIV (16) ‖ CT (|msg|).  Deterministic.  Every call, and
    every {!encrypt_cached} call whether the memo serves it or not,
    counts once in [kitdpe.crypto.det.calls]; the
    [kitdpe.crypto.det.encrypt] sketch times the encryptions actually
    computed. *)

val decrypt : key -> string -> string option
(** [None] if the ciphertext is malformed or its SIV does not re-verify.
    The SIV comparison is constant-time ({!Ct.equal}, lint rule CT01). *)

val token : key -> string -> string
(** [token k msg] is the 16-byte SIV alone — a deterministic, equality-
    testable pseudonym.  Used where only the pseudonym is needed (e.g.
    relation names inside query text). *)

type cache = (string, string) Memo.t
(** A per-column DET memo ({!Memo}) for the bulk database encryptor,
    where column values repeat heavily.  Transparent: [encrypt_cached c
    k m] always equals [encrypt k m].  Its counters are published as
    [kitdpe.crypto.det.cache_{hits,misses,evictions}]. *)

val make_cache : ?bound:int -> unit -> cache
(** [bound] (default 65536) caps the entry count; the cache is dropped
    wholesale when full. *)

val encrypt_cached : cache -> key -> string -> string
