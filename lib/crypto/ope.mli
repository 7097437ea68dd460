(** Order-preserving encryption (the paper's OPE class [2], [13]).

    A deterministic, strictly monotone injection from the plaintext domain
    [[0, 2^plain_bits)] into the ciphertext domain [[0, 2^cipher_bits)],
    realized as a lazily-sampled random monotone function: the ciphertext
    range is split recursively, and each split point is drawn uniformly
    from its feasible interval with HMAC-SHA256 as the sampler.

    Substitution note (recorded in DESIGN.md): the paper's reference
    construction (Boldyreva et al.) samples the plaintext gap
    hypergeometrically; we sample the ciphertext split uniformly instead.
    Both yield a deterministic pseudorandom order-preserving function with
    identical leakage (order + equality), which is what matters for
    distance preservation and for the attack evaluation. *)

type params = { plain_bits : int; cipher_bits : int }
(** Requires [0 < plain_bits < cipher_bits <= 55]. *)

type key

val default_params : params
(** 32 plaintext bits into 48 ciphertext bits. *)

val create : master:string -> purpose:string -> params -> key

val params : key -> int * int
(** [(plain_bits, cipher_bits)] of the key. *)

val max_plain : key -> int
(** Largest encryptable plaintext, [2^plain_bits - 1]. *)

val encrypt : key -> int -> int
(** @raise Invalid_argument if the plaintext is outside [[0, 2^plain_bits)].

    Each key carries a transparent, bounded, domain-safe {!Memo} of past
    encryptions: OPE is deterministic, so a cache hit returns exactly the
    ciphertext the tree descent would recompute, it only skips the
    ~[plain_bits] HMAC evaluations.  Every split point is drawn {e exactly}
    uniformly (rejection sampling over the 62-bit HMAC prefix, re-keyed
    with a counter on rejection), not merely negligibly-biased. *)

val decrypt : key -> int -> int option
(** Inverse by binary search; [None] for values not in the image. *)

val cache_clear : key -> unit
(** Drop the key's memo (never changes ciphertexts — determinism). *)

type cache_stats = Memo.stats = { hits : int; misses : int; evictions : int; size : int }

val cache_stats : key -> cache_stats
(** Snapshot of this key's {!Memo} counters.  The same numbers,
    aggregated over every OPE key in the process, are published to the
    [Obs] registry as [kitdpe.crypto.ope.cache_{hits,misses,evictions}]. *)
