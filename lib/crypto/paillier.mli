(** Paillier additively homomorphic encryption (the paper's HOM class [11]).

    Built entirely on {!Bignum.Bignat}.  With public modulus [n] and
    generator [g = n + 1]: [Enc(m; r) = (1 + m·n) · r^n mod n²].  Supports
    [Dec(Enc a ⊕ Enc b) = a + b mod n] and scalar multiplication, which is
    what a service provider needs to evaluate SUM/AVG/COUNT aggregates over
    encrypted columns.

    Decryption runs over the CRT: [keygen] retains [p] and [q] and
    decrypts with one half-width exponentiation per prime under a
    per-prime Montgomery context (~4x fewer limb operations than the
    lambda/mu path, which survives as {!decrypt_lambda}).  Encryption
    can amortize its [r^n] factor through a precomputed {!pool} keyed by
    caller-chosen derivation labels; the pool is a pure cache, so
    ciphertexts are bit-identical with the pool on, off, or partially
    filled. *)

type public
type secret

val keygen : ?bits:int -> Drbg.t -> public * secret
(** [keygen ~bits rng] generates a key with a [bits]-bit modulus
    (default 512 — small by production standards, sized for test speed;
    the construction is parametric). *)

val modulus : public -> Bignum.Bignat.t

val encrypt : public -> Drbg.t -> Bignum.Bignat.t -> Bignum.Bignat.t
(** @raise Invalid_argument if the plaintext is [>= n]. *)

val encrypt_int : public -> Drbg.t -> int -> Bignum.Bignat.t
(** Encrypts a (possibly negative) native int, encoded centered mod [n]. *)

(** {1 Precomputed noise pool}

    The [r^n mod n²] factor dominates encryption and depends only on the
    randomness, not the plaintext, so it can be computed ahead of time.
    A pool maps a derivation label (e.g. ["rel/row/attr"] for a HOM
    cell) to the noise factor produced by that label's DRBG.
    {!noise_fill} and the miss path of {!encrypt_pooled} derive [r] from
    the same per-label DRBG, which makes the ciphertext independent of
    whether — and by how many parallel lanes — the pool was prefilled.

    Metrics: [kitdpe.crypto.paillier.noise_pool.{hits,misses,fills,depth}].
    Fault point: [crypto.paillier.noise_pool], keyed by a stable hash of
    the label (an armed trigger aborts the fill; encryption then simply
    misses and recomputes). *)

type pool

val pool_create : ?capacity:int -> unit -> pool
(** Thread-safe label-keyed cache (default capacity 65536 entries; at
    512-bit keys an entry is ~140 bytes of limbs).  Filling past
    capacity is a silent no-op — a full pool only costs misses.
    @raise Invalid_argument if [capacity < 1]. *)

val pool_depth : pool -> int
(** Number of entries currently pooled. *)

val noise_fill : pool -> public -> key:string -> Drbg.t -> unit
(** [noise_fill pool pub ~key rng] precomputes the noise factor for
    derivation label [key] from [rng] and stores it, unless the label is
    already pooled or the pool is at capacity (the existence check runs
    before the exponentiation, so refills of a warm pool are cheap).
    @raise Fault.Error.E when the [crypto.paillier.noise_pool] point is
    armed and fires for this label. *)

val encrypt_pooled :
  ?pool:pool -> public -> key:string -> Drbg.t -> Bignum.Bignat.t -> Bignum.Bignat.t
(** [encrypt_pooled ?pool pub ~key rng m]: like {!encrypt}, but the
    noise factor is taken from [pool] when label [key] was prefilled
    (consuming the entry) and derived from [rng] otherwise.  For the
    result to be independent of pool state, [rng] must be the DRBG of
    label [key] — the one [noise_fill] was (or would have been) given.
    @raise Invalid_argument if the plaintext is [>= n]. *)

val encrypt_int_pooled :
  ?pool:pool -> public -> key:string -> Drbg.t -> int -> Bignum.Bignat.t

(** {1 Decryption} *)

val decrypt : secret -> Bignum.Bignat.t -> Bignum.Bignat.t
(** CRT fast path: one half-width exponentiation per prime, then Garner
    recombination.
    @raise Fault.Error.E [(Paillier_mismatch _)] when the ciphertext is
    outside [[0, n²)] or shares a factor with the modulus — it was not
    produced under this key. *)

val decrypt_lambda : secret -> Bignum.Bignat.t -> Bignum.Bignat.t
(** The lambda/mu reference path.  Agrees with {!decrypt} on every
    unit ciphertext (which is every ciphertext either path accepts);
    kept for property tests and as the bench baseline. *)

val decrypt_int : secret -> Bignum.Bignat.t -> int
(** Inverse of {!encrypt_int} plus any homomorphic sums: plaintexts in the
    upper half of [[0, n)] decode as negative.
    @raise Fault.Error.E [(Paillier_mismatch _)] when the decrypted
    plaintext falls outside the native-int range — decrypting with the
    wrong key surfaces as this typed error, never as silent garbage. *)

val add : public -> Bignum.Bignat.t -> Bignum.Bignat.t -> Bignum.Bignat.t
(** Homomorphic addition: ciphertext product mod [n²]. *)

val scalar_mul : public -> Bignum.Bignat.t -> int -> Bignum.Bignat.t
(** [scalar_mul pub c k] encrypts [k · Dec c]; [k >= 0]. *)

val serialize : Bignum.Bignat.t -> string
val deserialize : string -> Bignum.Bignat.t
