(** Order-preserving encryption with hypergeometric range splitting — the
    Boldyreva-O'Neill-style reference construction, implemented as an
    ablation counterpart to {!Crypto.Ope} (which splits ranges uniformly;
    see the substitution note in DESIGN.md).

    The recursion is the classical lazy sampling of a random order-
    preserving injection: binary-search over the {e ciphertext} range, and
    at each ciphertext midpoint [y] draw how many plaintexts fall at or
    below [y] from the hypergeometric distribution
    HGD(draws = y-clo+1, whites = |plain range|, total = |cipher range|),
    with HMAC-SHA256 supplying the sampling coins.  The hypergeometric
    inverse-CDF is evaluated in log-space with a from-scratch Lanczos
    log-gamma.

    Intended for moderate domains (the sampler walks O(√variance) terms per
    level); [plain_bits <= 20] keeps encryption in the microsecond-to-
    millisecond range.  The interface mirrors {!Crypto.Ope}. *)

type params = { plain_bits : int; cipher_bits : int }
(** Requires [0 < plain_bits <= 20 < cipher_bits <= 50]. *)

type key

val create : master:string -> purpose:string -> params -> key
val params : key -> int * int
val max_plain : key -> int

val encrypt : key -> int -> int
(** @raise Invalid_argument outside [[0, 2^plain_bits)]. *)

val decrypt : key -> int -> int option

val lgamma : float -> float
(** Log-gamma (Lanczos, |error| < 1e-10 for x >= 0.5) — exposed for tests. *)
