(** The DPE encryptor: applies a {!Scheme} to queries, logs, values and
    result tuples, and inverts all of it for the key owner.

    Each attribute's constant class resolves to one key (DET, PROB or
    OPE key, or the Paillier public key), and one per-class codec over
    constants serves queries, values and bulk columns alike.

    Encrypted queries are ordinary {!Sqlir.Ast} queries — relation and
    attribute names become identifier-safe ciphertext names, constants
    become hex string literals (DET/PROB) or OPE integers — so they can be
    printed, re-parsed, executed by {!Minidb.Executor} and measured by
    {!Distance} exactly like plaintext ones. *)

type t

exception Encrypt_error of string

val create : Crypto.Keyring.t -> Scheme.t -> t
(** The encryptor draws IVs and Paillier randomness from a DRBG derived
    from the keyring, so a fixed master key gives reproducible output. *)

val scheme : t -> Scheme.t

(** {1 Names} *)

val encrypt_rel : t -> string -> string
val encrypt_attr_name : t -> string -> string
val decrypt_rel : t -> string -> string option
val decrypt_attr_name : t -> string -> string option

(** {1 Queries} *)

val encrypt_const : t -> Sqlir.Ast.const_ctx -> Sqlir.Ast.const -> Sqlir.Ast.const
(** Encrypt a single constant in its context (exposed for the token-level
    equivalence check and the attack harness).
    @raise Encrypt_error as {!encrypt_query}. *)

val encrypt_query : t -> Sqlir.Ast.query -> Sqlir.Ast.query
(** @raise Encrypt_error when the scheme cannot handle a construct (e.g.
    float or string constants under an OPE policy, SUM thresholds). *)

val encrypt_log : t -> Sqlir.Ast.query list -> Sqlir.Ast.query list

val decrypt_query : t -> Sqlir.Ast.query -> (Sqlir.Ast.query, string) result
(** Key-owner inversion of {!encrypt_query}. *)

(** {1 Values (database content and result tuples)} *)

val encrypt_value : t -> attr:string -> Minidb.Value.t -> Minidb.Value.t
(** [attr] is the plaintext (unqualified) column name; nulls pass through. *)

val decrypt_value : t -> attr:string -> Minidb.Value.t -> (Minidb.Value.t, string) result

(** {2 Bulk (multi-domain) encryption}

    {!Db_encryptor} encrypts row blocks across a {!Parallel.Pool}.  The
    shared sequential DRBG behind {!encrypt_value} cannot cross domains,
    so the bulk path derives an independent generator per row and bakes
    each column's key material into a domain-safe closure. *)

val row_rng : ?attempt:int -> t -> rel:string -> int -> Crypto.Drbg.t
(** [row_rng t ~rel i] is the DRBG for row [i] of relation [rel], derived
    from the keyring master alone — independent of encryption order, chunk
    shape and pool size, which is what makes bulk encryption deterministic
    for a fixed master key (see DESIGN.md, "Parallel architecture").
    [attempt] (default 0 — the historical derivation) enters the purpose
    string for [attempt > 0], so a retried row draws fresh randomness
    that is still a pure function of (master key, rel, i, attempt):
    retried output stays deterministic (DESIGN.md §9). *)

val column_encoder :
  t -> rel:string -> attr:string
  -> rng:Crypto.Drbg.t -> row:int -> Minidb.Value.t -> Minidb.Value.t
(** [column_encoder t ~rel ~attr] resolves the column's key (not
    domain-safe; call it before going parallel) and returns a closure
    over immutable key material that encrypts one value, drawing any
    randomness from [rng].  Deterministic classes keep a transparent
    {!Crypto.Memo}, so repeated values cost one table lookup: a DET
    column gets a fresh memo that lives as long as the closure, an OPE
    column uses the one its key carries.  HOM cells ignore [rng] and derive their randomness
    from the {!hom_cell_key} of [(rel, row, attr)] instead, so their
    noise factor can be precomputed into the encryptor's noise pool by
    any lane in any order (or not at all) without changing a single
    ciphertext bit.  Ciphertexts agree with {!encrypt_value} for DET/OPE
    classes; PROB/HOM ciphertexts are fresh randomizations under the
    same keys.
    @raise Encrypt_error as {!encrypt_value}. *)

(** {2 HOM noise pool}

    Plumbing for {!Db_encryptor.prewarm_hom_noise_r}: the expensive [r^n]
    factor of each HOM cell is a pure function of the cell's derivation
    label, so idle lanes can compute it ahead of the bulk pass. *)

val hom_cell_key : rel:string -> row:int -> attr:string -> string
(** The derivation label of one HOM cell.  A pure function of the cell
    coordinates — independent of pool size, encryption order and the
    bulk-path retry attempt. *)

val hom_noise_rng : t -> string -> Crypto.Drbg.t
(** [hom_noise_rng t key] is the DRBG of one cell label: the stream both
    {!Crypto.Paillier.noise_fill} and the pool-miss path of the HOM
    column encoder draw from. *)

val enable_noise_pool : ?capacity:int -> t -> Crypto.Paillier.pool
(** Attach (or return the existing) noise pool.  Enabling the pool never
    changes ciphertexts — only where the [r^n] work happens.  Call before
    going parallel. *)

val noise_pool : t -> Crypto.Paillier.pool option

val encrypt_result_tuple :
  t -> Minidb.Executor.provenance list -> Minidb.Value.t list -> Minidb.Value.t list
(** Encrypt a plaintext result tuple column-wise according to where each
    output column came from: values of an attribute follow that attribute's
    policy, COUNT outputs stay plain, MIN/MAX outputs follow the aggregated
    attribute.  This realizes [Enc(result tuples(Q))] of Definition 4.
    @raise Encrypt_error for SUM/AVG outputs (those need the CryptDB-style
    client round-trip, see {!Hom_aggregate}). *)

(** {1 Key rotation} *)

val rotate_log :
  old_enc:t -> new_enc:t -> Sqlir.Ast.query list
  -> (Sqlir.Ast.query list, string) result
(** Re-encrypt a log from the old keyring to the new one (the key owner
    periodically rotates the master secret; the provider sees a fresh,
    unlinkable log whose pairwise distances are unchanged).  Stops at the
    first query that does not decrypt. *)

val paillier : t -> Crypto.Paillier.public * Crypto.Paillier.secret
(** The lazily-generated Paillier keypair used for HOM columns. *)
