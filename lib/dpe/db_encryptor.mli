(** Encryption of database content (needed for result equivalence: both the
    log and the content of every accessed attribute are shared, Table I).

    Relation and column names go through the scheme's name encryption;
    every stored value goes through the per-attribute constant policy, so
    that the encrypted query executed over the encrypted database touches
    exactly the rows the plaintext query touches over the plaintext
    database. *)

val encrypt_schema : Encryptor.t -> Minidb.Schema.t -> Minidb.Schema.t

val encrypt_table_r :
  ?pool:Parallel.Pool.t ->
  ?retries:int ->
  Encryptor.t ->
  Minidb.Table.t ->
  Minidb.Table.t * Fault.Error.t list
(** Rows are encrypted in chunks across [pool] (default
    [Parallel.Pool.global ()]).  Row [i] draws its randomness from a DRBG
    derived from the master key and [(rel, i)] alone
    ({!Encryptor.row_rng}), so for a fixed master key the ciphertext table
    is identical for {e every} pool size, including the sequential
    fallback.  DET and OPE columns are additionally memoized (repeated
    plaintexts cost one lookup; both classes are deterministic, so the
    memo is invisible in the output).

    Crash-contained: a row whose encryption raises is retried up to
    [retries] times (default 0), each attempt drawing from a fresh DRBG
    derived from the attempt number ([Encryptor.row_rng ~attempt]) — so
    retried ciphertext is exactly as deterministic as first-try
    ciphertext.  Rows that exhaust their attempts are dropped from the
    result table and reported as [Row_failed {rel; row; attempts; cause}],
    in row order: the batch always completes with partial results plus
    the error report, never a hang or a silently missing row.  Carries
    the ["dpe.db_encryptor.row"] injection point keyed by row index
    (first attempt only, so injected transients are recoverable). *)

val encrypt_database :
  ?pool:Parallel.Pool.t -> Encryptor.t -> Minidb.Database.t -> Minidb.Database.t
(** @raise Fault.Error.E when a value cannot be represented in its
    column's class (e.g. a string in an OPE column); the payload is the
    first failing row's [Row_failed] (its [cause] holds the
    [Crypto_failure] / [Ope_range_exhausted] detail). *)

val encrypt_database_r :
  ?pool:Parallel.Pool.t ->
  ?retries:int ->
  Encryptor.t ->
  Minidb.Database.t ->
  Minidb.Database.t * Fault.Error.t list
(** {!encrypt_table_r} over every table; errors concatenated in table
    order. *)

(** {1 HOM noise prewarm} *)

val prewarm_hom_noise_r :
  ?pool:Parallel.Pool.t -> ?capacity:int
  -> Encryptor.t -> Minidb.Database.t -> int * Fault.Error.t list
(** [prewarm_hom_noise_r enc db] attaches a noise pool to [enc]
    ({!Encryptor.enable_noise_pool}) and precomputes the Paillier [r^n]
    factor of every HOM cell of [db] across [pool]'s lanes, so a
    following {!encrypt_database} pays only the cheap
    [(1 + m·n) · r^n mod n²] assembly per HOM cell.  Returns the number
    of cells prewarmed and the fill errors, each
    [Task_failed {label = "db_encryptor.prewarm"; index; cause}].  The prewarm is an
    optimization, never a correctness dependency: ciphertexts are
    bit-identical whether it ran fully, partially, or not at all, because
    fill and encrypt derive the same randomness from the same per-cell
    label (DESIGN.md §11).

    Crash-contained: fills that raise (e.g. the armed
    [crypto.paillier.noise_pool] injection point) are reported and
    their cells degrade to pool misses at encryption time — partial
    prewarm, full-fidelity output. *)

val decrypt_table : Encryptor.t -> plain_schema:Minidb.Schema.t
  -> Minidb.Table.t -> (Minidb.Table.t, string) result
(** Key-owner inversion, given the plaintext schema (for column names). *)
