(** Empirical verification of the paper's formal claims.

    [check_dpe] validates Definition 1 on a concrete log: the pairwise
    distance matrix of the encrypted log must equal the plaintext one
    exactly.  [check_equivalence] validates Definition 2 per query:
    [Enc (c q) = c (Enc q)] for the measure's characteristic [c]. *)

type report = {
  measure : Distance.Measure.t;
  pairs : int;
  max_deviation : float;
  mean_plain_distance : float;
  ok : bool;  (** [max_deviation = 0.0] *)
}

val pp_report : Format.formatter -> report -> unit

val check_dpe :
  ?plain_db:Minidb.Database.t ->
  ?cipher_db:Minidb.Database.t ->
  ?x:float ->
  Encryptor.t ->
  Distance.Measure.t ->
  Sqlir.Ast.query list ->
  report
(** Encrypts the log with the encryptor and compares all pairwise
    distances.  [plain_db]/[cipher_db] are required for {!Distance.Measure.Result}. *)

val check_equivalence :
  ?plain_db:Minidb.Database.t ->
  ?cipher_db:Minidb.Database.t ->
  Encryptor.t ->
  Equivalence.t ->
  Sqlir.Ast.query ->
  bool
(** Definition 2 on a single query. *)

