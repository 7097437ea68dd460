(** End-to-end attack evaluation: the query-only attack on an encrypted log
    (recovering plaintext constants) and the content attack on an encrypted
    database (recovering column values), per attribute, with the attack
    matched to each attribute's ciphertext class. *)

type row = {
  attr : string;
  cls : Dpe.Taxonomy.ppe_class;
  outcome : Attacks.outcome;
}

type report = {
  label : string;
  rows : row list;
  overall : Attacks.outcome;  (** all cells pooled *)
}

val constants_by_attr :
  Sqlir.Ast.query list -> (string * Sqlir.Ast.const) list
(** Every encrypted-constant occurrence in traversal order, keyed by the
    unqualified attribute it belongs to.  COUNT thresholds are skipped
    (they are never encrypted). *)

val attack_log :
  label:string ->
  class_of:(string -> Dpe.Taxonomy.ppe_class) ->
  plain:Sqlir.Ast.query list ->
  cipher:Sqlir.Ast.query list ->
  report
(** Query-only attack [9]: align the plaintext and encrypted logs (the
    encryption is structure-preserving, so constants correspond
    positionally), build the adversary's aux model from the plaintext
    constant distribution per attribute, and attack each attribute with
    the strongest attack for its class. *)

val attack_names :
  label:string ->
  plain:Sqlir.Ast.query list ->
  cipher:Sqlir.Ast.query list ->
  report
(** The other half of the query-only attack of Example 3 [9]: recover
    {e relation and attribute names} from the encrypted log by frequency
    analysis (names are always DET under every Table I scheme).  Rows are
    the two namespaces. *)

val attack_database :
  label:string ->
  class_of:(string -> Dpe.Taxonomy.ppe_class) ->
  plain:Minidb.Database.t ->
  cipher:Minidb.Database.t ->
  cipher_rel_of:(string -> string) ->
  cipher_attr_of:(string -> string) ->
  report
(** Known-distribution attack on shared encrypted content (the DB-Content
    column of Table I). *)

val pp : Format.formatter -> report -> unit
