(** Decoy-query injection — a countermeasure extension (not in the paper).

    The frequency/sorting attacks on DET/OPE constants feed on the skew of
    the constant distribution in the outsourced log.  The owner can blunt
    them by appending {e decoy queries} whose constants are drawn uniformly
    from the attribute domains.  Pairwise distances between {e real}
    queries are untouched (distances are per pair, decoys only add rows and
    columns to the matrix), so the owner simply drops the decoy rows from
    whatever the provider returns.  The price is bandwidth and provider
    compute, plus distance computations involving decoys that are thrown
    away; the gain is a flatter constant distribution as seen by the
    adversary.

    The A4 ablation in [bench/main.exe -- decoys] measures the trade. *)

type plan = {
  log : Sqlir.Ast.query list;  (** real queries followed by decoys *)
  real_count : int;            (** prefix length of real queries *)
}

val inject :
  seed:string ->
  ratio:float ->
  Workload.Gen_db.info ->
  Sqlir.Ast.query list ->
  plan
(** [inject ~seed ~ratio info log] appends [ceil (ratio * |log|)] decoys
    built by re-instantiating the log's own queries with fresh uniform
    constants from the domain metadata [info].  Deterministic in [seed].
    @raise Invalid_argument if [ratio < 0]. *)

val strip : plan -> 'a array -> 'a array
(** Drop the decoy entries from a per-query result vector (labels,
    outlier flags) the provider computed over the padded log. *)

val strip_matrix : plan -> Mining.Dist_matrix.t -> Mining.Dist_matrix.t
(** Drop decoy rows/columns from a padded distance matrix. *)
