(** Synthetic query logs with planted cluster structure.

    A log is generated from a small number of {e templates} (user-interest
    archetypes: a sky region scan, a class lookup, an OLAP rollup, …); each
    query instantiates one template with jittered constants.  Queries from
    the same template are close under every distance measure, queries from
    different templates are far — which is what gives the mining
    experiments a meaningful ground truth. *)

type caps = {
  allow_like : bool;
  allow_sum : bool;      (** SUM/AVG aggregates *)
  allow_order_limit : bool;
  allow_join : bool;
  allow_having : bool;
}

val caps_full : caps

val caps_for_measure : Distance.Measure.t -> caps
(** Constructs the scheme cannot execute over ciphertexts are removed for
    the result measure (LIKE, SUM/AVG thresholds); everything else is
    allowed everywhere. *)

type params = {
  n : int;            (** queries in the log *)
  templates : int;    (** distinct templates (clusters), >= 1 *)
  seed : string;
  caps : caps;
}

val skyserver_log : params -> Sqlir.Ast.query list
(** Log over {!Gen_db.skyserver_info}. *)

val retail_log : params -> Sqlir.Ast.query list
(** Log over {!Gen_db.retail_info}. *)

val skyserver_log_labelled : params -> (int * Sqlir.Ast.query) list
(** Each query paired with its template index — the planted clustering
    ground truth for the mining experiments. *)

val retail_log_labelled : params -> (int * Sqlir.Ast.query) list

val skyserver_sessions :
  params -> length:int -> (int * Sqlir.Ast.query list) list
(** [params.n] user sessions, each an ordered sequence of about [length]
    queries (+-2) drawn from the session's template — the input shape for
    session-level (DTW) mining.  Labelled by template. *)
