(** The passive adversary's auxiliary knowledge: the distribution of
    plaintext values of one attribute (Sanamrad & Kossmann's query-log
    attack model [9] grants the attacker knowledge of domains and value
    frequencies, e.g. from public statistics about the data). *)

type t

val of_values : Minidb.Value.t list -> t
(** Build a histogram; nulls are ignored. *)

val total : t -> int
val support_size : t -> int

val mode : t -> Minidb.Value.t option
(** The most frequent value (deterministic tie-break). *)

val ranked : t -> (Minidb.Value.t * int) list
(** Values by descending frequency (ties broken by value order). *)

val quantile : t -> float -> Minidb.Value.t option
(** [quantile t p] is the value at cumulative position [p] in [0,1]. *)
