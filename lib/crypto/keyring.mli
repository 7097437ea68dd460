(** Key management for a DPE deployment.

    One master secret; every scheme instance gets an independent subkey via
    HKDF with a purpose string, so e.g. [det "attr"] and [det "rel"] (or the
    per-attribute constant keys) can never be cross-correlated. *)

type t

val create : master:string -> t
val of_passphrase : string -> t
(** Stretch a passphrase into a master key (iterated hashing). *)

val master : t -> string

val derive : t -> string -> t
(** [derive t ns] is an independent sub-keyring for namespace [ns]
    (HKDF of the master under ["kitdpe/tenant/" ^ ns]).  Used by the
    server to give each tenant its own key universe from one master:
    [derive t "a"] and [derive t "b"] share no derivable material, and
    the same [ns] always yields the same keyring. *)

val det : t -> string -> Det.key
val prob : t -> string -> Prob.key
val ope : t -> string -> Ope.key
val join_det : t -> Join_enc.group -> Det.key
val join_ope : t -> Join_enc.group -> Ope.key
val drbg : t -> string -> Drbg.t
(** Fresh deterministic randomness stream for a purpose (IVs, Paillier r). *)
