(** HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).

    HMAC is the pseudo-random function underlying every keyed construction
    in this library: deterministic encryption tags, OPE range sampling, the
    DRBG, and key derivation. *)

val hmac_sha256 : key:string -> string -> string
(** [hmac_sha256 ~key msg] is the 32-byte HMAC-SHA256 tag. *)

val hkdf_expand : prk:string -> info:string -> int -> string
(** [hkdf_expand ~prk ~info len] derives [len] bytes ([len <= 255 * 32]). *)

val derive : master:string -> purpose:string -> int -> string
(** [derive ~master ~purpose len] is [hkdf_expand] of [len] bytes under
    [~info:purpose], keyed by the HKDF extract of [master] with the empty
    salt; distinct [purpose] strings yield independent keys. *)
