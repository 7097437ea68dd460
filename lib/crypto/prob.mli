(** Probabilistic encryption (the paper's PROB class).

    Randomized AES-CTR with encrypt-then-MAC: two encryptions of the same
    plaintext are different ciphertexts with overwhelming probability, so a
    ciphertext reveals nothing — not even equality.  This is the strongest
    class in the Fig. 1 taxonomy. *)

type key

val key_of_master : master:string -> purpose:string -> key
(** Derive independent encryption and MAC keys from master material. *)

val encrypt : key -> Drbg.t -> string -> string
(** [encrypt k rng msg] draws a fresh IV from [rng].
    Layout: IV (16) ‖ CT (|msg|) ‖ tag (16). *)

val decrypt : key -> string -> string option
(** [None] when the ciphertext is malformed or the tag does not verify.
    The tag comparison is constant-time ({!Ct.equal}, lint rule CT01). *)
