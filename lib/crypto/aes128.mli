(** AES-128 block cipher (FIPS 197), implemented from scratch.

    The S-box is computed from the GF(2^8) inverse and affine transform at
    module initialization rather than transcribed, and is validated against
    FIPS 197 test vectors in the test suite.  AES is the paper's reference
    instance for probabilistic encryption ("randomized AES" [12]); it is used
    here through {!Block_modes} by {!Prob} and {!Det}. *)

type key
(** Expanded key schedule. *)

val expand : string -> key
(** [expand k] expands a 16-byte key. @raise Invalid_argument otherwise. *)

val encrypt_block : key -> string -> string
(** [encrypt_block k block] encrypts one 16-byte block. *)
