(** Block-cipher modes of operation for {!Aes128}. *)

val ctr_transform : Aes128.key -> iv:string -> string -> string
(** [ctr_transform k ~iv data] encrypts or decrypts [data] (the operation is
    its own inverse) in counter mode.  [iv] is a 16-byte initial counter
    block; successive blocks increment its low 64 bits big-endian. *)
