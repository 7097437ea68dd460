(** Arbitrary-precision natural numbers.

    Little-endian limb representation in base [2^30] (the widest radix
    whose inner-loop accumulators fit OCaml's 63-bit native ints); all
    values are normalized (no trailing zero limbs).  This module exists
    because zarith is not available in the build environment; it provides
    everything the Paillier cryptosystem ({!Crypto.Paillier}) and the
    order-preserving encryption range arithmetic need. *)

type t

(** {1 Constants and conversions} *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int
(** [to_int x] converts back to a native integer.
    @raise Failure if [x] does not fit in a native [int]. *)

val to_int_opt : t -> int option

val of_string : string -> t
(** Parse a decimal string. @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val of_bytes_be : string -> t
(** Interpret a byte string as a big-endian unsigned integer. *)

val to_bytes_be : t -> string
(** Minimal big-endian byte representation ([""] for zero). *)

val to_bytes_be_pad : int -> t -> string
(** [to_bytes_be_pad len x] is [to_bytes_be x] left-padded with zero bytes to
    exactly [len] bytes. @raise Invalid_argument if [x] needs more bytes. *)

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t
val add_int : t -> int -> t
val sub : t -> t -> t
(** [sub a b] requires [a >= b]. @raise Invalid_argument otherwise. *)

val mul : t -> t -> t
val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)]. @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t
val pow : t -> int -> t
(** [pow b e] with native exponent [e >= 0]. *)

(** {1 Bit operations} *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t
val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val testbit : t -> int -> bool

(** {1 Modular arithmetic} *)

val mod_add : t -> t -> t -> t
val mod_sub : t -> t -> t -> t
val mod_mul : t -> t -> t -> t
val mod_pow : t -> t -> t -> t
(** [mod_pow b e m] is [b^e mod m].  Odd moduli [>= 3] are routed through
    the fixed-window Montgomery path ({!mont_pow} on a fresh context);
    even moduli fall back to division-based square-and-multiply. *)

val mod_pow_binary : t -> t -> t -> t
(** Division-based square-and-multiply reference.  Same results as
    {!mod_pow}; kept for property tests and as the measurable pre-window
    baseline. *)

(** {2 Montgomery exponentiation}

    For repeated exponentiation modulo one odd modulus (Paillier), the
    Montgomery form avoids a full division per multiplication.  The hot
    kernels are in-place CIOS multiplication and a dedicated squaring
    over preallocated scratch buffers; {!mont_pow} uses fixed-window
    (w=4/5 at cryptographic sizes) exponentiation with a full power
    table and an always-multiply schedule, so the operation sequence
    depends only on the exponent's bit length, not its digit values. *)

type mont
(** Precomputed context for one odd modulus. *)

val mont_create : t -> mont option
(** [None] when the modulus is even or < 3. *)

val mont_pow : mont -> t -> t -> t
(** [mont_pow ctx b e] equals [mod_pow_binary b e n] for the context's
    modulus [n], roughly an order of magnitude faster at 1024 bits. *)

val mont_pow_binary : mont -> t -> t -> t
(** The pre-window bit-at-a-time Montgomery loop over the allocating
    multiply, kept as a bench baseline and test reference. *)

val gcd : t -> t -> t
val lcm : t -> t -> t
val mod_inv : t -> t -> t option
(** [mod_inv a m] is [Some x] with [a*x = 1 (mod m)] when [gcd a m = 1]. *)

(** {1 Randomness and primality} *)

val random_bits : (int -> string) -> int -> t
(** [random_bits rng nbits] draws a uniform value in [[0, 2^nbits)] using
    [rng k], a source of [k] random bytes. *)

val random_below : (int -> string) -> t -> t
(** Uniform value in [[0, bound)] by rejection sampling.
    @raise Invalid_argument if [bound] is zero. *)

val is_probable_prime : ?rounds:int -> (int -> string) -> t -> bool
(** Miller–Rabin with trial division by small primes first. *)

val generate_prime : ?rounds:int -> (int -> string) -> int -> t
(** [generate_prime rng nbits] draws random odd candidates with the top bit
    set until one passes {!is_probable_prime}. *)

val pp : Format.formatter -> t -> unit
