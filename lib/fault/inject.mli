(** Deterministic fault-injection registry.

    Named points compiled into the tree are armed with a trigger, via
    {!arm}/{!arm_spec} or the [KITDPE_FAULTS] environment variable
    (read once at startup), e.g.

    {[ KITDPE_FAULTS="dpe.db_encryptor.row=every:7;crypto.ope.encrypt=nth:3;seed=run42" ]}

    Triggers resolve on the call-site key a point supplies (row index,
    CSV line, plaintext value …), so two runs with the same seed, spec
    and input arm exactly the same victims regardless of pool size.
    Points called without a key fall back to a per-point call counter
    and are only deterministic for sequential call sites. *)

type trigger =
  | Always  (** fire on every call *)
  | Nth of int  (** fire when the key (or call index) equals [n] *)
  | Every of int  (** fire when the key (or 1-based call count) ≡ 0 mod [n] *)
  | Prob of float
      (** fire when [hash(seed, point, key)] maps below [p] — a
          deterministic per-key coin, not a true random draw. *)

val enabled : bool Atomic.t
(** True iff at least one point is armed.  [Fault.point] loads this
    first; the disarmed cost of an injection point is one atomic
    read. *)

val arm : string -> trigger -> unit
val arm_spec : string -> (unit, string) result
(** Parse and arm a [point=trigger[;...]] spec; a [seed=<str>] clause
    sets the hash seed.  On parse error nothing stays armed. *)

val disarm_all : unit -> unit

val set_seed : string -> unit
val get_seed : unit -> string

val check : ?key:int -> string -> int option
(** [check ?key name] records one call at point [name] and returns
    [Some resolved_key] when the armed trigger fires ([None] when the
    point is not armed or does not fire).  Increments
    [kitdpe.fault.injected] on fire.  Callers normally go through
    [Fault.point], which raises. *)

val armed : unit -> (string * trigger) list
val stats : unit -> (string * trigger * int * int) list
(** [(name, trigger, calls, fired)] for every armed point. *)
