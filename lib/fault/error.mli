(** The typed error channel: one variant per pipeline failure class.

    Pipeline entry points expose [('a, t) result] (or ['a * t list]
    when partial results are meaningful) instead of raising.  Nested
    causes in {!Row_failed} / {!Task_failed} preserve the originating
    error, so injected faults remain traceable end to end. *)

type t =
  | Injected of { point : string; key : int }
      (** Raised by an armed {!Fault.point}; [key] is the deterministic
          call-site key the trigger resolved on. *)
  | Crypto_failure of { op : string; reason : string }
  | Ope_range_exhausted of { op : string; bits : int }
      (** [bits] is [Crypto.Ct.int_bits] of the rejected plaintext — its
          magnitude class, never the value itself (SECFLOW01). *)
  | Paillier_mismatch of { op : string; reason : string }
  | Csv_malformed of { line : int; reason : string }
      (** [line] is the 1-based physical line of the offending row. *)
  | Row_failed of { rel : string; row : int; attempts : int; cause : t }
      (** A database row that still failed after [attempts] tries. *)
  | Task_failed of { label : string; index : int; cause : t }
  | Io_failure of { path : string; reason : string }
  | Invariant of { context : string; reason : string }
  | Unexpected of { context : string; exn : string }
  | Deadline_exceeded of { context : string }
      (** A request (or batch) ran past its deadline; [context] names the
          layer that abandoned the work.  Deliberately carries no
          timestamps so seeded chaos reports stay bit-reproducible. *)
  | Overloaded of { queue_depth : int; retry_after_ms : int }
      (** Load shed at admission: the bounded queue was full (or the
          [server.admission] fault point simulated it).  Clients should
          back off at least [retry_after_ms] before resubmitting. *)
  | Protocol of { reason : string }
      (** Malformed wire traffic: bad frame length, oversized frame,
          unparseable payload, unknown request shape. *)
  | Draining
      (** The server is in graceful shutdown and admits no new work;
          in-flight requests still complete. *)

exception E of t
(** The one exception the migrated layers raise when a [result] surface
    is not available (e.g. legacy wrappers).  Registered with
    [Printexc] so uncaught instances print the typed payload. *)

val to_string : t -> string
(** Deterministic rendering (no addresses, no timestamps) — chaos runs
    compare whole reports for bit-equality. *)

val pp : Format.formatter -> t -> unit

val injected_points : t -> string list
(** The injection-point names reachable through the error's [cause]
    chain; used by [dpe_cli chaos] to check every armed fault
    surfaced. *)

val register_exn_translator : (exn -> t option) -> unit
(** Layers register a mapping for their own exception constructors
    (e.g. [Encrypt_error msg -> Some (Crypto_failure ...)]).  Called
    once at module initialization. *)

val of_exn : context:string -> exn -> t
(** Convert a caught exception: [E e] unwraps to [e], registered
    translators are tried in turn, anything else becomes
    {!Unexpected}.  Increments [kitdpe.fault.caught]. *)

val get_ok : ('a, t list) result -> 'a
(** The raising face of a crash-contained [_r] builder: [Ok v] is [v],
    [Error (e :: _)] raises [E e] (the first error). *)
