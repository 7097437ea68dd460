(** JSON wire vocabulary of the [dpe_serve] protocol.

    Payloads are {!Obs.Json.t} values, read by [Obs.Json.parse] and
    written by its inverse [Obs.Json.to_string].  A request names an operation, a tenant, and the
    mining parameters; a response carries the request's [id], a
    [status] of ["ok"], ["partial"], ["error"] or ["overloaded"], and —
    on anything but ["ok"] — a machine-readable [error_kind] plus the
    deterministic rendering of the typed error.  Responses carry no
    timestamps, so a seeded workload's response stream is
    bit-reproducible (the chaos invariant of DESIGN.md §14). *)

val render : Obs.Json.t -> string
(** [Obs.Json.to_string].  An alias kept only because [servebench/]
    calls it; everything else calls [Obs.Json.to_string] directly. *)

type op = Encrypt | Mine | Stats | Health

val op_to_string : op -> string
val op_of_string : string -> op option

val compute_op : op -> bool
(** [encrypt] and [mine]: the ops that queue for the server's one
    compute thread and run under the request deadline.  The
    connection's reader answers [stats] and [health] itself, without
    either. *)

type request = {
  id : int;                (** client-chosen correlation id, echoed back *)
  op : op;
  tenant : string;         (** key namespace ([Crypto.Keyring.derive]) *)
  measure : Distance.Measure.t;
  algo : string;           (** mine: clink, dbscan, kmedoids, outliers *)
  k : int;                 (** mine: cluster count *)
  eps : float;             (** mine: DBSCAN radius / outlier threshold *)
  deadline_ms : int option;
      (** request budget from arrival, absolute once admitted; in
          [[1, max_deadline_ms]] *)
  retries : int;           (** per-item retry budget, in [[0, max_retries]] *)
  engine : string option;
      (** mine: neighbor engine — ["matrix"] or ["index"];
          absent means the server's default (matrix) path, so existing
          clients are unaffected *)
  queries : string list;   (** SQL text, one query per entry *)
}

val max_retries : int
(** 8: [retries] runs on the one compute thread, ahead of every request
    queued behind it, so the client may not choose its length freely. *)

val max_deadline_ms : int
(** 86,400,000 (24 h): far below the ms-to-ns overflow of the absolute
    deadline. *)

val parse_request : string -> (request, int option * Fault.Error.t) result
(** Parse a framed payload.  The error side carries the request [id]
    when one could still be extracted, so even a malformed request gets
    a correlated [Protocol] error response.  Integer fields must be
    integral JSON numbers; [retries] or [deadline_ms] outside its range
    is a [Protocol] error. *)

val request_to_json : request -> Obs.Json.t

val response_ok : id:int -> (string * Obs.Json.t) list -> Obs.Json.t
val response_partial :
  id:int -> (string * Obs.Json.t) list -> errors:Fault.Error.t list -> Obs.Json.t
(** Graceful degradation: the surviving result plus a typed error
    manifest for the parts that failed. *)

val response_error : ?id:int -> Fault.Error.t -> Obs.Json.t
(** Status ["overloaded"] (with [queue_depth] and [retry_after_ms]
    fields) for {!Fault.Error.Overloaded}, ["error"] otherwise. *)

val error_kind : Fault.Error.t -> string
(** Short stable tag for clients to switch on (["overloaded"],
    ["deadline"], ["draining"], ["protocol"], ...). *)

val response_id : Obs.Json.t -> int option
val response_status : Obs.Json.t -> string
