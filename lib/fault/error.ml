(* The typed error channel shared by every pipeline layer.

   One closed variant per failure class keeps the surface uniform:
   pipeline entry points return [('a, Error.t) result] (or
   ['a * Error.t list] for partial results) instead of raising
   stringly-typed [Failure]s.  Nested causes ([Row_failed],
   [Task_failed]) preserve the originating error so a chaos run can
   trace an armed injection point all the way to the report
   ({!injected_points}). *)

type t =
  | Injected of { point : string; key : int }
  | Crypto_failure of { op : string; reason : string }
  | Ope_range_exhausted of { op : string; bits : int }
  | Paillier_mismatch of { op : string; reason : string }
  | Csv_malformed of { line : int; reason : string }
  | Row_failed of { rel : string; row : int; attempts : int; cause : t }
  | Task_failed of { label : string; index : int; cause : t }
  | Io_failure of { path : string; reason : string }
  | Invariant of { context : string; reason : string }
  | Unexpected of { context : string; exn : string }
  | Deadline_exceeded of { context : string }
  | Overloaded of { queue_depth : int; retry_after_ms : int }
  | Protocol of { reason : string }
  | Draining

exception E of t

let rec to_string = function
  | Injected { point; key } ->
    Printf.sprintf "injected fault at %s (key %d)" point key
  | Crypto_failure { op; reason } ->
    Printf.sprintf "crypto failure in %s: %s" op reason
  | Ope_range_exhausted { op; bits } ->
    Printf.sprintf "OPE range exhausted in %s (plaintext magnitude: %d bits)" op bits
  | Paillier_mismatch { op; reason } ->
    Printf.sprintf "Paillier mismatch in %s: %s" op reason
  | Csv_malformed { line; reason } ->
    Printf.sprintf "malformed CSV at line %d: %s" line reason
  | Row_failed { rel; row; attempts; cause } ->
    Printf.sprintf "row %d of %s failed after %d attempt(s): %s" row rel
      attempts (to_string cause)
  | Task_failed { label; index; cause } ->
    Printf.sprintf "task %s[%d] failed: %s" label index (to_string cause)
  | Io_failure { path; reason } ->
    Printf.sprintf "I/O failure on %s: %s" path reason
  | Invariant { context; reason } ->
    Printf.sprintf "invariant violated in %s: %s" context reason
  | Unexpected { context; exn } ->
    Printf.sprintf "unexpected exception in %s: %s" context exn
  | Deadline_exceeded { context } ->
    Printf.sprintf "deadline exceeded in %s" context
  | Overloaded { queue_depth; retry_after_ms } ->
    Printf.sprintf "overloaded: admission queue full (depth %d), retry after %d ms"
      queue_depth retry_after_ms
  | Protocol { reason } -> Printf.sprintf "protocol error: %s" reason
  | Draining -> "server draining: no new work accepted"

let pp fmt e = Format.pp_print_string fmt (to_string e)

let () =
  Printexc.register_printer (function
    | E e -> Some ("Fault.Error.E: " ^ to_string e)
    | _ -> None)

let rec injected_points = function
  | Injected { point; _ } -> [ point ]
  | Row_failed { cause; _ } | Task_failed { cause; _ } -> injected_points cause
  | Crypto_failure _ | Ope_range_exhausted _ | Paillier_mismatch _
  | Csv_malformed _ | Io_failure _ | Invariant _ | Unexpected _
  | Deadline_exceeded _ | Overloaded _ | Protocol _ | Draining -> []

(* layers register translators for their own exception constructors so
   [of_exn] can map e.g. [Encrypt_error] to [Crypto_failure] without
   this module depending on them.  Registration happens once at module
   initialization; the CAS loop makes it safe anyway. *)
let translators : (exn -> t option) list Atomic.t = Atomic.make []

let register_exn_translator f =
  let rec go () =
    let cur = Atomic.get translators in
    if not (Atomic.compare_and_set translators cur (f :: cur)) then go ()
  in
  go ()

let m_caught = Obs.Registry.counter "kitdpe.fault.caught"

let of_exn ~context exn =
  Obs.Metric.incr m_caught;
  match exn with
  | E e -> e
  | exn ->
    let rec translate = function
      | [] -> Unexpected { context; exn = Printexc.to_string exn }
      | f :: rest ->
        (match f exn with Some t -> t | None -> translate rest)
    in
    translate (Atomic.get translators)

let get_ok = function
  | Ok v -> v
  | Error (e :: _) -> raise (E e)
  | Error [] ->
    raise (E (Invariant { context = "Fault.Error.get_ok"; reason = "empty error list" }))
