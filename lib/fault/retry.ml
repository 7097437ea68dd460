(* Generic bounded retry with exponential backoff and deterministic
   jitter.

   The jitter draw is a pure hash of (key, attempt) — the same FNV-1a +
   splitmix64 construction the injection registry uses for [Prob]
   triggers — so a retry schedule is a function of its inputs alone:
   seeded chaos runs replay the exact same delays, and no code outside
   lib/crypto/drbg.ml touches an entropy source (lint rule RNG01).

   Callers that sit on a hot path pass [immediate] (zero delays) and
   keep only the bounded-attempts semantics; the server passes a real
   [sleep] so transient faults are not hammered. *)

type policy = {
  attempts : int;
  base_delay_ns : int;
  multiplier : float;
  max_delay_ns : int;
  jitter : float;
}

let default =
  { attempts = 3;
    base_delay_ns = 1_000_000 (* 1 ms *);
    multiplier = 2.0;
    max_delay_ns = 100_000_000 (* 100 ms *);
    jitter = 0.5 }

let immediate attempts =
  { attempts = max 1 attempts;
    base_delay_ns = 0;
    multiplier = 1.0;
    max_delay_ns = 0;
    jitter = 0.0 }

(* ---- deterministic jitter hash (see lib/fault/inject.ml) ---- *)

let fnv1a64 (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let splitmix64 (x : int64) : int64 =
  let z = Int64.add x 0x9e3779b97f4a7c15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform fraction in [0, 1) from (key, attempt), 53 usable bits *)
let fraction ~key ~attempt =
  let h = splitmix64 (Int64.add (fnv1a64 key) (Int64.of_int attempt)) in
  let bits53 = Int64.to_int (Int64.shift_right_logical h 11) in
  float_of_int bits53 /. 9007199254740992.0 (* 2^53 *)

let delay_ns policy ~key ~attempt =
  if attempt <= 1 || policy.base_delay_ns <= 0 then 0
  else begin
    let raw =
      float_of_int policy.base_delay_ns
      *. (policy.multiplier ** float_of_int (attempt - 2))
    in
    let capped = Float.min raw (float_of_int policy.max_delay_ns) in
    (* "equal jitter": keep (1 - jitter) of the delay, randomize the rest
       downward — bounded above by the capped exponential, never zero for
       a non-zero base *)
    let j = Float.max 0.0 (Float.min 1.0 policy.jitter) in
    let spread = capped *. j *. fraction ~key ~attempt in
    int_of_float (Float.max 1.0 (capped -. spread))
  end

(* deadlines, shedding and shutdown are not transient: burning the
   remaining attempts on them only delays the typed answer the caller
   already has *)
let retryable = function
  | Error.Deadline_exceeded _ | Error.Overloaded _ | Error.Draining
  | Error.Protocol _ | Error.Invariant _ -> false
  | Error.Injected _ | Error.Crypto_failure _ | Error.Ope_range_exhausted _
  | Error.Paillier_mismatch _ | Error.Csv_malformed _ | Error.Row_failed _
  | Error.Task_failed _ | Error.Io_failure _ | Error.Unexpected _ -> true

let m_retried = Obs.Registry.counter "kitdpe.fault.retried"
let m_exhausted = Obs.Registry.counter "kitdpe.fault.retry_exhausted"

let run_n ?(policy = default) ?(sleep = fun (_ : int) -> ())
    ?(retryable = retryable) ?(should_abort = fun () -> false) ~key f =
  let rec go attempt =
    match f ~attempt with
    | Ok v -> Ok v
    | Error e ->
      if attempt >= policy.attempts || (not (retryable e)) || should_abort ()
      then begin
        if attempt >= policy.attempts && retryable e then
          Obs.Metric.incr m_exhausted;
        Error (attempt, e)
      end
      else begin
        Obs.Metric.incr m_retried;
        let d = delay_ns policy ~key ~attempt:(attempt + 1) in
        if d > 0 then sleep d;
        go (attempt + 1)
      end
  in
  go 1

let run ?policy ?sleep ?retryable ?should_abort ~key f =
  match run_n ?policy ?sleep ?retryable ?should_abort ~key f with
  | Ok v -> Ok v
  | Error (_, e) -> Error e
