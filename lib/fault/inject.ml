(* Deterministic fault-injection registry.

   A handful of named points are compiled into the tree
   ([Fault.point "dpe.db_encryptor.row"] etc.); arming any of them —
   via [KITDPE_FAULTS] or {!arm} — flips the single [enabled] atomic
   that every point loads first, so the disarmed cost is one atomic
   read, the same pattern as [Obs.is_enabled].

   Determinism: triggers resolve on the call-site *key* (row index,
   CSV line, plaintext value) whenever the point supplies one, so the
   set of victims is a pure function of (seed, spec, input data) and
   independent of domain scheduling.  [Prob] hashes seed/point/key
   through FNV-1a + splitmix64 (Int64 arithmetic — native int is only
   63 bits).  Keyless points fall back to a per-point call counter,
   which is only deterministic for sequential call sites. *)

type trigger =
  | Always
  | Nth of int
  | Every of int
  | Prob of float

type armed = {
  trigger : trigger;
  calls : int Atomic.t;
  fired : int Atomic.t;
}

(* the armed table is a tiny immutable assoc list swapped atomically:
   lock-free lookups on the (already slow) armed path, no mutex. *)
let points : (string * armed) list Atomic.t = Atomic.make []
let enabled = Atomic.make false
let seed = Atomic.make "kitdpe-fault"

let m_injected = Obs.Registry.counter "kitdpe.fault.injected"

let trigger_to_string = function
  | Always -> "always"
  | Nth k -> Printf.sprintf "nth:%d" k
  | Every k -> Printf.sprintf "every:%d" k
  | Prob p -> Printf.sprintf "prob:%g" p

let set_seed s = Atomic.set seed s
let get_seed () = Atomic.get seed

let arm name trigger =
  let a = { trigger; calls = Atomic.make 0; fired = Atomic.make 0 } in
  let rec go () =
    let cur = Atomic.get points in
    let next = (name, a) :: List.remove_assoc name cur in
    if not (Atomic.compare_and_set points cur next) then go ()
  in
  go ();
  Atomic.set enabled true

let disarm_all () =
  Atomic.set points [];
  Atomic.set enabled false

let armed () =
  List.rev_map (fun (n, a) -> (n, a.trigger)) (Atomic.get points)

let stats () =
  List.rev_map
    (fun (n, a) -> (n, a.trigger, Atomic.get a.calls, Atomic.get a.fired))
    (Atomic.get points)

(* ---- deterministic hashing (Int64: constants need all 64 bits) ---- *)

let fnv1a64 (s : string) : int64 =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let splitmix64 (x : int64) : int64 =
  let z = Int64.add x 0x9e3779b97f4a7c15L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unit_float ~seed ~point ~key =
  let h = fnv1a64 (Printf.sprintf "%s\x00%s\x00%d" seed point key) in
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (splitmix64 h) 11) /. 9007199254740992.0

(* ---- the hot(ish) path: called by Fault.point once armed ---- *)

let check ?key name : int option =
  match List.assoc_opt name (Atomic.get points) with
  | None -> None
  | Some a ->
    let n = Atomic.fetch_and_add a.calls 1 in
    let k = match key with Some k -> k | None -> n in
    let fire =
      match a.trigger with
      | Always -> true
      | Nth j -> k = j
      | Every j -> k mod j = 0
      | Prob p -> unit_float ~seed:(Atomic.get seed) ~point:name ~key:k < p
    in
    if fire then begin
      Atomic.incr a.fired;
      Obs.Metric.incr m_injected;
      Some k
    end
    else None

(* ---- spec parsing: "point=trigger[;point=trigger...][;seed=s]" ---- *)

let parse_trigger s =
  match String.split_on_char ':' s with
  | [ "always" ] -> Ok Always
  | [ "nth"; k ] ->
    (match int_of_string_opt k with
     | Some k when k >= 0 -> Ok (Nth k)
     | _ -> Error (Printf.sprintf "nth wants a non-negative int, got %S" k))
  | [ "every"; k ] ->
    (match int_of_string_opt k with
     | Some k when k >= 1 -> Ok (Every k)
     | _ -> Error (Printf.sprintf "every wants a positive int, got %S" k))
  | [ "prob"; p ] ->
    (match float_of_string_opt p with
     | Some p when p >= 0.0 && p <= 1.0 -> Ok (Prob p)
     | _ -> Error (Printf.sprintf "prob wants a float in [0,1], got %S" p))
  | _ -> Error (Printf.sprintf "unknown trigger %S (always|nth:K|every:K|prob:P)" s)

let arm_spec spec =
  let clauses =
    String.split_on_char ';' spec
    |> List.concat_map (String.split_on_char ',')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go = function
    | [] -> Ok ()
    | clause :: rest ->
      (match String.index_opt clause '=' with
       | None ->
         Error (Printf.sprintf "clause %S has no '=' (want point=trigger)" clause)
       | Some i ->
         let name = String.trim (String.sub clause 0 i) in
         let value =
           String.trim (String.sub clause (i + 1) (String.length clause - i - 1))
         in
         if name = "" then Error (Printf.sprintf "clause %S has an empty point" clause)
         else if name = "seed" then begin
           set_seed value;
           go rest
         end
         else
           (match parse_trigger value with
            | Ok t ->
              arm name t;
              go rest
            | Error e -> Error (Printf.sprintf "point %s: %s" name e)))
  in
  match go clauses with
  | Ok () -> Ok ()
  | Error _ as e ->
    (* never leave a half-armed registry behind a typo'd spec *)
    disarm_all ();
    e

let () =
  match Sys.getenv_opt "KITDPE_FAULTS" with
  | None -> ()
  | Some spec ->
    (match arm_spec spec with
     | Ok () -> ()
     | Error msg -> Printf.eprintf "KITDPE_FAULTS ignored: %s\n%!" msg)
