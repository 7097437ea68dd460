(* Rolling time-window aggregation: a bounded ring of epoch snapshots
   over the registry's cumulative counters and sketches.

   Rotation is the cold path (once per epoch, default 1 s): it copies
   the monotonic part of every registered metric — counter values,
   sketch counts/sums/sparse buckets — into an
   immutable epoch.  Rates and "recent" quantiles are then deltas
   between the live metric and the oldest epoch inside the requested
   window, so a reader never touches the hot write path and a
   long-running process reports what happened in the last minute, not
   since boot.

   Time is injectable (every entry point takes [?now] in ns) so tests
   rotate and expire deterministically without sleeping. *)

type epoch_value =
  | Ecounter of int
  | Esketch of { count : int; sum : int; buckets : (int * int) list }

type epoch = { at_ns : int; values : (string * epoch_value) list }

let default_epochs = 60
let default_epoch_ns = 1_000_000_000

type state = {
  lock : Mutex.t;
  mutable epochs : epoch list; (* newest first, length <= capacity *)
  mutable capacity : int;
  mutable epoch_ns : int;
}

let st =
  { lock = Mutex.create ();
    epochs = [];
    capacity = default_epochs;
    epoch_ns = default_epoch_ns }

let locked f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

let configure ?(epochs = default_epochs) ?(epoch_ns = default_epoch_ns) () =
  locked (fun () ->
      st.capacity <- max 1 epochs;
      st.epoch_ns <- max 1 epoch_ns;
      st.epochs <- [])

let reset () = locked (fun () -> st.epochs <- [])

(* monotonic projection of the registry; gauges are level-valued and
   meaningless as deltas, so they are skipped *)
let capture () =
  let out = ref [] in
  Registry.iter (fun name m ->
      match m with
      | Registry.Counter c -> out := (name, Ecounter (Metric.value c)) :: !out
      | Registry.Sketch s ->
        out :=
          (name,
           Esketch
             { count = Sketch.count s;
               sum = Sketch.sum s;
               buckets = Sketch.sparse s })
          :: !out
      | Registry.Gauge _ -> ());
  List.rev !out

let take n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | _ -> List.rev acc
  in
  go n [] l

let rotate ~now =
  let values = capture () in
  locked (fun () ->
      st.epochs <- take st.capacity ({ at_ns = now; values } :: st.epochs))

let force ?now () =
  let now = match now with Some t -> t | None -> Control.now_ns () in
  rotate ~now

let tick ?now () =
  if Control.is_on () then begin
    let now = match now with Some t -> t | None -> Control.now_ns () in
    let due =
      locked (fun () ->
          match st.epochs with
          | [] -> true
          | newest :: _ -> now - newest.at_ns >= st.epoch_ns)
    in
    if due then rotate ~now
  end

let epoch_count () = locked (fun () -> List.length st.epochs)
let epoch_ns () = locked (fun () -> st.epoch_ns)
let capacity () = locked (fun () -> st.capacity)

(* oldest epoch not older than [now - window_ns]; expired epochs are
   skipped (they age out logically even before the ring overwrites
   them) *)
let baseline ~now ~window_ns =
  let horizon = now - window_ns in
  locked (fun () ->
      List.fold_left
        (fun acc e -> if e.at_ns >= horizon then Some e else acc)
        None st.epochs)

let default_window ~window_ns =
  match window_ns with
  | Some w -> w
  | None -> locked (fun () -> st.capacity * st.epoch_ns)

let live_count name =
  match Registry.find_metric name with
  | Some (Registry.Counter c) -> Some (Metric.value c)
  | Some (Registry.Sketch s) -> Some (Sketch.count s)
  | Some (Registry.Gauge _) | None -> None

let epoch_counter e name =
  match List.assoc_opt name e.values with
  | Some (Ecounter n) -> n
  | Some (Esketch { count; _ }) -> count
  | None -> 0 (* registered after the epoch was captured *)

let rate ?now ?window_ns name =
  let now = match now with Some t -> t | None -> Control.now_ns () in
  let window_ns = default_window ~window_ns in
  match live_count name with
  | None -> None
  | Some live ->
    (match baseline ~now ~window_ns with
     | None -> None
     | Some e ->
       let dt_ns = now - e.at_ns in
       if dt_ns <= 0 then None
       else
         Some
           (float_of_int (live - epoch_counter e name)
            *. 1e9
            /. float_of_int dt_ns))

(* live sparse buckets minus the baseline's: the distribution of the
   observations made inside the window *)
let delta_sparse live base =
  let rec go acc live base =
    match (live, base) with
    | [], _ -> List.rev acc
    | l, [] -> List.rev_append acc l
    | (bi, bn) :: lrest, (ci, cn) :: brest ->
      if bi < ci then go ((bi, bn) :: acc) lrest base
      else if bi > ci then go acc live brest (* gone after reset; skip *)
      else
        let d = bn - cn in
        go (if d > 0 then (bi, d) :: acc else acc) lrest brest
  in
  go [] live base

let quantile ?now ?window_ns name q =
  let now = match now with Some t -> t | None -> Control.now_ns () in
  let window_ns = default_window ~window_ns in
  match Registry.find_metric name with
  | Some (Registry.Sketch s) ->
    let live = Sketch.sparse s in
    let buckets =
      match baseline ~now ~window_ns with
      | None -> live (* no epoch yet: everything is "recent" *)
      | Some e ->
        (match List.assoc_opt name e.values with
         | Some (Esketch { buckets; _ }) -> delta_sparse live buckets
         | Some (Ecounter _) | None -> live)
    in
    Sketch.quantile_of_sparse buckets q
  | _ -> None
