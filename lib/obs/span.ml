(* Lightweight spans collected into a bounded ring buffer; the lock is
   taken once per completed span, never inside element loops.  The
   current context lives in a per-sys-thread [Slot]: [with_span] pushes
   itself as the parent for its dynamic extent, and [with_context]
   transplants a captured context onto another domain (how
   [Parallel.Pool] parents lane-side spans on the submitter).  Ids come
   from one atomic counter; 0 means "none". *)

type context = { trace : int; span : int }

let root_context = { trace = 0; span = 0 }

let ctx_slot = Slot.make root_context
let current () = Slot.get ctx_slot
let next_span_id = Atomic.make 1
let new_span_id () = Atomic.fetch_and_add next_span_id 1

let child_context parent =
  let id = new_span_id () in
  { trace = (if parent.trace = 0 then id else parent.trace); span = id }

let with_context ctx f =
  if Control.is_on () then Slot.with_value ctx_slot ctx f else f ()

type event = {
  name : string;
  cat : string;
  ts_ns : int; (* span start, wall-clock ns *)
  dur_ns : int;
  tid : int; (* domain id *)
  trace_id : int;
  span_id : int;
  parent_id : int; (* 0 = root *)
}

let default_capacity = 8192

type ring = {
  lock : Mutex.t;
  mutable buf : event array;
  mutable len : int; (* live events, <= capacity *)
  mutable next : int; (* next write slot *)
  mutable dropped : int; (* events overwritten after wrap-around *)
}

let dummy =
  { name = ""; cat = ""; ts_ns = 0; dur_ns = 0; tid = 0;
    trace_id = 0; span_id = 0; parent_id = 0 }

let ring =
  { lock = Mutex.create ();
    buf = Array.make default_capacity dummy;
    len = 0;
    next = 0;
    dropped = 0 }

(* ring overwrite loss as a first-class metric, so `dpe_cli stats` and
   the OpenMetrics exposition surface it without a trace export *)
let m_dropped = Registry.counter "kitdpe.obs.span.dropped"

let set_capacity n =
  Mutex.lock ring.lock;
  ring.buf <- Array.make (max 1 n) dummy;
  ring.len <- 0;
  ring.next <- 0;
  ring.dropped <- 0;
  Mutex.unlock ring.lock

let record ?(cat = "kitdpe") ?trace_id ?span_id ?parent_id ~name ~ts_ns ~dur_ns
    () =
  if Control.is_on () then begin
    (* post-hoc call sites (timed without a closure) default to a fresh
       span id parented on whatever context is current *)
    let ctx = current () in
    let span_id =
      match span_id with Some id -> id | None -> new_span_id ()
    in
    let trace_id =
      match trace_id with
      | Some t -> t
      | None -> if ctx.trace = 0 then span_id else ctx.trace
    in
    let parent_id = match parent_id with Some p -> p | None -> ctx.span in
    let e =
      { name; cat; ts_ns; dur_ns; tid = (Domain.self () :> int);
        trace_id; span_id; parent_id }
    in
    Mutex.lock ring.lock;
    let capacity = Array.length ring.buf in
    if ring.len = capacity then begin
      ring.dropped <- ring.dropped + 1;
      Metric.incr m_dropped
    end
    else ring.len <- ring.len + 1;
    ring.buf.(ring.next) <- e;
    ring.next <- (ring.next + 1) mod capacity;
    Mutex.unlock ring.lock
  end

(* the span opens before [f] runs, so everything [f] times nests under
   it; it closes, feeding [sketch] with its own ids as the exemplar,
   whether [f] returns or raises *)
let with_span ?sketch ?cat name f =
  if not (Control.is_on ()) then f ()
  else begin
    let parent = current () in
    let ctx = child_context parent in
    let ts_ns = Control.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur_ns = Control.now_ns () - ts_ns in
        Option.iter
          (fun s -> Sketch.observe s ~trace_id:ctx.trace ~span_id:ctx.span dur_ns)
          sketch;
        record ?cat ~trace_id:ctx.trace ~span_id:ctx.span ~parent_id:parent.span
          ~name ~ts_ns ~dur_ns ())
      (fun () -> Slot.with_value ctx_slot ctx f)
  end

(* oldest-first; ring order is completion order *)
let events () =
  Mutex.lock ring.lock;
  let capacity = Array.length ring.buf in
  let start = if ring.len < capacity then 0 else ring.next in
  let out =
    List.init ring.len (fun i -> ring.buf.((start + i) mod capacity))
  in
  Mutex.unlock ring.lock;
  out

let dropped () =
  Mutex.lock ring.lock;
  let d = ring.dropped in
  Mutex.unlock ring.lock;
  d

let clear () =
  Mutex.lock ring.lock;
  ring.len <- 0;
  ring.next <- 0;
  ring.dropped <- 0;
  Mutex.unlock ring.lock
