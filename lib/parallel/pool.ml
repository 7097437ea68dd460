(* each queued job carries the span context AND the request deadline of
   its submitting batch, so a worker lane can parent the task's spans on
   the submitter and honor the submitter's deadline no matter which
   domain executes it *)
type t = {
  lanes : int;
  mutex : Mutex.t;
  pending : (Obs.Span.context * int * (unit -> unit)) Queue.t;
  nonempty : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

(* ---- deadlines ----

   An absolute [Obs.now_ns]-clock deadline travels with the submitting
   request ([max_int] = none): the submitter sets it with
   [with_deadline], [run_tasks] snapshots it into every queued job, and
   [run_job] installs it on whichever lane runs the job.  The
   crash-contained [map_range_r] checks it before each index, so an
   expired batch drains in O(remaining indices) bookkeeping — the lanes
   are released, not orphaned on abandoned work — and every skipped
   index is reported as a typed [Deadline_exceeded].  The plain
   combinators are deliberately left deadline-blind: their contract is
   bit-identical complete output, and callers that want abandonment use
   [map_range_r].

   Storage is the per-sys-thread [Obs.Slot] the span context also
   lives in, so server threads sharing domain 0 never see each other's
   deadline. *)

let no_deadline = max_int
let deadline_slot = Obs.Slot.make no_deadline
let get_deadline () = Obs.Slot.get deadline_slot

let m_deadline_skips = Obs.Registry.counter "kitdpe.parallel.pool.deadline_skips"

let current_deadline_ns () =
  match get_deadline () with
  | d when d = no_deadline -> None
  | d -> Some d

let deadline_expired () =
  let d = get_deadline () in
  d <> no_deadline && Obs.now_ns () > d

(* nested deadlines only tighten: an inner batch can never outlive the
   request that submitted it *)
let with_deadline ~deadline_ns f =
  Obs.Slot.with_value deadline_slot (min (get_deadline ()) deadline_ns) f

let check_deadline ~context () =
  if deadline_expired () then
    raise (Fault.Error.E (Fault.Error.Deadline_exceeded { context }))

(* ---- observability ----

   Per-lane task counts and busy nanoseconds answer "which pool lane sat
   idle?".  The lane index lives in domain-local storage: worker [i] sets
   it once at spawn, the caller (and any domain outside the pool) is lane
   0.  These [kitdpe.parallel.*] metrics describe the execution substrate
   and naturally vary with KITDPE_DOMAINS; workload-semantic metrics
   elsewhere in the tree do not. *)

let lane_key = Domain.DLS.new_key (fun () -> 0)

let m_batches = Obs.Registry.counter "kitdpe.parallel.pool.batches"
let m_tasks = Obs.Registry.counter "kitdpe.parallel.pool.tasks"
let m_task = Obs.Registry.sketch "kitdpe.parallel.pool.task"

let lane_counter name lane =
  Obs.Registry.counter
    (Printf.sprintf "kitdpe.parallel.pool.lane%d.%s" lane name)

let m_contained = Obs.Registry.counter "kitdpe.parallel.pool.contained"
let m_lane_crashes = Obs.Registry.counter "kitdpe.parallel.pool.lane_crashes"

(* not Obs-gated: containment is a correctness property and tests assert
   on it with telemetry off *)
let crashes = Atomic.make 0
let lane_crashes () = Atomic.get crashes

(* tasks are stripe-coarse (a handful per lane per batch), so the
   registry lookup on the enabled path is noise; the disabled path is a
   single atomic load and a direct call.

   [?ctx] is the submitting batch's span context (queued jobs); without
   it (sequential paths, single-task batches) the caller's own context
   is the parent — either way the "pool.task" span and everything opened
   inside the job land in the submitter's trace. *)
let run_instrumented ?ctx job =
  if not (Obs.is_enabled ()) then job ()
  else begin
    let lane = Domain.DLS.get lane_key in
    let submit_ctx =
      match ctx with Some c -> c | None -> Obs.Span.current ()
    in
    let task_ctx = Obs.Span.child_context submit_ctx in
    let t0 = Obs.now_ns () in
    Obs.Span.with_context task_ctx job;
    let dt = Obs.now_ns () - t0 in
    Obs.Metric.incr m_tasks;
    Obs.Sketch.observe m_task ~trace_id:task_ctx.Obs.Span.trace
      ~span_id:task_ctx.Obs.Span.span dt;
    Obs.Metric.incr (lane_counter "tasks" lane);
    Obs.Metric.add (lane_counter "busy_ns" lane) dt;
    Obs.Span.record ~cat:"parallel" ~trace_id:task_ctx.Obs.Span.trace
      ~span_id:task_ctx.Obs.Span.span ~parent_id:submit_ctx.Obs.Span.span
      ~name:"pool.task" ~ts_ns:t0 ~dur_ns:dt ()
  end

(* queued jobs install the submitter's deadline on the executing lane
   (telemetry on or off — deadlines are a correctness property); direct
   calls ([?deadline] absent) run on the submitting thread, whose own
   slot the submitter already set via [with_deadline] *)
let run_job ?ctx ?deadline job =
  match deadline with
  | None -> run_instrumented ?ctx job
  | Some d ->
    Obs.Slot.with_value deadline_slot d (fun () -> run_instrumented ?ctx job)

let default_domains () =
  let fallback = max 1 (Domain.recommended_domain_count () - 1) in
  match Sys.getenv_opt "KITDPE_DOMAINS" with
  | None -> fallback
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> fallback)

let size t = t.lanes

(* Workers block on [nonempty] until a task is queued or the pool closes.
   Tasks never raise: they are wrapped by [run_tasks]. *)
let rec worker_loop t =
  Mutex.lock t.mutex;
  let rec next () =
    match Queue.take_opt t.pending with
    | Some job ->
      Mutex.unlock t.mutex;
      Some job
    | None ->
      if t.closed then begin
        Mutex.unlock t.mutex;
        None
      end
      else begin
        Condition.wait t.nonempty t.mutex;
        next ()
      end
  in
  match next () with
  | None -> ()
  | Some (ctx, deadline, job) ->
    run_job ~ctx ~deadline job;
    worker_loop t

(* Lane supervisor: every queued job is wrapped by its batch and cannot
   raise, but if one ever escapes anyway (async exception, a bug in the
   instrumentation) the domain must not die silently — the lane is
   "respawned" by re-entering the loop, so the pool keeps its size and
   any in-flight batch still completes via the caller lane. *)
let rec lane_body t =
  match worker_loop t with
  | () -> ()
  | exception _ ->
    Atomic.incr crashes;
    Obs.Metric.incr m_lane_crashes;
    lane_body t

let create ?domains () =
  let lanes = max 1 (match domains with Some d -> d | None -> default_domains ()) in
  let t =
    { lanes;
      mutex = Mutex.create ();
      pending = Queue.create ();
      nonempty = Condition.create ();
      closed = false;
      workers = [] }
  in
  if lanes > 1 then
    t.workers <-
      List.init (lanes - 1) (fun i ->
          Domain.spawn (fun () ->
              Domain.DLS.set lane_key (i + 1);
              lane_body t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let global_mutex = Mutex.create ()
let global_pool = ref None

let global () =
  Mutex.lock global_mutex;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
      let p = create () in
      Obs.Metric.set_gauge (Obs.Registry.gauge "kitdpe.parallel.pool.size") p.lanes;
      global_pool := Some p;
      at_exit (fun () -> shutdown p);
      p
  in
  Mutex.unlock global_mutex;
  p

let run_seq tasks = List.iter (fun f -> run_job f) tasks

let run_tasks t tasks =
  match tasks with
  | [] -> ()
  | [ f ] -> run_job f
  | _ when t.lanes <= 1 || t.closed -> run_seq tasks
  | _ ->
    let batch_t0 = Obs.time_start () in
    (* the batch is a span of its own: tasks parent on it (carried with
       each queued job), and it parents on whatever span submitted the
       batch — that is the request -> lane-task edge the trace shows *)
    let submit_ctx, batch_ctx =
      if batch_t0 > 0 then
        let c = Obs.Span.current () in
        (c, Obs.Span.child_context c)
      else Obs.Span.(root_context, root_context)
    in
    let submit_deadline = get_deadline () in
    let remaining = ref (List.length tasks) in
    let first_exn = ref None in
    let batch_done = Condition.create () in
    let wrap f () =
      (try f ()
       with e ->
         Mutex.lock t.mutex;
         if !first_exn = None then first_exn := Some e;
         Mutex.unlock t.mutex);
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    List.iter
      (fun f -> Queue.add (batch_ctx, submit_deadline, wrap f) t.pending)
      tasks;
    Condition.broadcast t.nonempty;
    (* The caller is a lane too: drain jobs (from this or any concurrent
       batch — that is what makes nested calls deadlock-free) until this
       batch is complete. *)
    let rec help () =
      match Queue.take_opt t.pending with
      | Some (ctx, deadline, job) ->
        Mutex.unlock t.mutex;
        run_job ~ctx ~deadline job;
        Mutex.lock t.mutex;
        if !remaining > 0 then help ()
      | None -> if !remaining > 0 then begin
          Condition.wait batch_done t.mutex;
          help ()
        end
    in
    help ();
    Mutex.unlock t.mutex;
    if batch_t0 > 0 then begin
      Obs.Metric.incr m_batches;
      Obs.Span.record ~cat:"parallel" ~trace_id:batch_ctx.Obs.Span.trace
        ~span_id:batch_ctx.Obs.Span.span ~parent_id:submit_ctx.Obs.Span.span
        ~name:"pool.batch" ~ts_ns:batch_t0
        ~dur_ns:(Obs.now_ns () - batch_t0) ()
    end;
    (match !first_exn with Some e -> raise e | None -> ())

(* below this many indices the bookkeeping costs more than it saves *)
let seq_cutoff = 2

let for_range t n f =
  if n > 0 then begin
    if t.lanes <= 1 || n <= seq_cutoff then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let stripes = min n (t.lanes * 4) in
      run_tasks t
        (List.init stripes (fun s () ->
             let i = ref s in
             while !i < n do
               f !i;
               i := !i + stripes
             done))
    end
  end

let map_range t n f =
  if n <= 0 then [||]
  else begin
    (* seed the array with [f 0] so no dummy element is needed *)
    let res = Array.make n (f 0) in
    if n > 1 then begin
      if t.lanes <= 1 then
        for i = 1 to n - 1 do
          res.(i) <- f i
        done
      else
        for_range t (n - 1) (fun i -> res.(i + 1) <- f (i + 1))
    end;
    res
  end

(* ---- the crash-contained batch ----

   [map_range] underneath, but a task that raises becomes a typed error
   tied to its index instead of poisoning the batch.  Each task carries
   the ["parallel.pool.task"] injection point, keyed by index so a chaos
   trigger picks the same victims for any pool size; an expired request
   deadline skips the index in O(1). *)

let context = "Parallel.Pool.map_range_r"

let map_range_r t ~label n f =
  let slot i =
    if deadline_expired () then begin
      Obs.Metric.incr m_deadline_skips;
      Error (Fault.Error.Deadline_exceeded { context })
    end
    else
      match
        Fault.point ~key:i "parallel.pool.task";
        f i
      with
      | v -> Ok v
      | exception e ->
        Obs.Metric.incr m_contained;
        Error (Fault.Error.of_exn ~context e)
  in
  let slots = map_range t n slot in
  (* one backward pass keeps both lists in index order *)
  let values = ref [] and errors = ref [] in
  for i = Array.length slots - 1 downto 0 do
    match slots.(i) with
    | Ok v -> values := v :: !values
    | Error cause ->
      errors := Fault.Error.Task_failed { label; index = i; cause } :: !errors
  done;
  match !errors with
  | [] -> Ok (Array.of_list !values)
  | errors -> Error errors
