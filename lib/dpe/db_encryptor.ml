module Value = Minidb.Value
module Schema = Minidb.Schema
module Table = Minidb.Table
module Database = Minidb.Database

let m_rows = Obs.Registry.counter "kitdpe.dpe.db_encryptor.rows"
let m_cells = Obs.Registry.counter "kitdpe.dpe.db_encryptor.cells"
let m_table = Obs.Registry.sketch "kitdpe.dpe.db_encryptor.table"
let m_prewarm = Obs.Registry.sketch "kitdpe.dpe.db_encryptor.prewarm"

let class_label = function
  | Scheme.C_ope -> "ope"
  | Scheme.C_ope_join _ -> "ope_join"
  | Scheme.C_det -> "det"
  | Scheme.C_det_join _ -> "det_join"
  | Scheme.C_prob -> "prob"
  | Scheme.C_hom -> "hom"

let column_cipher_type enc name : Value.ty =
  match Scheme.class_for_attr (Encryptor.scheme enc) name with
  | Scheme.C_ope | Scheme.C_ope_join _ -> Value.Tint
  | Scheme.C_det | Scheme.C_det_join _ | Scheme.C_prob | Scheme.C_hom -> Value.Tstring

let encrypt_schema enc (s : Schema.t) =
  Schema.make
    ~rel:(Encryptor.encrypt_rel enc s.Schema.rel)
    (List.map
       (fun (c : Schema.column) ->
         (Encryptor.encrypt_attr_name enc c.Schema.name,
          column_cipher_type enc c.Schema.name))
       s.Schema.columns)

(* Rows are encrypted across the pool.  Determinism contract: row [i] of
   relation [rel] draws all randomness from [Encryptor.row_rng enc ~rel i]
   and each column encoder closes over immutable key material, so the
   ciphertext table depends only on the master key and the plaintext —
   not on the pool size, the chunk shape or the encryption order.  Key
   resolution (the only mutation of encryptor state) happens sequentially
   in [column_encoder] before any domain starts.

   Containment contract: a row whose encryption raises is retried up to
   [retries] times with a fresh DRBG derived from the attempt number
   (still a pure function of the master key and (rel, i, attempt), so
   retried output is deterministic too); a row that exhausts its
   attempts becomes a [Row_failed] report and is dropped from the
   table — the batch never hangs and never silently loses a row. *)
let encrypt_table_r ?pool ?(retries = 0) enc table =
  let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
  let plain_schema = Table.schema table in
  let names = Schema.column_names plain_schema in
  let cipher_schema = encrypt_schema enc plain_schema in
  let rel = plain_schema.Schema.rel in
  let encoders =
    Array.of_list
      (List.map (fun name -> Encryptor.column_encoder enc ~rel ~attr:name) names)
  in
  let rows = Array.of_list (Table.rows table) in
  let t0 = Obs.time_start () in
  let encrypt_row i row =
    (* [mapi_array] is a plain (deadline-blind) combinator, so the row
       closure enforces the request deadline itself: rows starting after
       expiry are abandoned as typed errors, releasing the lane *)
    if Parallel.Pool.deadline_expired () then
      Error
        (Fault.Error.Deadline_exceeded { context = "Dpe.Db_encryptor.encrypt_row" })
    else begin
      let attempt_row ~attempt =
        let k = attempt - 1 in
        match
          (* the row injection point fires on the first attempt only, so a
             bounded retry demonstrably recovers from transient faults;
             faults injected deeper (keyed on plaintext) recur on every
             attempt and exhaust the budget, as a persistent fault should *)
          if k = 0 then Fault.point ~key:i "dpe.db_encryptor.row";
          let rng = Encryptor.row_rng ~attempt:k enc ~rel i in
          Array.mapi (fun c v -> encoders.(c) ~rng ~row:i v) row
        with
        | cipher -> Ok cipher
        | exception e ->
          Error (Fault.Error.of_exn ~context:"Dpe.Db_encryptor.encrypt_row" e)
      in
      match
        Fault.Retry.run_n
          ~policy:(Fault.Retry.immediate (retries + 1))
          ~should_abort:Parallel.Pool.deadline_expired
          ~key:(Printf.sprintf "%s/row/%d" rel i)
          attempt_row
      with
      | Ok cipher -> Ok cipher
      | Error (attempts, cause) ->
        Error (Fault.Error.Row_failed { rel; row = i; attempts; cause })
    end
  in
  let results = Parallel.Pool.mapi_array pool encrypt_row rows in
  let cipher_rows = ref [] and errors = ref [] in
  for i = Array.length results - 1 downto 0 do
    match results.(i) with
    | Ok row -> cipher_rows := row :: !cipher_rows
    | Error e -> errors := e :: !errors
  done;
  let cipher_rows = !cipher_rows and errors = !errors in
  if t0 > 0 then begin
    (* bulk accounting after the parallel map: rows and cells overall,
       plus cells broken down by the constant class that encrypted them
       ("which scheme did the work?") *)
    let nrows = List.length cipher_rows in
    Obs.Metric.add m_rows nrows;
    Obs.Metric.add m_cells (nrows * List.length names);
    List.iter
      (fun name ->
        Obs.Metric.add
          (Obs.Registry.counter
             ("kitdpe.dpe.db_encryptor.cells."
             ^ class_label (Scheme.class_for_attr (Encryptor.scheme enc) name)))
          nrows)
      names;
    let dt = Obs.now_ns () - t0 in
    Obs.observe_latency m_table dt;
    Obs.Span.record ~cat:"dpe"
      ~name:(Printf.sprintf "encrypt_table/%s(rows=%d)" rel (Array.length rows))
      ~ts_ns:t0 ~dur_ns:dt ()
  end;
  (Table.of_rows cipher_schema cipher_rows, errors)

let encrypt_database_r ?pool ?retries enc db =
  let db, errors =
    List.fold_left
      (fun (acc, errs) table ->
        let cipher, table_errs = encrypt_table_r ?pool ?retries enc table in
        (Database.add_table acc cipher, List.rev_append table_errs errs))
      (Database.empty, []) (Database.tables db)
  in
  (db, List.rev errors)

let encrypt_database ?pool enc db =
  match encrypt_database_r ?pool enc db with
  | cipher, [] -> cipher
  | _, e :: _ -> raise (Fault.Error.E e)

(* ---- HOM noise prewarm ----

   The r^n factor of every HOM cell is a pure function of the cell's
   derivation label (Encryptor.hom_cell_key), so idle pool lanes can
   compute the expensive exponentiations before the bulk pass and park
   them in the encryptor's noise pool.  Correctness never depends on the
   prewarm: a cell whose fill failed, was evicted or never ran simply
   recomputes its factor from the same per-label DRBG during
   [encrypt_table_r] — bit-identical output, just slower.  That is also
   the containment story: a fill aborted by the armed
   [crypto.paillier.noise_pool] point surfaces in the [_r] error report
   and degrades to a pool miss, never to a wrong ciphertext. *)

let hom_cells enc db =
  List.concat_map
    (fun table ->
      let s = Table.schema table in
      let rel = s.Schema.rel in
      let nrows = List.length (Table.rows table) in
      List.concat_map
        (fun (c : Schema.column) ->
          match Scheme.class_for_attr (Encryptor.scheme enc) c.Schema.name with
          | Scheme.C_hom ->
            List.init nrows (fun row ->
                Encryptor.hom_cell_key ~rel ~row ~attr:c.Schema.name)
          | _ -> [])
        s.Schema.columns)
    (Database.tables db)

let prewarm_hom_noise_r ?pool ?capacity enc db =
  let work = Array.of_list (hom_cells enc db) in
  if Array.length work = 0 then (0, [])
  else begin
    let pool = match pool with Some p -> p | None -> Parallel.Pool.global () in
    (* both mutations of encryptor state happen before going parallel *)
    let noise_pool = Encryptor.enable_noise_pool ?capacity enc in
    let pub, _ = Encryptor.paillier enc in
    let t0 = Obs.time_start () in
    let failures =
      Parallel.Pool.for_range_r pool (Array.length work) (fun i ->
          let key = work.(i) in
          Crypto.Paillier.noise_fill noise_pool pub ~key
            (Encryptor.hom_noise_rng enc key))
    in
    if t0 > 0 then Obs.observe_latency m_prewarm (Obs.now_ns () - t0);
    (Array.length work - List.length failures, List.map snd failures)
  end

let decrypt_table enc ~plain_schema table =
  let names = Schema.column_names plain_schema in
  let exception Stop of string in
  let decrypt_row row =
    Array.of_list
      (List.mapi
         (fun i name ->
           match Encryptor.decrypt_value enc ~attr:name row.(i) with
           | Ok v -> v
           | Error e -> raise (Stop e))
         names)
  in
  match Table.map_rows decrypt_row plain_schema table with
  | t -> Ok t
  | exception Stop e -> Error e
