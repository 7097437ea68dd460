(* Chrome trace_event exporter (JSON object format).

   Emits the span ring as "X" (complete) events with microsecond
   timestamps, one track per domain id, plus process/thread metadata
   events, so the file loads directly in chrome://tracing and Perfetto
   (ui.perfetto.dev -> Open trace file).  Each slice carries its
   trace/span/parent ids under "args".

   Causality arrows: for every event whose parent completed on a
   different domain (a pool task submitted from another lane), a flow
   start ("s") is emitted on the parent's track and a flow finish
   ("f", bp:"e") on the child's, both keyed by the child's span id —
   Perfetto draws these as request -> lane-task arrows. *)

let us ns = Json.Num (float_of_int ns /. 1e3)

let event (e : Span.event) =
  Json.Obj
    [ ("name", Json.Str e.Span.name);
      ("cat", Json.Str e.Span.cat);
      ("ph", Json.Str "X");
      ("ts", us e.Span.ts_ns);
      ("dur", us e.Span.dur_ns);
      ("pid", Json.int 1);
      ("tid", Json.int e.Span.tid);
      ("args",
       Json.Obj
         [ ("trace", Json.int e.Span.trace_id);
           ("span", Json.int e.Span.span_id);
           ("parent", Json.int e.Span.parent_id) ]) ]

let metadata ~name ~tid ~value =
  Json.Obj
    [ ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.int 1);
      ("tid", Json.int tid);
      ("args", Json.Obj [ ("name", Json.Str value) ]) ]

let flow ~ph ~id ~tid ~ts_ns ~extra =
  Json.Obj
    ([ ("name", Json.Str "submit");
       ("cat", Json.Str "flow");
       ("ph", Json.Str ph);
       ("id", Json.int id);
       ("pid", Json.int 1);
       ("tid", Json.int tid);
       ("ts", us ts_ns) ]
    @ extra)

let to_string () =
  let events = Span.events () in
  let tids =
    List.sort_uniq compare (List.map (fun e -> e.Span.tid) events)
  in
  let by_span = Hashtbl.create (List.length events) in
  List.iter
    (fun (e : Span.event) ->
      if e.Span.span_id <> 0 then Hashtbl.replace by_span e.Span.span_id e)
    events;
  (* cross-domain parent edges become flow arrows; the start point is
     clamped into the parent slice so renderers anchor it correctly *)
  let flows =
    List.concat_map
      (fun (e : Span.event) ->
        match Hashtbl.find_opt by_span e.Span.parent_id with
        | Some p when p.Span.tid <> e.Span.tid ->
          let anchor =
            min (max e.Span.ts_ns p.Span.ts_ns) (p.Span.ts_ns + p.Span.dur_ns)
          in
          [ flow ~ph:"s" ~id:e.Span.span_id ~tid:p.Span.tid ~ts_ns:anchor
              ~extra:[];
            flow ~ph:"f" ~id:e.Span.span_id ~tid:e.Span.tid ~ts_ns:e.Span.ts_ns
              ~extra:[ ("bp", Json.Str "e") ] ]
        | _ -> [])
      events
  in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.Str "ms");
         ("traceEvents",
          Json.Arr
            ((metadata ~name:"process_name" ~tid:0 ~value:"kitdpe"
             :: List.map
                  (fun tid ->
                    metadata ~name:"thread_name" ~tid
                      ~value:(Printf.sprintf "domain %d" tid))
                  tids)
            @ List.map event events @ flows));
         ("otherData",
          Json.Obj
            [ ("dropped_spans", Json.int (Span.dropped ()));
              ("metrics", Registry.to_json ()) ]) ])

let write_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ()))
