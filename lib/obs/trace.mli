(** Chrome [trace_event] exporter (JSON object format): loads directly
    in [chrome://tracing] and Perfetto.  Spans become "X" (complete)
    events with microsecond timestamps, one track per domain id, with
    trace/span/parent ids under [args], plus process/thread metadata;
    cross-domain parent edges become flow (["s"]/["f"]) arrows; the
    registry snapshot rides along under [otherData.metrics]. *)

val to_string : unit -> string
val write_file : string -> unit
