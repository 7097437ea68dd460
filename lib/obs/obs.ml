module Metric = Metric
module Sketch = Sketch
module Registry = Registry
module Slot = Slot
module Span = Span
module Window = Window
module Trace = Trace
module Json = Json
module Export = Export

let set_enabled v = Atomic.set Control.enabled v
let is_enabled = Control.is_on
let now_ns = Control.now_ns
let time_start () = if is_enabled () then Control.now_ns () else 0

(* the gate comes first: the optional ids box their arguments *)
let observe_latency sketch dt =
  if Control.is_on () then begin
    let ctx = Span.current () in
    Sketch.observe sketch ~trace_id:ctx.Span.trace ~span_id:ctx.Span.span dt
  end
