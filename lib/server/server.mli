(** The resilient always-on encrypted-mining server (DESIGN.md §14).

    [dpe_serve] keeps tenant key material and warm caches (OPE/DET
    memos, the Paillier noise pool) resident across requests and speaks
    a length-prefixed JSON protocol ({!Frame}, {!Proto}) with four
    operations: encrypt, mine, stats, health.

    The robustness layer: per-request deadlines propagated into
    [Parallel.Pool] batches, a bounded {!Admission} queue with typed
    [Overloaded] shedding, bounded [Fault.Retry] on the per-item fault
    surfaces, graceful degradation to [partial] responses, and a
    graceful drain that answers every in-flight request before
    exiting. *)

module Frame = Frame
module Proto = Proto
module Admission = Admission
module Tenant = Tenant
module Mine_plan = Mine_plan
module Dispatch = Dispatch
module Engine = Engine
module Client = Client
