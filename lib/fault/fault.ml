module Error = Error
module Inject = Inject
module Retry = Retry

let enabled () = Atomic.get Inject.enabled

let key_of_string = Hashtbl.hash

let point ?key name =
  if Atomic.get Inject.enabled then
    match Inject.check ?key name with
    | Some k -> raise (Error.E (Error.Injected { point = name; key = k }))
    | None -> ()

let protect ~context f =
  match f () with
  | v -> Ok v
  | exception e -> Error (Error.of_exn ~context e)
