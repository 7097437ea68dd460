(* dpe_serve — the always-on encrypted-mining server.

     dpe_serve --port 7464 --passphrase secret
     dpe_serve --port 0 --queue 64 --deadline-ms 2000 --metrics-out metrics.txt

   Prints "dpe_serve listening on <host>:<port>" once bound (port 0
   picks an ephemeral port — scripts parse this line), then serves
   until SIGTERM/SIGINT, drains gracefully, and exits 0.  One compute
   thread runs encrypt/mine in admission order; health and stats are
   answered as they arrive.  Fault injection is armed from
   KITDPE_FAULTS exactly like the CLI. *)

open Cmdliner

let serve host port queue master deadline_ms drain_grace_ms metrics_out obs =
  if obs then Obs.set_enabled true;
  let cfg =
    { Server.Engine.host;
      port;
      queue_capacity = queue;
      master;
      default_deadline_ms = (if deadline_ms > 0 then Some deadline_ms else None);
      drain_grace_ms;
      metrics_path = metrics_out }
  in
  match
    Server.Engine.run cfg ~on_ready:(fun t ->
        Printf.printf "dpe_serve listening on %s:%d\n%!" host
          (Server.Engine.port t))
  with
  | Ok () ->
    Printf.printf "dpe_serve drained\n%!";
    0
  | Error e ->
    Printf.eprintf "dpe_serve: %s\n%!" (Fault.Error.to_string e);
    1

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let port_arg =
  Arg.(value & opt int 7464
       & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 = ephemeral).")

let queue_arg =
  Arg.(value & opt int 64
       & info [ "queue" ] ~docv:"N"
           ~doc:"Admission-queue capacity before load shedding.")

let master_arg =
  Arg.(value & opt string "kitdpe-demo"
       & info [ "p"; "passphrase" ] ~docv:"PASS"
           ~doc:"Master passphrase; tenants get HKDF-derived subkeys.")

(* the wire's [deadline_ms] bound applies to the default as well *)
let deadline_ms =
  let parse s =
    match int_of_string_opt s with
    | Some ms when ms >= 0 && ms <= Server.Proto.max_deadline_ms -> Ok ms
    | _ ->
      Error
        (`Msg
          (Printf.sprintf "expected an integer in 0..%d, got %S"
             Server.Proto.max_deadline_ms s))
  in
  Arg.conv (parse, Format.pp_print_int)

let deadline_arg =
  Arg.(value & opt deadline_ms 0
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Default per-request deadline (0 = none, at most 24 h).")

let drain_grace_arg =
  Arg.(value & opt int 5000
       & info [ "drain-grace-ms" ] ~docv:"MS"
           ~doc:"Bound on the drain's session-close phase: peers still \
                 mid-frame or still sending past it are force-closed.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write an OpenMetrics snapshot at drain.")

let obs_arg =
  Arg.(value & flag
       & info [ "obs" ] ~doc:"Enable telemetry (also via KITDPE_OBS=1).")

let cmd =
  Cmd.v
    (Cmd.info "dpe_serve" ~version:"1.0.0"
       ~doc:"Resilient always-on server for encrypted-log mining \
             (deadlines, backpressure, retry, graceful drain).")
    Term.(const serve $ host_arg $ port_arg $ queue_arg
          $ master_arg $ deadline_arg $ drain_grace_arg $ metrics_arg $ obs_arg)

let () = exit (Cmd.eval' cmd)
