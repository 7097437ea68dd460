(* Resident per-tenant crypto state.

   One master keyring serves every tenant: tenant [ns] works under
   [Keyring.derive master ns], so tenants share no derivable key
   material.  Encryptors are cached per (tenant, measure) for the life
   of the process — their OPE/DET memo caches stay warm across
   requests, which is the entire point of an always-on server over a
   per-invocation CLI.

   The scheme for a (tenant, measure) pair is fixed by the first log it
   sees (scheme selection needs a log profile); subsequent requests
   reuse it.  A later query outside the scheme's capabilities surfaces
   as a typed error response, never a crash. *)

module M = Distance.Measure

type t = {
  master : Crypto.Keyring.t;
  lock : Mutex.t;
  encryptors : (string * string, Dpe.Encryptor.t) Hashtbl.t;
}

let m_tenants = Obs.Registry.gauge "kitdpe.server.tenants"

let create ~master =
  { master = Crypto.Keyring.of_passphrase master;
    lock = Mutex.create ();
    encryptors = Hashtbl.create 16 }

let encryptor t ~tenant ~measure log =
  let key = (tenant, M.to_string measure) in
  Mutex.lock t.lock;
  let enc =
    match Hashtbl.find_opt t.encryptors key with
    | Some enc -> enc
    | None ->
      let scheme = Dpe.Selector.select measure (Dpe.Log_profile.of_log log) in
      let keyring = Crypto.Keyring.derive t.master tenant in
      let enc = Dpe.Encryptor.create keyring scheme in
      Hashtbl.replace t.encryptors key enc;
      Obs.Metric.set_gauge m_tenants (Hashtbl.length t.encryptors);
      enc
  in
  Mutex.unlock t.lock;
  enc
