(** Resident per-tenant crypto state for the always-on server.

    One master passphrase; tenant [ns] works under
    [Crypto.Keyring.derive master ns], so tenants share no derivable
    key material.  Encryptors are cached per (tenant, measure) for the
    process lifetime — OPE/DET memo caches stay warm across requests.

    The scheme of a (tenant, measure) pair is fixed by the first log it
    sees; later queries outside its capabilities surface as typed error
    responses.

    Metrics: [kitdpe.server.tenants] (gauge — resident encryptors). *)

type t

val create : master:string -> t
(** [master] is the deployment passphrase, stretched via
    [Keyring.of_passphrase]. *)

val encryptor :
  t -> tenant:string -> measure:Distance.Measure.t -> Sqlir.Ast.query list
  -> Dpe.Encryptor.t
(** Get-or-create the resident encryptor for (tenant, measure); the log
    is only consulted on first creation (scheme selection). *)
