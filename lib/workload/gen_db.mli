(** Synthetic database instances.

    The paper names no public dataset; these generators are shaped after
    the workloads it cites — an astronomy archive in the SkyServer style
    (Nguyen et al. [16]) and a retail star schema for the OLAP mining
    use case [17].  All content is drawn from a seeded DRBG, so a given
    seed always produces the same instance (see DESIGN.md, substitutions). *)

type column_info = {
  cname : string;
  cty : Minidb.Value.ty;
  lo : int;           (** numeric domain lower bound (ints only) *)
  hi : int;           (** numeric domain upper bound *)
  vocab : string list;  (** categorical vocabulary (strings only) *)
  nullable : bool;
}

type rel_info = { rname : string; columns : column_info list }

type info = { rels : rel_info list }
(** Schema metadata the query generator draws attributes/constants from. *)

val skyserver_info : info
val retail_info : info

val column : info -> string -> column_info
(** Look up a column by name across relations. @raise Not_found. *)

val skyserver : seed:string -> rows:int -> Minidb.Database.t
(** photoobj(objid, ra, dec, magnitude, redshift, class, flags) and
    specobj(specid, objid, z, template) with a foreign key from specobj
    to photoobj; [rows] sizes photoobj, specobj gets about half. *)

val retail : seed:string -> rows:int -> Minidb.Database.t
(** sales(saleid, storeid, prodid, qty, amount), stores(storeid, region,
    size), products(prodid, category, price). *)

val for_log : seed:string -> rows:int -> Sqlir.Ast.query list -> Minidb.Database.t
(** The instance a log's relations point at: {!skyserver} when a query
    reads photoobj or specobj, {!retail} otherwise — the database the
    result measure needs for a bare log. *)

val generate : info -> seed:string -> rows:int -> Minidb.Database.t
(** Generic generator driven by the metadata (used by both above). *)
