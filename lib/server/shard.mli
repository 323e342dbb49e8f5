(** Sharded multi-document serving: one {!Server} per catalog document,
    routed by document id, over one shared buffer pool.

    A shard wraps a {!Scj_db.Catalog} — many documents, one
    size-bounded pool — and gives each document its own {!Server.t}:

    - {e routing}: {!submit}/{!run} address one document by id;
    - {e per-document epochs}: each tenant's renditions and epoch
      counter advance independently, so a [Write] with an [expect]
      epoch CAS on document A can never conflict with a write to
      document B;
    - {e cross-corpus queries}: {!run_all} fans one query out to every
      tenant (each accepted query is drained by
      {!Scj_frag.Morsel.Pool.async} jobs on the shared morsel pool —
      every server draws from the same domain set) and merges the
      outcomes in (doc id, document-order) order;
    - {e shared cache}: every tenant's page traffic lands in the
      catalog's one pool; per-tenant hit rates come from each server's
      tally totals ({!stats}), the pool totals from {!pool_stats}.
      With the pool's {!Scj_pager.Buffer_pool.policy-Two_q} policy one
      tenant's cold scan cannot displace another's working set. *)

module Catalog = Scj_db.Catalog

type t

(** [create ?workers ?queue_bound ?deadline catalog] starts one server
    per catalog document (parameters as {!Server.create}, applied to
    each).  All servers share the process-wide morsel pool. *)
val create : ?workers:int -> ?queue_bound:int -> ?deadline:float -> Catalog.t -> t

val catalog : t -> Catalog.t

val n_docs : t -> int

(** Document ids in document order. *)
val ids : t -> string list

val server : t -> string -> Server.t option

(** The document's current rendition epoch ([None]: unknown id). *)
val epoch : t -> string -> int option

(** Route to one document; [None] when the id is unknown. *)
val submit : ?deadline:float -> t -> doc:string -> Server.query -> Server.admission option

(** [run t ~doc q] = submit + await on [doc]'s server; an unknown id
    fails with [Validation]. *)
val run : ?deadline:float -> t -> doc:string -> Server.query -> Server.outcome

(** [run_all t q] — the [doc id] wildcard: submit [q] to every tenant
    (fan-out over the shared morsel pool), await in document order.
    Concatenating the [Done] replies' results reproduces per-document
    serial evaluation concatenated in document order. *)
val run_all : ?deadline:float -> t -> Server.query -> (string * Server.outcome) list

(** Per-tenant service stats, in document order — qps, hit rates
    (tally totals) and latency histograms per tenant. *)
val stats : t -> (string * Server.service_stats) list

(** The shared pool's (hits, faults, evictions). *)
val pool_stats : t -> int * int * int

(** Shut every tenant server down (see {!Server.shutdown}). *)
val shutdown : ?drain:bool -> t -> unit
