(** A directory of named documents behind one shared buffer pool — the
    multi-tenant layer over {!Db}.

    The staircase-join kernel makes one document fast; a server fleet
    hosts many.  A catalog opens every document of a directory (store
    directories, [.xml] and [.scj] files) as a {!Db.t} and lays all of
    their page extents into {e one} shared, size-bounded
    {!Scj_pager.Buffer_pool} ({!Scj_pager.Buffer_pool.Store.concat}):
    document [i]'s extents occupy pool pages
    [base_page_i .. base_page_i + pages_i), and each [Db] gets a
    {!Scj_pager.Paged_doc.attach} view of its own slice.  Store-backed
    documents whose page geometry matches are served straight off their
    page files (zero re-encoding, faults are checksum-verified preads);
    everything else is paged from an in-memory image.

    Because the pool is shared, one tenant's cold scan competes with
    every other tenant's working set — which is why the pool's
    scan-resistant {!Scj_pager.Buffer_pool.policy-Two_q} policy exists;
    pass [~policy] to choose it (the default stays
    {!Scj_pager.Buffer_pool.policy-Lru} for A/B comparison).

    Document ids are the directory-entry names (store directory name,
    or file basename without extension); the catalog orders them
    lexicographically — the {e document order} cross-corpus queries
    merge in.  The shared pool serves the open-time rendition of every
    document; a later write gives that document's {!Scj_server.Server}
    a rendition paged by its own [Db] ({!Db.paged}), never through the
    shared pool. *)

module Doc = Scj_encoding.Doc

type t

(** [open_dir dir] opens every document in [dir] — subdirectories that
    are stores, plus [.xml]/[.scj] files — behind one shared pool.
    [policy] (default [Lru]) selects the eviction policy; [page_ints]
    (default 1024) is the page size for in-memory images {e and} the
    geometry store-backed documents must match to be served off their
    page files; [capacity] (default ~10% of the corpus' pages, min 24)
    bounds the shared pool; [stripes] (default 1, clamped so each
    stripe keeps >= 3 frames) stripes its latches; [fault_latency]
    (seconds) applies to in-memory images only.  Errors: [Io] for a
    missing/empty directory or any member that fails to open (the
    message names the member). *)
val open_dir :
  ?policy:Scj_pager.Buffer_pool.policy ->
  ?page_ints:int ->
  ?stripes:int ->
  ?capacity:int ->
  ?fault_latency:float ->
  ?strategy:Scj_xpath.Eval.strategy ->
  string ->
  (t, Scj_error.Error.t) result

(** [of_dbs entries] builds a catalog over already-open handles
    [(id, db)].  Ids are sorted; each handle's paged memo is replaced
    with its shared-pool view ({!Db.attach_paged}).
    @raise Invalid_argument on an empty list or duplicate ids. *)
val of_dbs :
  ?policy:Scj_pager.Buffer_pool.policy ->
  ?page_ints:int ->
  ?stripes:int ->
  ?capacity:int ->
  ?fault_latency:float ->
  (string * Db.t) list ->
  t

(** [of_docs entries] — {!of_dbs} over fresh in-memory handles
    ({!Db.of_doc}); how tests and benches build a corpus without
    touching the file system. *)
val of_docs :
  ?policy:Scj_pager.Buffer_pool.policy ->
  ?page_ints:int ->
  ?stripes:int ->
  ?capacity:int ->
  ?fault_latency:float ->
  ?strategy:Scj_xpath.Eval.strategy ->
  (string * Doc.t) list ->
  t

(** The one pool every document's faults and hits land in. *)
val pool : t -> Scj_pager.Buffer_pool.t

val n_docs : t -> int

(** Document ids in document (lexicographic) order. *)
val ids : t -> string list

val db : t -> string -> Db.t option

(** The document's shared-pool view (same object the [Db]'s paged memo
    holds). *)
val paged : t -> string -> Scj_pager.Paged_doc.t option

(** First pool page of the document's extents. *)
val base_page : t -> string -> int option

(** [(id, db)] pairs in document order. *)
val to_list : t -> (string * Db.t) list

(** Close every member handle (the shared pool needs no teardown). *)
val close : t -> unit
