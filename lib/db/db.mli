(** One handle over a document, however it is stored — the unified
    session API.

    [Db.open_ path] accepts any of the three document sources the tools
    used to open through three different code paths:

    - a {e store directory} (contains [pages.scj]): opened through
      {!Scj_store.Store.open_} — WAL recovery, pending-mutation replay,
      a file-backed buffer pool with zero re-encoding;
    - a {e codec file} ([SCJDOC1] magic): decoded with
      {!Scj_encoding.Codec};
    - anything else: parsed as XML.

    The handle memoizes the derived artifacts (dataguide, paged
    rendition, planner session) and keeps them consistent across
    {!apply}: a mutation installs the new rendition, splices the guide
    once, drops the paged memo (readers holding the old rendition keep
    it — renditions are immutable) and evolves the session
    incrementally ({!Scj_xpath.Eval.evolve}).

    Concurrency: the handle itself is thread-safe (memos under a lock),
    but the {!session} it hands out carries mutable caches and must stay
    on one domain.  The query service ({!Scj_server.Server}) builds
    per-worker sessions; at start and after each {!apply} it commits, it
    snapshots {!doc}, {!guide} and {!paged} as the next rendition. *)

module Doc = Scj_encoding.Doc
module Update = Scj_encoding.Update

type t

(** [open_ ?strategy path] opens a store directory, a codec
    file, or an XML file.  Errors: [Io] (missing path), [Parse] (bad
    XML), [Corrupt]/[Incomplete]/[Recovery]/[Validation] from the store
    layer. *)
val open_ : ?strategy:Scj_xpath.Eval.strategy -> string -> (t, Scj_error.Error.t) result

(** Wrap an in-memory document (no backing; {!apply} mutates only the
    handle). *)
val of_doc : ?strategy:Scj_xpath.Eval.strategy -> Doc.t -> t

(** Wrap an already-open store (ownership transfers: {!close} closes
    it). *)
val of_store :
  ?strategy:Scj_xpath.Eval.strategy -> Scj_store.Store.t -> (t, Scj_error.Error.t) result

(** [true] iff [path] looks like a store directory. *)
val is_store_dir : string -> bool

(** The current document rendition. *)
val doc : t -> Doc.t

(** The store behind the handle, when it is store-backed. *)
val store : t -> Scj_store.Store.t option

(** The strategy the handle was opened with, if any. *)
val strategy : t -> Scj_xpath.Eval.strategy option

(** The strong dataguide (path summary) for the current rendition.
    Store-backed handles serve {!Scj_store.Store.guide} (deserialized
    from the persisted extent, no document rescan); others build once
    and maintain the memo incrementally across {!apply}.  The planner
    {!session} is seeded with this guide. *)
val guide : t -> Scj_guide.Guide.t

(** One human-readable line about the backing ("durable store, zero
    re-encoding", …). *)
val describe : t -> string

(** The paged rendition of the current document, memoized: file-backed
    for a store, an in-memory page image otherwise.  [page_ints]
    (default 1024) applies to in-memory images only; [capacity] defaults
    to {!Scj_pager.Paged_doc.default_capacity}. *)
val paged : ?page_ints:int -> ?stripes:int -> ?capacity:int -> t -> Scj_pager.Paged_doc.t

(** Replace the paged memo — for callers that built a special rendition
    (fault-latency simulation, tiny pages). *)
val attach_paged : t -> Scj_pager.Paged_doc.t -> unit

(** The planner session for the current document, memoized.  Built over
    the paged rendition only if one is already materialized.  Not safe
    to share across domains. *)
val session : t -> Scj_xpath.Eval.session

(** [query t src] parses and evaluates [src] against the current
    rendition — [Db.open_ path] + [Db.query db q] is the whole
    quickstart. *)
val query :
  ?exec:Scj_trace.Exec.t ->
  ?context:Scj_encoding.Nodeseq.t ->
  t ->
  string ->
  (Scj_encoding.Nodeseq.t, Scj_error.Error.t) result

(** [apply t op] commits a structural update: durably (WAL-logged
    through the store) when store-backed, in memory otherwise.  On
    success the handle's rendition, paged memo and session are brought
    forward. *)
val apply : t -> Update.op -> (Update.applied, Scj_error.Error.t) result

(** Committed mutations the backing store has not yet folded into its
    page file (0 for non-store handles). *)
val pending_mutations : t -> int

(** Fold pending mutations into the store's page file (no-op for
    non-store handles).  See {!Scj_store.Store.checkpoint} for the
    quiescence requirement. *)
val checkpoint : t -> unit

val close : t -> unit
