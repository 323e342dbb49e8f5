(** The durable document store: real page files behind the buffer pool.

    A store is a directory holding a page file and a write-ahead log:

    {v
      pages.scj   [superblock | post | attr_prefix | size | meta | guide]
      wal.scj     begin / page-image / mutation / commit records (see Wal)
    v}

    Every file page has the same stride — [page_ints * 8] data bytes
    plus an 8-byte CRC-32 trailer.  File page 0 is the superblock
    (format magic/version and the extent geometry); the three column
    extents follow with exactly the page-aligned geometry
    {!Scj_pager.Paged_doc.attach} expects, so pool page [p] is file page
    [p + 1] and a {!paged} rendition serves queries with {e zero
    re-encoding}: every buffer-pool fault is a checksum-verified pread.
    The meta extent holds the non-columnar remainder of the document
    (level/parent/kind columns, tag dictionary, text contents) used only
    by {!doc}.

    Durability: {!create} logs each extent as a WAL transaction (commit
    = fsync barrier), applies the images to the page file, fsyncs it and
    truncates the log — so a crash at {e any} point either leaves a log
    that {!open_} replays to the complete store, or no committed
    superblock, which {!open_} reports as a clean {!Scj_error.Error.Incomplete}.
    Never a half-readable store.

    Writes: {!apply} commits a structural update as a logical WAL record
    (format version 2); the page file lags behind until {!checkpoint}
    rewrites it as one atomic image transaction.  On reopen, {!open_}
    replays pending mutations on top of the base rendition — unless a
    committed checkpoint's superblock image already folded them in.

    Format version 3 appends the serialized strong dataguide
    ({!Scj_guide.Guide}) as a page-aligned, CRC-trailed extent after
    meta, so {!guide} reopens without rescanning the document.
    Pre-guide (v1/v2) stores open unchanged: the guide is rebuilt
    lazily (one banner line on stderr) and the next {!checkpoint}
    upgrades the file in place. *)

(** Raised when a checksum, a short read, or an inconsistent recovered
    document proves the store is lying — distinct from the clean
    [Error _] results of {!open_}.  Raised lazily: page faults verify on
    read, so a corrupt page surfaces when a query first touches it. *)
exception Corrupt of string

type t

(** The page-file name inside a store directory ("pages.scj") — the
    marker callers probe to detect a store. *)
val pages_file : string

(** [create ?io ?page_ints ?guide ~path doc] builds a store for [doc] at
    directory [path] (created if missing; an existing store there is
    overwritten) and reopens it.  [page_ints] is the page payload in
    integers (default 1024 ≈ 8 KB pages).  [guide] (default [true])
    includes the dataguide extent; [~guide:false] writes a bona-fide
    pre-guide (version-2) store — the compatibility fixture for
    exercising the lazy-rebuild path.
    @raise Invalid_argument if [doc] fails validation or [page_ints] is
    out of range.
    @raise Corrupt if the just-written store fails its own reopen. *)
val create : ?io:Io.t -> ?page_ints:int -> ?guide:bool -> path:string -> Scj_encoding.Doc.t -> t

(** [open_ ?io path] runs WAL recovery (replaying committed page images
    and collecting committed logical mutations, discarding torn tails),
    resets or trims the log, verifies the superblock, and replays
    pending mutations.  Errors: [Io] (no store there), [Incomplete]
    (creation never committed), [Validation] (unsupported format
    version), [Corrupt] (the store lies), [Recovery] (the log could not
    be replayed).  It never invents a document. *)
val open_ : ?io:Io.t -> string -> (t, Scj_error.Error.t) result

(** What recovery found when this handle was opened. *)
val last_recovery : t -> Wal.recovery

(** [apply t op] validates [op] against the current rendition, commits
    it as a logical WAL transaction (the commit fsync is the durability
    barrier) and installs the new rendition.  The page file is untouched
    until {!checkpoint}.  Serialized with every other accessor on the
    handle's lock: one writer at a time. *)
val apply : t -> Scj_encoding.Update.op -> (Scj_encoding.Update.applied, Scj_error.Error.t) result

(** Committed mutations not yet folded into the page file. *)
val pending_mutations : t -> int

(** The paged rendition of the {e current} document, memoized.  On a
    clean store this is a buffer pool straight over the page file — one
    pool per store, shared by all readers.  With pending mutations the
    page file is stale, so the current rendition is paged from an
    in-memory image instead; each {!apply} drops the memo (readers
    holding the previous rendition keep it).  [stripes] (default 8) and
    [capacity] (default {!Scj_pager.Paged_doc.default_capacity}) apply
    per memoization. *)
val paged : ?stripes:int -> ?capacity:int -> t -> Scj_pager.Paged_doc.t

(** The memoized pool behind {!paged} — on a clean store its hit/fault
    stats are real page-file reads. *)
val pool : t -> Scj_pager.Buffer_pool.t

(** The page file's column extents as a raw buffer-pool store (every
    fetch a checksum-verified pread) — the hook a multi-document catalog
    uses to put several stores behind {e one} shared pool
    ({!Scj_pager.Buffer_pool.Store.concat}).  Describes the durable
    {e base} rendition: with pending mutations the extents lag the
    current document, so catalogs fall back to an in-memory image. *)
val pool_store : t -> Scj_pager.Buffer_pool.Store.t

(** Materialize the current in-memory document (post + meta extents,
    read directly and checksum-verified, {e not} through the buffer
    pool — pool stats stay pure query traffic — plus any pending
    mutations).  Memoized.
    @raise Corrupt on checksum mismatch or failed validation. *)
val doc : t -> Scj_encoding.Doc.t

(** Checksum-walk every page of the file.  [Error] carries the first
    mismatch as {!Scj_error.Error.Corrupt}.  Note this checks the
    durable {e base} rendition; pending mutations live in the WAL. *)
val verify : t -> (unit, Scj_error.Error.t) result

(** The store's strong dataguide (path summary), memoized.  On a clean
    version-3 store it deserializes straight from the guide extent — no
    document rescan.  A pre-guide store, a guide extent that fails its
    page checksums or does not decode, or a base rendition lagging
    pending mutations rebuilds from the current document instead (one
    stderr banner in the first two cases); the next {!checkpoint}
    persists the rebuilt guide.  Once materialized, {!apply} maintains
    the memo incrementally across mutations.
    @raise Corrupt only as {!doc} does, when the document itself cannot
    be materialized. *)
val guide : t -> Scj_guide.Guide.t

(** Fold pending mutations into the page file.  Clean store: fsync +
    reset the log.  Dirty store: the complete current rendition is
    logged as {e one} WAL transaction (extents then superblock, one
    commit fsync), applied, fsynced, and the log is reset — crash-safe
    in every window.  Concurrent readers of the {e file-backed} paged
    rendition must be quiesced first (the extents move); in-memory
    renditions held by readers are unaffected. *)
val checkpoint : t -> unit

val close : t -> unit

val path : t -> string

val page_ints : t -> int

(** Dimensions of the current rendition (pending mutations included). *)
val n_nodes : t -> int

val height : t -> int

(** Total bytes pread from the page file through this handle (pool
    faults, {!doc}, {!verify}, superblock). *)
val bytes_read : t -> int
