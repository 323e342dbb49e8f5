(** A document whose encoding columns live behind a buffer pool — the §6
    "disk-based RDBMS" scenario.

    The post, attribute, and size columns are laid out as page-aligned
    extents on consecutive disk pages; every column access goes through a
    shared {!Buffer_pool}.  The same extent geometry is used by the
    durable page files of [Scj_store], which construct a [t] over a
    file-backed pool via {!attach}.
    The attribute column is stored as prefix sums (n + 1 entries, entry
    [j] = number of attributes with [pre < j]), so attribute tests cost
    two reads and the copy phase can emit whole attribute-free runs with
    bulk fills while faulting {e only} prefix pages.  The staircase joins
    run the in-memory join's partition kernels
    ({!Scj_core.Staircase.desc_scan}, {!Scj_core.Staircase.anc_scan} and
    the run finder {!Scj_encoding.Doc.append_nonattr_runs}) a page at a
    time: each post or prefix page a partition needs is pinned once per
    visit and the kernel runs over it, so a join's pool accesses grow
    with the pages it covers, not with the nodes or the binary-search
    probes.

    - {!desc} is the staircase join with estimation-based skipping: a
      comparison-free copy phase of [post c - pre c] nodes against the
      prefix column (two point reads settle an attribute-free range),
      then a short sequential scan (at most [height] post-column
      comparisons) — page faults are bounded by the pages the result
      and context actually live on;
    - {!index_desc} is the tree-unaware per-context-node plan: for each
      context node a binary search (random probes) plus a bounded range
      scan — the access pattern of the Fig. 3 index plan.

    Both return exactly the same node sequence; the interesting output is
    {!Buffer_pool.stats}.

    The joins take an optional {!Scj_trace.Exec.t}: the shared kernels
    book the work counters, so they equal the in-memory
    estimation-mode staircase join's, and
    {!Scj_trace.Exec.checkpoint} runs between partition scans — never
    while a page is pinned — so a deadline abort always leaves the pool
    with zero outstanding pins.  A [t] is safe to share across reader
    domains; use {!with_tally} to give each concurrent query its own
    pool-traffic accounting over the shared pool. *)

type t

(** [load ?page_ints ?stripes ?fault_latency ~capacity doc] lays the
    columns out on pages of [page_ints] integers (default 1024 ≈ an 8 KB
    page of 64-bit ranks) and attaches a pool of [capacity] frames,
    latch-striped [stripes] ways (default 1); [fault_latency] is the
    simulated per-fault device latency in seconds (default 0).
    @raise Invalid_argument if [capacity] cannot hold one query's working
    set — post, attr-prefix and size pages may be live at once, so at
    least 3 frames per stripe are required. *)
val load :
  ?page_ints:int ->
  ?stripes:int ->
  ?fault_latency:float ->
  capacity:int ->
  Scj_encoding.Doc.t ->
  t

(** [default_capacity ~page_ints n] — the pool size a paged rendition of
    an [n]-node document gets unless its caller names one: a tenth of
    the pages of its three extents, never fewer than 24 frames. *)
val default_capacity : page_ints:int -> int -> int

(** [image_store ?page_ints ?fault_latency doc] — the three page-aligned
    extents of [doc] laid out as an in-memory simulated-disk store
    (what {!load} builds its pool over).  Exposed so a multi-document
    catalog can {!Buffer_pool.Store.concat} several images (and
    file-backed stores) behind one shared pool. *)
val image_store : ?page_ints:int -> ?fault_latency:float -> Scj_encoding.Doc.t -> Buffer_pool.Store.t

(** [attach ?base_page ~n ~height pool] wraps a pool whose store holds
    the three page-aligned extents ([post | attr_prefix | size], each
    extent starting on a page boundary) for a document of [n] nodes
    starting at pool page [base_page] (default 0) — the hook a durable
    store uses to expose its page file without re-encoding, and the hook
    a multi-document catalog uses to give each document a view of its
    own slice of one shared pool.
    @raise Invalid_argument if the pool's capacity cannot hold one
    query's working set (3 frames per stripe) or [base_page < 0]. *)
val attach : ?base_page:int -> n:int -> height:int -> Buffer_pool.t -> t

val pool : t -> Buffer_pool.t

val n_nodes : t -> int

(** [with_tally t tally] — a view over the {e same} shared pool that
    additionally records this reader's hits/misses in [tally].  O(1);
    how the query service attributes pool traffic to individual
    queries. *)
val with_tally : t -> Buffer_pool.Tally.t -> t

(** Paged accessors (each may fault a page in). *)
val post : t -> int -> int

val size : t -> int -> int

val is_attribute : t -> int -> bool

(** Staircase join, descendant axis, with estimation-based skipping
    (bulk copy phase + bounded scan), over paged columns.  Counters on
    [exec.stats] match in-memory [Staircase.desc] in [Estimation] mode. *)
val desc : ?exec:Scj_trace.Exec.t -> t -> Scj_encoding.Nodeseq.t -> Scj_encoding.Nodeseq.t

(** The per-context-node index plan over the same pages (range delimited
    by Equation (1), as in §2.1 line 7). *)
val index_desc : ?exec:Scj_trace.Exec.t -> t -> Scj_encoding.Nodeseq.t -> Scj_encoding.Nodeseq.t

(** Staircase join, ancestor axis, with subtree hops. *)
val anc : ?exec:Scj_trace.Exec.t -> t -> Scj_encoding.Nodeseq.t -> Scj_encoding.Nodeseq.t

(** The tree-unaware ancestor plan: for every context node the index can
    only delimit on pre, so the whole document prefix is scanned — per
    context node.  This is where the disk-based comparison bites. *)
val index_anc : ?exec:Scj_trace.Exec.t -> t -> Scj_encoding.Nodeseq.t -> Scj_encoding.Nodeseq.t
