(** A thread-safe buffer pool over a simulated disk of integer pages.

    The paper's staircase join was built into a main-memory kernel; its §6
    future work asks how it behaves in a disk-based RDBMS.  This module
    provides the substrate for that experiment — and for the concurrent
    query service built on top of it: a fixed-capacity pool of page
    frames shared by many reader domains.

    Concurrency design:

    - the frame table is {e striped}: a page maps to stripe
      [page mod stripes], each stripe has its own latch, LRU clock and
      capacity share, and eviction is local to the stripe (set-associative,
      like hash-bucket latches in a real buffer manager);
    - frames carry {e pin counts}; a pinned frame is never evicted.
      {!with_page} pins a page across a batch of reads so scan loops pay
      one latch acquisition per page instead of one per integer;
    - the simulated disk read happens {e with the stripe latch released}:
      a faulting reader inserts the frame in a loading state, concurrent
      readers of the same page wait on the stripe's condition variable,
      and readers of other pages proceed — concurrent queries overlap
      their fault latencies;
    - hit/fault/eviction counters are atomics; per-query accounting goes
      through an optional {!Tally.t} so a service can attribute pool
      traffic to individual queries ({e pool hits+faults = Σ per-query
      tallies}, exactly);
    - if every frame of a stripe is pinned at fault time the stripe
      temporarily overflows its capacity share instead of wedging; the
      excess is reclaimed by later faults once pins drain.  An optional
      [max_overflow] bounds the excess, turning exhaustion into a clean
      {!Exhausted} failure instead of unbounded growth.

    With [stripes = 1] (the default), the default {!policy-Lru} policy
    and a single thread, the pool behaves exactly like a plain LRU pool:
    same hit/fault/eviction counts and the same eviction order.

    {2 Eviction policies}

    The pool runs one of two replacement policies, chosen at {!create}:

    - {!policy-Lru} — the classic least-recently-used order (per
      stripe).  Simple, but a single cold sequential scan of a large
      document flushes every other tenant's working set;
    - {!policy-Two_q} — scan-resistant 2Q (Johnson & Shasha, simplified
      2Q), per stripe.  A faulting page first enters the FIFO queue
      {e A1in} (bounded to [max 1 (cap / 4)] frames, pinned frames
      included in the count); hits inside A1in neither reorder nor
      promote it.  When A1in exceeds its bound, its oldest frame is
      evicted and its page id goes into the {e A1out} ghost FIFO
      (bounded to [max 1 (cap / 2)] ids, lazily pruned); a page faulting
      back while its ghost entry is live has proven reuse beyond one
      scan window and is admitted into the main LRU queue {e Am}.
      Otherwise eviction takes the Am LRU tail (without a ghost entry).
      If the preferred queue has no unpinned frame the other queue is
      tried before overflowing.  Net effect: one tenant's cold scan
      churns only its small A1in share and can never displace another
      tenant's Am working set.

    The counting contract (hits/faults/evictions, tallies, the
    Σ-tallies = pool-counters invariant, [max_overflow] exhaustion) is
    policy-independent. *)

module Store : sig
  type t

  (** [create ?fault_latency ~page_ints data] wraps [data] as a disk of
      pages holding [page_ints] integers each (the last page may be
      partial).  [fault_latency] (seconds, default 0) is slept on every
      page read, simulating device latency — the quantity concurrent
      queries overlap.
      @raise Invalid_argument if [page_ints <= 0]. *)
  val create : ?fault_latency:float -> page_ints:int -> int array -> t

  (** [of_fn ?fault_latency ~page_ints ~length fetch] — a store whose
      pages are produced by [fetch page] (e.g. a checksum-verified pread
      from a {!Scj_store.Store} page file).  [length] is the total number
      of integers; [fetch] must return [page_ints] integers (fewer for
      the last page) and may raise to signal an I/O or checksum error —
      the pool never caches a failed read.
      @raise Invalid_argument if [page_ints <= 0] or [length < 0]. *)
  val of_fn :
    ?fault_latency:float -> page_ints:int -> length:int -> (int -> int array) -> t

  val page_ints : t -> int

  (** Number of pages. *)
  val n_pages : t -> int

  (** Total number of integers. *)
  val length : t -> int

  val fault_latency : t -> float

  (** [concat stores] glues several stores into one page-aligned address
      space and returns (combined store, base page of each component, in
      order) — how a multi-document catalog serves every tenant's
      extents out of one shared pool.  Component [i]'s page [p] is
      combined page [base_i + p]; each component occupies a whole number
      of pages (the padding tail of a partial last page is
      unaddressable).  A fault routes to the owning component and pays
      {e its} fault latency.
      @raise Invalid_argument on an empty list or mismatched
      [page_ints]. *)
  val concat : t list -> t * int list
end

(** Per-query pool-traffic accounting: a tally is owned by one query (one
    domain) and bumped on every pool access made on its behalf, while the
    pool's own counters aggregate atomically across all queries. *)
module Tally : sig
  type t = { mutable hits : int; mutable misses : int }

  val create : unit -> t

  val total : t -> int
end

(** Raised by {!read} / {!with_page} when a fault finds every resident
    frame of the target stripe pinned and the stripe has already consumed
    its [max_overflow] allowance.  The faulting access {e is} counted (in
    the pool counters and the caller's tally) before the raise, so the
    Σ-tallies = pool-counters invariant holds across the abort. *)
exception Exhausted of string

type t

(** The replacement policy (see the module preamble): [Lru] is the
    historical default, [Two_q] the scan-resistant alternative.  The
    two are selectable per pool for A/B comparison under identical
    workloads. *)
type policy = Lru | Two_q

val policy_to_string : policy -> string

(** ["lru"], ["2q"] (also ["two_q"]/["twoq"]); [None] otherwise. *)
val policy_of_string : string -> policy option

(** [create ?policy ?stripes ?max_overflow ~capacity store] — a pool of
    at most [capacity] resident page frames, latch-striped [stripes]
    ways (clamped to [capacity]; default 1), evicting in [policy] order
    (default [Lru] — existing callers see bit-identical behavior).
    [max_overflow] bounds how many frames past its capacity share a
    stripe may grow when every resident frame is pinned (default:
    unbounded); past the bound a fault raises {!Exhausted} instead of
    spinning or growing.

    @raise Invalid_argument if [capacity <= 0] or [max_overflow < 0]. *)
val create :
  ?policy:policy -> ?stripes:int -> ?max_overflow:int -> capacity:int -> Store.t -> t

val capacity : t -> int

val policy : t -> policy

val n_stripes : t -> int

(** Page size of the underlying store. *)
val page_ints : t -> int

(** [read pool i] returns the integer at global index [i], faulting the
    containing page in if needed.  [tally] additionally records the
    hit/miss on the calling query's own counters.
    @raise Invalid_argument when out of bounds. *)
val read : ?tally:Tally.t -> t -> int -> int

(** [with_page pool page f] pins [page], runs [f] on the page's data
    (length [page_ints], shorter for the last page), and unpins — the
    batched-read primitive: one latch acquisition and one hit/miss for
    the whole batch.  The pin is released even if [f] raises.  [f] must
    not mutate the array, and must not retain it. *)
val with_page : ?tally:Tally.t -> t -> int -> (int array -> 'a) -> 'a

(** Number of currently resident pages. *)
val resident : t -> int

(** Total outstanding pins, over all frames.  0 whenever no query is
    mid-access — the invariant the service tests assert after timeouts. *)
val pinned : t -> int

(** [is_resident pool page] — without touching LRU state. *)
val is_resident : t -> int -> bool

(** (hits, faults, evictions) since creation or the last {!reset_stats}. *)
val stats : t -> int * int * int

val reset_stats : t -> unit

(** Drop every unpinned frame (keeps counters). *)
val flush : t -> unit
