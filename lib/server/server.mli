(** A concurrent query service with snapshot isolation over one
    {!Scj_db.Db} handle.

    The paper's kernel answers one axis step at a time; a DBMS answers
    many at once — and, with the writable store, accepts updates while
    doing so.  A fixed pool of worker domains drains a bounded
    submission queue of XPath/axis-step/write queries.

    {2 Snapshot isolation}

    The document lives in {e renditions}: immutable (epoch, doc,
    dataguide, paged image) snapshots of the {!Scj_db.Db}.  A reader
    pins the current rendition with one pointer read and evaluates
    entirely against it — it never observes a partially renumbered
    document, however many commits land while it runs.  Writes
    ({!query-Write}) are serialized through a single-writer mutex: the
    update is validated, committed through the Db (WAL-logged when
    store-backed; the Db splices its one guide and pages the new
    document), and the new rendition is installed with one pointer swap
    — the commit point.  An optional [expect] epoch turns a write into a
    compare-and-swap: a mismatch fails with {!Scj_error.Error.Conflict}
    and commits nothing.

    A worker whose rendition changed opens a fresh planner session over
    the new rendition's guide (shared by every worker, never mutated)
    and a fresh query cache.  No rendition links to its predecessor: one
    is reclaimed once no worker and no in-flight query holds it, so at
    most workers + in-flight queries renditions stay reachable, however
    many commits land.

    {2 Isolation and accounting}

    - every query runs under its own {!Scj_trace.Exec.t} (fresh
      counters) and its own {!Scj_pager.Buffer_pool.Tally.t};
      the service merges them into service-level totals — on an
      unmutated rendition {e pool hits+faults = Σ per-query tallies},
      exactly, timed-out and failed queries included;
    - queries carry a {e deadline}: polled between partition scans, so
      an overrunning query aborts at a partition boundary — never while
      a page is pinned — and reports {!outcome-Timed_out};
    - submission is {e backpressured}: beyond the queue bound {!submit}
      answers {!admission-Overloaded}; after {!shutdown} it answers
      {!admission-Stopped} — distinct outcomes, both counted as
      rejected. *)

module Nodeseq = Scj_encoding.Nodeseq
module Update = Scj_encoding.Update
module Stats = Scj_stats.Stats
module Histogram = Scj_stats.Histogram

type t

(** What a client can ask for. *)
type query =
  | Path of string
      (** an XPath query; parsed once per worker — workers cache
          prepared queries per (language, strategy, source) *)
  | Xquery of string
      (** an XQuery-lite FLWOR expression, compiled through the plan IR
          ({!Scj_xquery.Xq_compile}) and cached like [Path]; the reply
          holds the document nodes of the result (atoms and constructed
          trees are not addressable and are dropped) *)
  | Step of [ `Desc | `Anc ] * Nodeseq.t
      (** one staircase-join step over the pinned rendition's {e paged}
          image — the disk-based workload whose fault latencies
          concurrent queries overlap; a context rank at or past the
          rendition's node count fails as [Validation] *)
  | Write of { op : Update.op; expect : int option }
      (** a structural update; [expect = Some e] commits only if the
          current epoch is still [e] (optimistic concurrency) *)

type reply = {
  result : Nodeseq.t;
      (** for writes: the spliced-in root (insert), the renamed node
          (rename), or empty (delete) *)
  work : Stats.t;  (** this query's own work counters *)
  pool_hits : int;  (** buffer-pool hits charged to this query *)
  pool_misses : int;
  latency_ms : float;
  epoch : int;  (** the rendition read (readers) or created (writes) *)
}

type outcome =
  | Done of reply
  | Timed_out  (** deadline hit; aborted at a partition boundary *)
  | Failed of Scj_error.Error.t
      (** parse errors, invalid updates and step contexts, epoch
          conflicts, store faults; any other exception the engine raises
          is [Internal] *)
  | Dropped
      (** accepted but never run: the service shut down without draining
          ({!shutdown} with [~drain:false]) *)

type handle

(** The answer to {!submit}: accepted with a handle to {!await}, refused
    by backpressure, or refused because the service is shutting down. *)
type admission = Accepted of handle | Overloaded | Stopped

(** Merged service-level statistics (a snapshot — safe to read while the
    service runs). *)
type service_stats = {
  completed : int;
  timed_out : int;
  failed : int;
  internal : int;  (** of [failed], the [Internal] errors: engine defects *)
  rejected : int;  (** submissions refused (backpressure or shutdown) *)
  dropped : int;  (** accepted queries abandoned by a no-drain shutdown *)
  commits : int;  (** writes committed *)
  epoch : int;  (** current rendition epoch *)
  latency : Histogram.t;  (** per-query latency, completed queries only *)
  work : Stats.t;  (** summed per-query work counters *)
  tally_hits : int;  (** Σ per-query pool tallies — compare {!pool_stats} *)
  tally_misses : int;
}

(** [create ?workers ?queue_bound ?deadline db] starts the worker
    domains immediately over [db]'s current rendition (epoch 0), reading
    its guide once ({!Scj_db.Db.guide}: a store's persisted extent, or
    one build) for every worker.
    [workers] defaults to {!Scj_trace.Exec.default_domains};
    [queue_bound] (default [4 * workers]) is the backpressure limit;
    [deadline] (seconds, default none) applies to queries submitted
    without their own.  To serve a special paged rendition (fault
    latency, tiny pages), attach it with {!Scj_db.Db.attach_paged}
    before [create]; renditions after a commit get the Db's default
    image ({!Scj_db.Db.paged}). *)
val create : ?workers:int -> ?queue_bound:int -> ?deadline:float -> Scj_db.Db.t -> t

val workers : t -> int

(** The current rendition epoch: 0 at start, +1 per committed write. *)
val epoch : t -> int

val db : t -> Scj_db.Db.t

(** [submit ?deadline t q] enqueues [q]; {!admission-Overloaded} means
    the queue is at its bound, {!admission-Stopped} that the service is
    shutting down — both counted in [rejected]. *)
val submit : ?deadline:float -> t -> query -> admission

(** [await h] blocks until the query finishes. Idempotent. *)
val await : handle -> outcome

(** [run ?deadline t q] = submit + await, mapping {!admission-Overloaded} to
    [Failed Overloaded] and {!admission-Stopped} to [Failed Shutdown]. *)
val run : ?deadline:float -> t -> query -> outcome

val stats : t -> service_stats

(** The {e current} rendition's pool (hits, faults, evictions) — the
    global side of the tally invariant while no write has committed. *)
val pool_stats : t -> int * int * int

(** [shutdown t] drains the queue (already-accepted queries finish; new
    submissions answer {!admission-Stopped}) and joins every worker.
    With [~drain:false] still-queued queries are not run: their handles
    resolve to {!outcome-Dropped} (so {!await} never hangs) and
    [dropped] counts them.  Idempotent. *)
val shutdown : ?drain:bool -> t -> unit
