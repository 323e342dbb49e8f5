(** The unified execution context.

    Every query-path entry point in this repository — the staircase join
    and its baselines, the XPath evaluator, the fragmentation layer, the
    parallel join — takes one optional [Exec.t] instead of scattered
    [?mode]/[?stats]/[?domains] optional arguments.  The record bundles:

    - the {!skip_mode} of §3.3 (which skipping variant the staircase join
      runs with);
    - the {!Scj_stats.Stats.t} counter set every inner loop bumps;
    - an optional {!Trace.t} recording hierarchical spans for
      EXPLAIN ANALYZE (absent by default: tracing costs nothing when off);
    - the domain (worker) count of the morsel-driven join.

    [Exec.t] is immutable; its [stats] field is the shared mutable
    accumulator.  Derive a variant with {!with_mode} rather than
    rebuilding, so the stats and tracer keep accumulating in one place. *)

(** The skipping variants of §3.3 (canonical definition — re-exported by
    {!Scj_core.Staircase} for compatibility). *)
type skip_mode =
  | No_skipping  (** Algorithm 2 verbatim: scan the whole partition. *)
  | Skipping  (** Algorithm 3: terminate/hop on the first non-result. *)
  | Estimation  (** Algorithm 4: Equation-(1) comparison-free copy phase. *)
  | Exact_size  (** footnote 5: exact subtree sizes, no scan phase. *)

val skip_mode_to_string : skip_mode -> string

val skip_mode_of_string : string -> skip_mode option

(** All four modes, in the order of the paper's presentation. *)
val all_skip_modes : skip_mode list

type t = {
  mode : skip_mode;  (** skipping variant for staircase joins *)
  stats : Scj_stats.Stats.t;  (** shared work-counter accumulator *)
  trace : Trace.t option;  (** span recorder, [None] when not analyzing *)
  domains : int;
      (** execution width: how many pool workers a (forced) morsel join
          runs on at once, and the worker count of the
          {!Scj_frag.Parallel} experiment.  The planner never reads it:
          plans are the same on every host. *)
  check : unit -> unit;
      (** cancellation hook, invoked by the joins between partition scans
          and by the evaluator between steps ({!checkpoint}).  Raising from
          it aborts the query at the next checkpoint — how the query
          service enforces per-query deadlines.  Must be domain-safe: the
          partition-parallel join calls it from every worker.  Default:
          a no-op. *)
}

(** [make ()] — estimation-based skipping, fresh counters, no tracing,
    {!default_domains} workers.  When [trace] is given without [stats],
    the context adopts the tracer's own counter set so span deltas stay
    consistent. *)
val make :
  ?mode:skip_mode ->
  ?domains:int ->
  ?stats:Scj_stats.Stats.t ->
  ?trace:Trace.t ->
  ?check:(unit -> unit) ->
  unit ->
  t

(** [traced ()] — a context with a fresh counter set and a tracer bound to
    it; the blessed constructor for EXPLAIN ANALYZE runs. *)
val traced : ?mode:skip_mode -> ?domains:int -> unit -> t

(** [Domain.recommended_domain_count], capped at 8 by default; the cap is
    configurable via the [SCJ_DOMAINS] env var (still clamped to the
    hardware count). *)
val default_domains : unit -> int

(** [clamp_domains n] — [n] forced into [1 ..
    Domain.recommended_domain_count]; what the CLI applies to [--workers]
    before sizing pools. *)
val clamp_domains : int -> int

val with_mode : t -> skip_mode -> t

(** [with_check t check] — the same context with a different cancellation
    hook (counters and tracer keep accumulating in place). *)
val with_check : t -> (unit -> unit) -> t

(** [checkpoint t] invokes the cancellation hook.  Called by every join
    between partition scans; free (one indirect call) when no hook is
    installed. *)
val checkpoint : t -> unit

(** [poller t] — a tick that runs {!checkpoint} once every 4,096
    calls, for loops over candidates or rows whose bodies may run no
    join at all (a FLWOR cross product returning a constant), so a
    deadline still interrupts them. *)
val poller : t -> unit -> unit

(** [isolated t] — a context with the same mode/domains/cancellation hook
    but a {e fresh} counter set and no tracer: what the query service
    hands each query so counters and traces never interleave across
    concurrent queries.  [?check] overrides the hook (per-query
    deadlines). *)
val isolated : ?check:(unit -> unit) -> t -> t

(** [tracer t] — [Some] iff this run is being analyzed. *)
val tracing : t -> bool

(** [span t name f] / [annot t key value] — tracing hooks delegating to
    {!Trace.span} / {!Trace.annot}; free when no tracer is attached. *)
val span : t -> string -> (unit -> 'a) -> 'a

val annot : t -> string -> string -> unit
