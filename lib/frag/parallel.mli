(** Partition-parallel staircase join.

    The staircase partitions of Fig. 8 "separate the ancestor-or-self
    paths in the document tree", and the paper observes (§3.2, §6) that the
    partitioned pre/post plane naturally leads to a parallel XPath
    execution strategy: each partition can be scanned by an independent
    worker, and because partitions are disjoint, ascending pre ranges, the
    concatenated per-partition outputs are already in document order.

    This module realizes that strategy with OCaml 5 domains.  Workers share
    the read-only encoding columns and run each partition through the
    serial join's own partition kernels ({!Scj_core.Staircase.run_phase});
    each one owns its result buffer {e and} its own
    {!Scj_stats.Stats.t}, merged into [exec.stats] with
    {!Scj_stats.Stats.add} after the join — a parallel run reports exactly
    the counters of the equivalent serial {!Scj_core.Staircase} call.

    Work is distributed by {e scan length}, not partition count: each
    worker takes a contiguous run of partitions whose summed scan ranges
    approximate an equal share of the touched nodes, so one huge partition
    no longer serializes the join.  The context is pruned exactly once (on
    the coordinating thread), partitions are built from the pruned
    staircase directly, and the final merge blits each worker's buffer
    prefix straight into the result array — no intermediate copies.

    The signatures mirror the serial joins: one optional
    {!Scj_trace.Exec.t} carries the skipping variant, the counters and the
    worker count ([exec.domains], default
    [Domain.recommended_domain_count] capped at 8 and by the number of
    partitions). *)

(** [desc ?exec doc context] — like {!Scj_core.Staircase.desc}, evaluated
    by [exec.domains] workers. *)
val desc :
  ?exec:Scj_trace.Exec.t -> Scj_encoding.Doc.t -> Scj_encoding.Nodeseq.t -> Scj_encoding.Nodeseq.t

(** [anc ?exec doc context] — parallel ancestor join. *)
val anc :
  ?exec:Scj_trace.Exec.t -> Scj_encoding.Doc.t -> Scj_encoding.Nodeseq.t -> Scj_encoding.Nodeseq.t

(** The default worker count of a fresh {!Scj_trace.Exec.t}. *)
val default_domains : unit -> int
