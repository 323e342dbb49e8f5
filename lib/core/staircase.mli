(** The staircase join (§3 of the paper): tree-aware evaluation of the four
    partitioning XPath axes over the pre/post plane.

    The operator encapsulates three pieces of "tree knowledge":

    + {b Pruning} (§3.1, Algorithm 1): context nodes whose axis region is
      covered by another context node are removed.  For [descendant] and
      [ancestor] the surviving context forms a proper staircase (increasing
      pre {e and} post); for [preceding]/[following] a single context node
      survives and the join degenerates to one region query.
    + {b Partitioned single scan} (§3.2, Algorithm 2): one sequential pass
      over the document, partitioned at the context nodes' preorder ranks,
      emits every result node exactly once, in document order — no
      duplicate removal, no sort.
    + {b Skipping} (§3.3, Algorithms 3/4): the empty-region analysis of
      Fig. 7 lets the scan terminate a [descendant] partition at the first
      non-result node and hop over whole subtrees for [ancestor];
      {e estimation-based} skipping splits the [descendant] partition into
      a comparison-free copy phase of [post c - pre c] nodes (Equation 1)
      and a short scan phase of at most [height] nodes.

    All functions take the context as a {!Scj_encoding.Nodeseq.t} (sorted,
    duplicate-free — XPath's document-order invariant) and return the step
    result with the same invariant.  Results never contain attribute nodes
    (paper footnote 6); use the encoding's [Attribute] axis for those.

    Every entry point takes one optional {!Scj_trace.Exec.t} execution
    context carrying the skipping variant, the work counters ([scanned]
    counts compared nodes, [copied] comparison-free appends, [skipped]
    nodes never touched, [pruned] removed context nodes) and the optional
    tracer.  Omitting it runs with estimation-based skipping and discards
    the counters. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Exec = Scj_trace.Exec

(** Re-export of {!Scj_trace.Exec.skip_mode} (canonical home of the
    skipping variants, so the execution context can name them without
    depending on this module). *)
type skip_mode = Exec.skip_mode =
  | No_skipping
      (** Algorithm 2 verbatim: scan every node from the first context node
          to the end of the partition structure. *)
  | Skipping
      (** Algorithm 3: stop a [descendant] partition at the first following
          node; hop over subtrees by the Equation-(1) lower bound for
          [ancestor]. *)
  | Estimation
      (** Algorithm 4: comparison-free copy phase for [descendant]
          (for [ancestor] this behaves like [Skipping], which already is
          estimation-based there — §3.3). *)
  | Exact_size
      (** The footnote-5 variant: the encoding's exact subtree sizes make
          the copy phase cover the whole partition ([descendant]) and the
          hop exact ([ancestor]). *)

val skip_mode_to_string : skip_mode -> string

(** {1 Pruning (Algorithm 1)} *)

(** Remove context nodes that are descendants of other context nodes.
    The result covers the same [descendant] region. *)
val prune_desc : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** Remove context nodes that are ancestors of other context nodes. *)
val prune_anc : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** Keep only the context node with minimal postorder rank — its
    [following] region covers every other context node's (§3.1). *)
val prune_following : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** Keep only the context node with maximal preorder rank. *)
val prune_preceding : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** [is_staircase doc ctx] checks the proper-staircase property (strictly
    increasing pre and post) that {!desc}/{!anc} rely on after pruning. *)
val is_staircase : Doc.t -> Nodeseq.t -> bool

(** {1 Staircase joins} *)

(** [desc doc context] is [context/descendant::node()] (attributes
    filtered).  Prunes internally; the skipping variant is
    [exec.mode] (default [Estimation]). *)
val desc : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** [anc doc context] is [context/ancestor::node()]. *)
val anc : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** [following doc context]: prunes to a singleton, then one region scan
    that skips straight over the context node's subtree. *)
val following : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** [preceding doc context]: prunes to a singleton, then one region scan
    over the prefix of the document. *)
val preceding : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

(** {1 Node tests inside the join}

    A kind-tested or name-tested step over the whole document need not
    materialize every non-attribute node of its region and filter
    afterwards.  These kernels find the region's rank ranges exactly as
    the joins above do and book the same counters ([appended] still
    counts the region's non-attribute nodes, before the test).  One pass
    then counts the ranks in those ranges that pass the test, the result
    is allocated once at that length, and a second pass fills it.  No
    structure of document size is built. *)

(** The test a kernel applies: every node of a kind ([*] is
    [Kind Element], [text()] is [Kind Text]), or the nodes of a kind
    carrying one interned tag symbol (a name test, or a
    [processing-instruction('t')] target).  Elements and PIs always
    carry a symbol, so [Named (k, -1)] matches nothing.  The kind is
    never [Attribute]: the kernels raise [Invalid_argument] on one, as
    the joins select no attributes. *)
type node_test = Kind of Doc.kind | Named of Doc.kind * int

(** [desc_test ~or_self doc test context] is
    [context/descendant::node()] (or [descendant-or-self]) restricted to
    the nodes passing [test], with {!desc}'s counters.  The or-self
    context nodes go in during the fill pass, so no union runs. *)
val desc_test :
  ?exec:Exec.t -> or_self:bool -> Doc.t -> node_test -> Nodeseq.t -> Nodeseq.t

(** [following_test doc test context] is {!following} restricted to the
    nodes passing [test]: the same count-then-fill over its single tail
    range. *)
val following_test : ?exec:Exec.t -> Doc.t -> node_test -> Nodeseq.t -> Nodeseq.t

(** [preceding_test doc test context] is {!preceding} restricted to the
    nodes passing [test], applied inside its region scan. *)
val preceding_test : ?exec:Exec.t -> Doc.t -> node_test -> Nodeseq.t -> Nodeseq.t

(** {1 Partition structure}

    The partition boundaries that the join scans (Fig. 8) — exposed so the
    fragmentation layer can evaluate partitions independently (the paper's
    parallel XPath execution strategy). *)

type partition = { scan_from : int; scan_to : int; boundary_post : int }

(** Partitions of the pruned [descendant] staircase: partition [k] selects
    nodes [i] in [scan_from..scan_to] with [post i < boundary_post]. *)
val desc_partitions : Doc.t -> Nodeseq.t -> partition list

(** Partitions of the pruned [ancestor] staircase: selects nodes with
    [post i > boundary_post]. *)
val anc_partitions : Doc.t -> Nodeseq.t -> partition list

(** [desc_partitions_pruned doc staircase] is {!desc_partitions} minus the
    internal prune: [staircase] must already be a proper descendant
    staircase (e.g. the result of {!prune_desc}).  Lets callers that have
    already pruned — the fragmentation layer runs the O(n) prune exactly
    once — build the partition structure without a second pass. *)
val desc_partitions_pruned : Doc.t -> Nodeseq.t -> partition list

(** [anc_partitions_pruned doc staircase]: as {!desc_partitions_pruned}
    for the ancestor axis ([staircase] must be {!prune_anc} output). *)
val anc_partitions_pruned : Doc.t -> Nodeseq.t -> partition list

(** {1 Partition kernels}

    One kernel per phase of a partition, shared by every executor: the
    joins above, {!Scj_frag.Parallel}'s weighted slices,
    {!Scj_frag.Morsel}'s chunks and the paged join of
    [Scj_pager.Paged_doc] — results and work counters agree across
    executors because the same code produces them.  A kernel reads a
    column {e slice}: [col.(i - off)] is rank [i]'s entry.  An in-memory
    column is the one-slice case ([off = 0]); the paged join passes one
    pinned page at a time, so a scan takes its partition's last rank
    [limit] apart from the slice's last rank [hi]. *)

(** [desc_scan ~skip stats posts ~off ~lo ~hi ~limit ~boundary] compares
    ranks [lo .. hi] against [boundary] and returns the rank just past
    those with [post < boundary].  A descendant partition holds the
    context node's subtree first, so those ranks are a prefix of the
    range.  With [skip] the scan stops at the first other rank and counts
    the rest up to [limit] as skipped (Algorithm 3); without, it compares
    every rank (Algorithm 2).  Appends nothing: the caller copies the
    prefix through {!Scj_encoding.Doc.append_nonattr_runs}. *)
val desc_scan :
  skip:bool ->
  Scj_stats.Stats.t ->
  int array ->
  off:int ->
  lo:int ->
  hi:int ->
  limit:int ->
  boundary:int ->
  int

(** [anc_scan ~mode stats ~posts ~sizes ~off ~lo ~hi ~limit ~boundary
    out] appends the ranks in [lo .. hi] with [post > boundary] to [out],
    hopping over the subtree of every other rank as [mode] allows
    ([sizes], at the offset of [posts], is read in [Exact_size] mode
    only); hops stop at [limit].  Returns the next rank to visit, which
    may lie past [hi]. *)
val anc_scan :
  mode:skip_mode ->
  Scj_stats.Stats.t ->
  posts:int array ->
  sizes:int array ->
  off:int ->
  lo:int ->
  hi:int ->
  limit:int ->
  boundary:int ->
  Scj_bat.Int_col.t ->
  int

(** [count_copy stats ~lo ~hi ~appended] books a comparison-free copy
    phase over ranks [lo .. hi] that appended [appended] non-attribute
    ranks. *)
val count_copy : Scj_stats.Stats.t -> lo:int -> hi:int -> appended:int -> unit

(** The kind of one phase of a partition; the phase itself is the kind
    plus an inclusive rank range [lo .. hi] and the partition's
    boundary post rank. *)
type phase =
  | Copy  (** guaranteed descendants: no comparisons *)
  | Desc_scan
  | Anc_scan
  | Skip  (** nodes proven outside the result without a visit *)

(** [desc_phases ~mode doc ~lo ~hi ~boundary f] calls
    [f phase ~lo ~hi ~boundary] for each phase of the descendant
    partition that scans ranks [lo .. hi] for context node [lo - 1]
    (post rank [boundary]) under skipping variant [mode], in rank order.
    An ancestor partition is a single [Anc_scan] phase. *)
val desc_phases :
  mode:skip_mode ->
  Doc.t ->
  lo:int ->
  hi:int ->
  boundary:int ->
  (phase -> lo:int -> hi:int -> boundary:int -> unit) ->
  unit

(** [run_phase ~mode doc stats out phase ~lo ~hi ~boundary] runs one
    phase over the in-memory columns, appending to [out].  A [Copy]
    phase, or any scan when [mode = No_skipping], may be split into
    consecutive sub-ranges run separately: the appended ranks and
    counter sums stay the same. *)
val run_phase :
  mode:skip_mode ->
  Doc.t ->
  Scj_stats.Stats.t ->
  Scj_bat.Int_col.t ->
  phase ->
  lo:int ->
  hi:int ->
  boundary:int ->
  unit

(** {1 Joins over document subsets (views)}

    A view is a pre-sorted subset of the document's nodes, e.g. all
    elements with a given tag name.  "The tree properties used by the
    staircase join ... remain valid for a subset of nodes" (§4.4,
    Experiment 3) — this is what makes name-test pushdown and tag-name
    fragmentation work. *)

module View : sig
  type t

  (** [of_doc doc] is the whole document as a view. *)
  val of_doc : Doc.t -> t

  (** [of_tag doc name] is the view of all nodes named [name]. *)
  val of_tag : Doc.t -> string -> t

  (** [of_nodeseq doc seq] views an arbitrary node sequence. *)
  val of_nodeseq : Doc.t -> Nodeseq.t -> t

  (** Number of nodes in the view. *)
  val length : t -> int

  (** The view's nodes, shared with the view (no copy). *)
  val to_nodeseq : t -> Nodeseq.t
end

(** [desc_view doc view context] evaluates the descendant step returning
    only nodes of [view]; context nodes come from the full document. *)
val desc_view : ?exec:Exec.t -> Doc.t -> View.t -> Nodeseq.t -> Nodeseq.t

val anc_view : ?exec:Exec.t -> Doc.t -> View.t -> Nodeseq.t -> Nodeseq.t

(** [following_view doc view context] is {!following} restricted to the
    nodes of [view]: the context prunes to one node [c], a binary search
    finds [c]'s window in the view, and [c]'s descendants at its start
    are skipped by post rank as [exec.mode] allows; the rest of the
    window is copied. *)
val following_view : ?exec:Exec.t -> Doc.t -> View.t -> Nodeseq.t -> Nodeseq.t

(** [preceding_view doc view context] is {!preceding} restricted to the
    nodes of [view]: the view entries before the pruned context node [c]
    are copied, minus the at most [height] ancestors of [c], each found
    by binary search. *)
val preceding_view : ?exec:Exec.t -> Doc.t -> View.t -> Nodeseq.t -> Nodeseq.t

(** {1 Per-node reference implementation}

    {!desc} and {!anc} above run their comparison-free copy phases with
    bulk range fills over the attribute prefix-sum column.  [Reference]
    keeps the pre-blit per-node loops — one append, one kind test, one
    counter bump per node — as the differential-testing oracle and the
    baseline of the [copykernel] bench experiment.  Results and counter
    totals must be bit-identical to the blit implementations in every
    skipping mode. *)

module Reference : sig
  val desc : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

  val anc : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

  (** Per-node renditions of {!Staircase.following}/{!preceding} — the
      skip/copy structure is kept but every append runs through the
      one-node-at-a-time loop, so results {e and} counter totals must
      match the blit implementations in every mode. *)
  val following : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t

  val preceding : ?exec:Exec.t -> Doc.t -> Nodeseq.t -> Nodeseq.t
end
