(** The cost-based planner: logical-plan rewrites, a statistics-driven
    cost model ({!Scj_guide.Doc_stats}), physical backend selection per
    partitioning step, and the operator-tree interpreter.

    The pipeline is [rewrite] → [plan] → [execute]; the front-end
    ({!Scj_xpath.Eval}) compiles the AST into {!Plan.logical} and hands
    the physical tree back to callers so EXPLAIN renders exactly what
    runs. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Exec = Scj_trace.Exec
module Doc_stats = Scj_guide.Doc_stats
module Sj = Scj_core.Staircase

(** {1 Catalog}

    Per-document planning and execution state: the dataguide, the
    statistics folded from it, one memo of partition views keyed by
    sorted summary ids (tag fragments for name-test pushdown and
    semijoins, attribute-name fragments for semijoins, guide cursor
    partitions), the B+-tree index of the SQL baseline, and — when
    attached — the paged rendition of the document. *)

type t

(** [catalog ?paged ?guide doc] — [paged] makes the paged staircase
    join plannable; [guide] seeds the dataguide (e.g. one deserialized
    from a store) instead of the lazy first-use build.  Plans do not
    depend on the host's core count. *)
val catalog : ?paged:Scj_pager.Paged_doc.t -> ?guide:Scj_guide.Guide.t -> Doc.t -> t

val doc : t -> Doc.t

(** [evolve ?paged t ~doc ~splice ~delta] carries the catalog across a
    mutation that renumbered [doc t] into [doc] (see
    {!Scj_encoding.Update.applied}): the dataguide is maintained with
    {!Scj_guide.Guide.update}, the B+-tree index is spliced with
    {!Scj_engine.Sql_plan.maintain}, and the statistics and partition
    views, which derive from the guide, are dropped for lazy rebuild.
    Structures never
    materialized stay unmaterialized — evolving costs nothing until the
    planner asked for something.  The mutable index transfers to the returned catalog;
    the old catalog must not execute queries afterwards. *)
val evolve : ?paged:Scj_pager.Paged_doc.t -> t -> doc:Doc.t -> splice:int -> delta:int -> t

(** Memoized strong dataguide (path summary) — built on first use
    unless seeded through [catalog ?guide]. *)
val guide : t -> Scj_guide.Guide.t

(** Memoized statistics, one fold over {!guide}. *)
val doc_stats : t -> Doc_stats.t

(** [view t ids] — the partition of sorted summary ids (a tag's
    {!Doc_stats.tag_stats.paths}, or a guide cursor's) as a staircase
    join view, built on first use and memoized under [ids]. *)
val view : t -> int list -> Sj.View.t

(** Memoized B+-tree index for the Fig.-3 baseline. *)
val sql_index : t -> Scj_engine.Sql_plan.index

(** {1 Policy} *)

type choice =
  | Auto
      (** cost-based: the serial staircase over the cheapest extent for
          descendant and ancestor steps *)
  | Force of Plan.backend  (** one backend for every partitioning step *)

type pushdown = [ `Never | `Always | `Cost_based ]

type policy = {
  choice : choice;
  pushdown : pushdown;
  guide : bool;
      (** match structural step prefixes against the dataguide: exact
          cardinalities and cursor partitions.  Off, the planner
          estimates from flat [Doc_stats] alone, and a step's partition
          is its tag fragment. *)
}

(** [Auto] with cost-based pushdown and guide cardinalities. *)
val default_policy : policy

val policy_to_string : policy -> string

(** {1 Rewrites}

    - step fusion: [descendant-or-self::node()/child::T] →
      [descendant::T] (when [T]'s predicates are not positional);
    - prune hoisting: a [descendant(-or-self)::T] step directly after the
      [//] bridge collapses — Algorithm-1 pruning of the expanded context
      recovers the original staircase, so the expansion is dead at plan
      time; [self::node()] steps (no predicates) are dropped likewise;
    - the absolute ['//x'] corner with positional predicates becomes an
      explicit union (child-of-document ∪ root-as-self);
    - predicate reordering: cheapest non-positional predicate first
      (stable; skipped when any predicate is positional). *)
val rewrite : Plan.logical -> Plan.logical

(** {1 Planning and execution} *)

(** [plan t policy ?context_card logical] lowers a (rewritten) logical
    plan: statistics propagate a context-cardinality estimate through the
    steps.  Under [Auto] every descendant and ancestor step is the serial
    staircase join in estimation mode over the cheaper of two extents —
    the document, or the step's partition: its guide cursor's paths when
    the guide tracks the context, else its tag fragment — recorded with
    the pushdown decision and the rejected extent.  Over
    the document, a descendant, following or preceding step applies a
    kind test or a declined name test inside the join kernel
    ({!Plan.Push_test}), unless pushdown is [`Never]; [ancestor::*]
    needs no filter, and an ancestor kind test no element passes plans
    as empty (its or-self form as the self filter).  A forced backend
    runs every partitioning step and filters after the join.  Under
    [Auto], a step's transparent predicates ({!Plan.form}) are costed as
    semijoins over tag fragments against per-node evaluation, except on
    a relative path planned for one context node.
    [context_card] (default 1) seeds the estimate for [Context]
    sources. *)
val plan : t -> policy -> ?context_card:int -> Plan.logical -> Plan.physical

(** [execute t exec ~context phys] interprets the physical tree.  Under a
    tracing [exec] every operator opens one span annotated with the
    chosen backend, the pushdown decision, partition counts and in/out
    cardinalities — the executed trace mirrors {!Plan.pp_physical}
    one-to-one; a step's semijoins and its per-node predicate closures
    (run untraced, counted as [evaluations]) open one child span each.
    [Exec.checkpoint] runs between operators. *)
val execute : t -> Exec.t -> context:Nodeseq.t -> Plan.physical -> Nodeseq.t
