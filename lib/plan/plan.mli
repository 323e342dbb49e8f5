(** The explicit query plan IR behind the XPath evaluator.

    A query is compiled ({!Scj_xpath.Eval}) into a {e logical} plan — a
    context source, axis steps with node tests and predicates, unions with
    duplicate elimination — rewritten by {!Planner.rewrite}, and lowered
    by {!Planner.plan} into a {e physical} plan whose every partitioning
    step carries its join backend and the extent it scans, together with
    its cost estimates.  Under Auto a descendant or ancestor step is the
    serial staircase join in estimation mode over the cheaper of two
    extents: the whole document, or the step's partition — its
    dataguide cursor's paths, or its tag fragment where the guide does
    not track the context; over the document, the join kernel applies a
    kind test or a declined name test itself.  The other backends (the serial
    staircase in another skip mode, the morsel-driven and paged
    staircase, the B+-tree/SQL plan of Fig. 3, MPMGJN, structural join
    and the naive per-context-node region query) run only when forced:
    they are the paper's baselines and the test oracles.  The physical
    tree is what executes: {!Planner.execute} interprets it operator by
    operator, and [scj plan] / [EXPLAIN] render the very same tree
    ({!pp_physical}, {!physical_to_json}).

    The IR is deliberately independent of the XPath front-end: node tests
    are mirrored structurally, and predicates arrive as compiled closures
    carrying the metadata the planner needs (source label, positionality,
    a cost rank for reordering) and, for the predicates the planner can
    evaluate set-at-a-time, a transparent {!form}. *)

module Axis = Scj_encoding.Axis
module Nodeseq = Scj_encoding.Nodeseq
module Exec = Scj_trace.Exec

(** {1 Logical plans} *)

type node_test =
  | Name of string
  | Wildcard
  | Any_node
  | Text_node
  | Comment_node
  | Pi_node of string option

(** A predicate compiled by the front-end: the closure evaluates the
    original expression against one candidate node (with its proximity
    position and the context size), the metadata drives planning. *)
type predicate = {
  label : string;  (** source rendering, for plan display *)
  positional : bool;  (** mentions position()/last() or is number-valued *)
  rank : int;  (** reordering key — lower runs first *)
  form : form option;
      (** the same predicate in transparent form, when it has one; the
          closure stays authoritative wherever the planner keeps
          per-node evaluation *)
  eval : Exec.t -> node:int -> pos:int -> last:int -> bool;
}

(** Transparent predicate bodies over relative downward paths: child,
    attribute, descendant(-or-self) and self steps without predicates.
    The planner may evaluate them as semijoins against the candidates. *)
and form =
  | Exists of step list  (** [[p]]: the path selects some node *)
  | Value of step list * (int -> bool)
      (** [[p op literal]], the literal on either side: some node of the
          path passes the filter, which the front-end builds from its own
          comparison semantics *)
  | And of form * form
  | Or of form * form
  | Not of form

and step = { axis : Axis.t; test : node_test; predicates : predicate list }

type source =
  | Root  (** the root element as a singleton context *)
  | Document  (** the (virtual) document node, emulated at the root *)
  | Context  (** the caller-supplied context sequence *)

type logical =
  | L_source of source
  | L_step of logical * step
  | L_union of logical list  (** union + duplicate elimination, doc order *)

(** {1 Physical plans} *)

type backend =
  | Serial of Exec.skip_mode  (** blit staircase join, §3 *)
  | Morsel of Exec.skip_mode  (** morsel-driven join over the shared pool *)
  | Paged  (** staircase join over the buffer pool (estimation mode) *)
  | Btree of { delimiter : bool }  (** the Fig.-3 B+-tree/SQL plan *)
  | Mpmgjn  (** multi-predicate merge join *)
  | Structjoin  (** sorted-list structural join *)
  | Naive  (** per-context-node region queries *)

(** The extent a serial staircase join scans in place of the whole
    document, and where the step's node test runs. *)
type push =
  | No_push  (** the document; the node test filters after the join *)
  | Push_paths of int list
      (** the partition of these sorted dataguide summary ids (the
          catalog's memo key): a guide cursor's paths, or every path
          ending in the step's tag — its tag fragment *)
  | Push_test
      (** the document; the kernel applies the node test while it
          writes the result ({!Scj_core.Staircase.desc_test}), or for
          [ancestor::*] the join's output is all elements already *)

type direction = Desc | Anc | Following | Preceding

type estimate = {
  card_in : int;  (** estimated context cardinality *)
  touches : int;  (** nodes the un-pushed join is estimated to touch *)
  card_out : int;  (** estimated result cardinality *)
  cost : float;  (** cost of the chosen implementation *)
}

type impl =
  | Join of { dir : direction; or_self : bool; backend : backend; push : push }
      (** a partitioning-axis step (desc/anc/following/preceding, with the
          [-or-self] variants folded in as a union with the context) *)
  | Structural
      (** child/parent/attribute/sibling arithmetic over size/parent *)
  | Select_self  (** self::T — a pure filter *)
  | Empty_result  (** statically empty (namespace axis, document corner) *)

type phys_step = {
  step : step;  (** post-rewrite logical step (predicates reordered) *)
  impl : impl;
  est : estimate;
  alternatives : (string * float) list;
      (** costed-but-rejected extents, for EXPLAIN *)
  push_note : string option;
      (** the pushdown cost comparison, human-readable (EXPLAIN) *)
  guide_note : string option;
      (** how the dataguide sized this step — exact/upper-bound path
          cardinality, or why it fell back to flat statistics *)
  per_node : bool;  (** positional predicates force per-context-node eval *)
  semijoin : bool;
      (** the step's transparent predicates run set-at-a-time as
          semijoins over tag fragments; the others per candidate *)
  pred_note : string option;
      (** the semijoin-vs-per-node cost comparison (EXPLAIN) *)
}

type physical =
  | P_source of source * int  (** estimated source cardinality *)
  | P_step of physical * phys_step
  | P_union of physical list

(** {1 Rendering} *)

val test_to_string : node_test -> string

val step_to_string : step -> string

val source_to_string : source -> string

val backend_to_string : backend -> string

val push_to_string : push -> string

(** How the step's predicates run: positional per context node, as
    semijoins, or per candidate node. *)
val predicate_mode : phys_step -> string

(** Logical plan as an XPath-ish path (for the "rewritten:" line). *)
val logical_to_string : logical -> string

(** The plan tree in execution order (source first), one operator per
    line with its backend, pushdown decision and estimates indented under
    it — the same tree {!Planner.execute} walks and [scj analyze] traces. *)
val pp_physical : Format.formatter -> physical -> unit

val physical_to_string : physical -> string

(** Machine-readable rendition for [scj plan --json]. *)
val physical_to_json : physical -> string

(** The [guide:] annotations in execution order, as (step, note) pairs —
    the [guide] section of [scj plan --json]. *)
val physical_guide_notes : physical -> (string * string) list
