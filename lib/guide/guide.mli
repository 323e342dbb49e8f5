(** Strong dataguide: one summary node per distinct root-to-node path.

    A summary node stands for every document node reachable by the same
    sequence of (kind, name) steps from the root — "/site/people/person"
    is one node no matter how many persons the document holds.  Each
    summary node is annotated with the pre ranks of its path's members
    (count, min/max pre extent derive from it) and a distinct-child map;
    attribute/text/comment children are summary nodes of their own kind.

    Two consumers:

    - the planner ({!Scj_plan.Planner}): matching a structural step
      sequence against the guide yields near-exact cardinalities, and a
      path's member set is a {e path partition} — a fragment view the
      staircase join can scan instead of the whole document table;

    - the store ({!Scj_store.Store}): {!serialize} produces the blob
      persisted as a page-aligned, CRC-trailed extent, so reopening a
      store recovers the guide without rescanning the document.

    Maintenance mirrors {!Scj_stats.Doc_stats.update}: after a
    {!Scj_encoding.Update} splice, member ranks at or beyond the splice
    point are dropped and the spliced tail is replayed — rows below the
    splice keep their pre rank, kind, name and ancestor chain, so their
    summary assignment is untouched.  {!update} is guaranteed (and
    fuzz-tested) to equal {!build} of the new document. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq

type t

(** One pass over parent/kind/name in preorder (parents precede their
    children, so each row extends an already-summarized path). *)
val build : Doc.t -> t

(** Splice-maintenance across a mutation (see {!Scj_encoding.Update}):
    equivalent to [build doc], at the cost of the spliced tail.
    [old_doc] and [delta] are accepted for signature parity with
    [Doc_stats.update]; the splice point alone determines the work. *)
val update : t -> old_doc:Doc.t -> doc:Doc.t -> splice:int -> delta:int -> t

(** Document rows summarized (the sum of all member counts). *)
val doc_nodes : t -> int

(** Live summary nodes (distinct populated root paths). *)
val n_paths : t -> int

(** {1 Cursors — planner-side path matching}

    A cursor is the set of summary nodes a structural step sequence can
    reach; an empty cursor proves the query region is empty.  The step
    functions mirror the XPath axes the planner propagates exactly. *)

type cursor

val is_empty : cursor -> bool

val cursor_size : cursor -> int

val cursor_union : cursor -> cursor -> cursor

(** The root element's summary node (empty only on an empty guide). *)
val root_cursor : t -> cursor

(** [self_step] keeps the cursor nodes matching (kind, name). *)
val self_step : t -> cursor -> kind:Doc.kind -> name:string -> cursor

(** Distinct children of the cursor matching (kind, name) — the child
    and attribute axes. *)
val child_step : t -> cursor -> kind:Doc.kind -> name:string -> cursor

(** Element descendants (or-self) of the cursor named [name]. *)
val descendant_step : t -> ?or_self:bool -> cursor -> name:string -> cursor

(** Summary ancestors (or-self) of the cursor named [name].  Unlike the
    downward steps this is an {e upper bound}: a node on a prefix path
    need not have a descendant on the full path. *)
val ancestor_step : t -> ?or_self:bool -> cursor -> name:string -> cursor

(** Total member count — exact, member sets of distinct summary nodes
    are disjoint. *)
val card : t -> cursor -> int

(** The cursor's summary ids, sorted and distinct: the canonical memo
    key of its partition, in constant time and space (the joined root
    paths cost O(depth) bytes per path). *)
val cursor_ids : cursor -> int list

(** The partition: every member pre rank, in document order. *)
val members : t -> cursor -> Nodeseq.t

(** {1 Inspection} *)

type info = {
  path : string;  (** "/site/people/@id" — attributes as "@name" *)
  depth : int;  (** summary-tree depth, root = 0 *)
  kind : Doc.kind;
  label : string;  (** the path's last segment *)
  count : int;  (** member nodes on this path *)
  attrs : int;  (** members of attribute children, summed *)
  min_pre : int;  (** smallest member pre rank *)
  max_pre : int;  (** largest member pre rank *)
  n_children : int;  (** distinct populated child paths *)
}

(** Preorder over the populated summary tree, children in label order. *)
val infos : t -> info list

val pp : Format.formatter -> t -> unit

val to_json : t -> string

(** {1 Persistence} *)

val serialize : t -> Bytes.t

val deserialize : Bytes.t -> (t, string) result

(** {1 Testing support} *)

(** (path, member pre ranks) per populated summary node, sorted by
    path — the canonical form the maintenance fuzz compares. *)
val members_alist : t -> (string * int array) list

val equal : t -> t -> bool
