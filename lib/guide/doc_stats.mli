(** Document statistics for the cost-based planner (§6 future work).

    What the planner needs to cost a plan {e before} executing it:
    per-tag element counts and fragment footprints (Σ subtree sizes /
    Σ levels — the Equation-(1) quantities the pushdown decision
    compares), per-kind node counts, the document height, and the
    summary paths of every tag and attribute name — the partition a
    name test's fragment is.  All of it is one fold over the dataguide
    ({!Guide}): a tag's figures are sums over the summary nodes that
    end in it. *)

type tag_stats = {
  count : int;  (** nodes carrying this name *)
  subtree_sum : int;
      (** Σ size(v) over the fragment — what a descendant step from the
          whole fragment touches (exact when the fragment does not nest) *)
  level_sum : int;  (** Σ level(v) — the ancestor-step counterpart *)
  paths : int list;
      (** the sorted summary ids ending in this name; their members
          ({!Guide.members}) are the fragment *)
}

type t = {
  n_nodes : int;
  n_elements : int;
  n_attributes : int;
  n_texts : int;
  n_comments : int;
  n_pis : int;
  height : int;
  root_size : int;  (** strict descendants of the root = n_nodes - 1 *)
  element_subtree_sum : int;  (** Σ size(v) over all elements *)
  element_level_sum : int;  (** Σ level(v) over all elements *)
  tags : (string, tag_stats) Hashtbl.t;  (** element names *)
  attributes : (string, tag_stats) Hashtbl.t;  (** attribute names *)
}

(** [of_guide g doc] folds [g], the guide of [doc], in O(summary nodes);
    the height and the root size come from [doc]. *)
val of_guide : Guide.t -> Scj_encoding.Doc.t -> t

(** [tag t name] — statistics of the element fragment named [name];
    all zero, with no paths, when no element carries the name. *)
val tag : t -> string -> tag_stats

(** [attribute t name] — the same for the attributes named [name]. *)
val attribute : t -> string -> tag_stats

(** [selectivity t name] — fraction of document nodes named [name]. *)
val selectivity : t -> string -> float
