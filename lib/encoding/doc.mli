(** The XPath accelerator document encoding (Grust, SIGMOD 2002): every
    node [v] of an XML document is mapped to its preorder and postorder
    traversal ranks [(pre v, post v)], placing it in the two-dimensional
    pre/post plane of the paper's Fig. 2.

    A document is stored as a handful of BAT-style columns indexed by
    preorder rank — the preorder column itself is virtual (Monet [void]):

    - [post]: postorder rank,
    - [level]: depth below the root (root = 0),
    - [parent]: preorder rank of the parent (-1 for the root),
    - [size]: exact subtree size (strict descendants, attributes included),
    - [kind], [tag], [content]: node kind, interned name, text heap slot.

    Attribute nodes use the paper's "special encoding": they participate in
    the pre/post plane as the first leaves below their owner element and
    carry [kind = Attribute] so axis results can filter them out (paper
    §3, footnote 6).

    The fundamental arithmetic these columns support — at the cost of
    simple integer operations, as the paper puts it — is Equation (1):

    {v  size v  =  post v - pre v + level v,   with  level v <= height  v}

    so [post v - pre v] is a guaranteed lower bound on the subtree size and
    [post v - pre v + height] an upper bound. *)

type kind = Element | Attribute | Text | Comment | Pi

val kind_to_string : kind -> string

type t

(** {1 Loading} *)

(** [of_tree tree] encodes a parsed document.  The single traversal assigns
    pre/post ranks, levels, parents, and exact subtree sizes. *)
val of_tree : Scj_xml.Tree.t -> t

(** [of_string xml] parses (stripping ignorable whitespace) and encodes in
    one streaming pass — no intermediate tree is materialized, so loading
    cost is one traversal and the encoding columns themselves. *)
val of_string : string -> (t, string) result

(** [of_file path] reads and encodes a whole XML file, streaming. *)
val of_file : string -> (t, string) result

(** {1 Global properties} *)

(** Number of nodes (elements, attributes, texts, comments, PIs). *)
val n_nodes : t -> int

(** Height of the document tree: the maximal [level]. *)
val height : t -> int

(** The root's preorder rank (always 0). *)
val root : t -> int

(** {1 Per-node accessors (by preorder rank)} *)

val post : t -> int -> int

val level : t -> int -> int

(** [-1] for the root. *)
val parent : t -> int -> int

(** Exact number of strict descendants (attributes included). *)
val size : t -> int -> int

val kind : t -> int -> kind

(** Interned tag symbol; [-1] for text and comment nodes. *)
val tag : t -> int -> int

(** Tag name, attribute name, or PI target. *)
val tag_name : t -> int -> string option

(** Text content for text/comment nodes, value for attributes, data for
    PIs; [None] for elements. *)
val content : t -> int -> string option

(** [pre_of_post t p] is the preorder rank of the node with postorder rank
    [p]. *)
val pre_of_post : t -> int -> int

(** XPath string-value: the concatenation of text-node contents in the
    subtree ([content] for attribute/text/comment/PI nodes). *)
val string_value : t -> int -> string

(** {1 Tag lookup} *)

(** Symbol for [name], if any node uses it. *)
val tag_symbol : t -> string -> int option

(** Dictionary of interned names. *)
val names : t -> Scj_bat.Dict.t

(** [tag_positions t name] is the sorted array of preorder ranks of
    elements (or attributes/PIs) named [name]; scans the document. *)
val tag_positions : t -> string -> int array

(** {1 Raw columns (hot loops)}

    The arrays are the live backing stores — callers must not mutate
    them. *)

val post_array : t -> int array

val kind_array : t -> kind array

(** Interned tag symbols, [-1] for text and comment nodes. *)
val tag_array : t -> int array

val level_array : t -> int array

val size_array : t -> int array

val parent_array : t -> int array

(** {1 Arithmetic from Equation (1)} *)

(** Guaranteed descendants immediately following [v] in preorder:
    [post v - pre v]. *)
val size_lower_bound : t -> int -> int

(** Upper bound [post v - pre v + height t]. *)
val size_upper_bound : t -> int -> int

(** {1 Attribute prefix sums and the copy-phase kernel}

    The paper's special attribute encoding (§3, footnote 6) places the
    attributes of an element as the {e first leaves of its subtree}, so a
    pre-rank run minus its attributes is a short list of maximal
    attribute-free runs.  A prefix-sum column over the attribute flags
    makes the attribute count of any range O(1) and lets the
    comparison-free copy phase of the staircase join emit those runs with
    bulk fills instead of a per-node kind test. *)

(** The live prefix-sum array: entry [i] is the number of attribute nodes
    with [pre < i] (length [n_nodes + 1]).  Callers must not mutate it. *)
val attr_prefix_array : t -> int array

(** [attr_count_range t ~lo ~hi] is the number of attribute nodes with
    [lo <= pre <= hi], in O(1); [0] when [hi < lo]. *)
val attr_count_range : t -> lo:int -> hi:int -> int

(** [append_nonattr_runs prefix ~off ?pres col ~lo ~hi] appends to
    [col], in order, every index [i] in [lo .. hi-1] that is not an
    attribute — [i] itself, or [pres.(i)] for a view's pre column — as
    one range fill or slice blit per attribute-free run: the
    attribute-run finder behind every copy phase.  [prefix] is a slice
    of a prefix-sum column, [prefix.(k - off)] holding entry [k];
    entries [lo .. hi] must lie in it. *)
val append_nonattr_runs :
  int array -> off:int -> ?pres:int array -> Scj_bat.Int_col.t -> lo:int -> hi:int -> unit

(** [append_nonattr_range t col ~lo ~hi] appends every non-attribute pre
    rank in [lo, hi] (in order) to [col] using range fills — the blit
    copy-phase kernel.  Returns the number of ranks appended.  Cost is
    O(attribute-runs * log n) bookkeeping plus the bulk fills; no
    per-node branching. *)
val append_nonattr_range : t -> Scj_bat.Int_col.t -> lo:int -> hi:int -> int

(** {1 Reconstruction}

    The encoding is lossless (modulo stripped ignorable whitespace):
    [to_tree t (root t)] rebuilds the document. *)

(** [to_tree t pre] reconstructs the subtree rooted at [pre] as an XML
    tree.  For an attribute node this is an element-less fragment, so the
    attribute is rendered as a [Text] node carrying its value. *)
val to_tree : t -> int -> Scj_xml.Tree.t

(** {1 Validation} *)

(** Check the encoding invariants: [pre]/[post] are permutations,
    Equation (1) holds exactly, parents precede children and enclose their
    subtrees, sizes tile, attributes are childless, levels chain. *)
val validate : t -> (unit, string) result

(** Render the (pre, post, level, size, kind, name) table — the [doc]
    table of the paper's Fig. 2. *)
val pp_table : Format.formatter -> t -> unit

(**/**)

(** For {!Codec} and {!Update} only: reassemble a document from raw
    columns.  Subtree sizes are recomputed from Equation (1); callers
    should {!validate}.  [seed_names] pre-interns another document's
    dictionary in symbol order, keeping symbol ids stable across
    renditions of the same document. *)
module Internal : sig
  val assemble :
    ?seed_names:Scj_bat.Dict.t ->
    post:int array ->
    level:int array ->
    parent:int array ->
    kind:kind array ->
    tags:string option array ->
    contents:string option array ->
    height:int ->
    unit ->
    t
end
