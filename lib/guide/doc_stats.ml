module Doc = Scj_encoding.Doc

type tag_stats = { count : int; subtree_sum : int; level_sum : int; paths : int list }

type t = {
  n_nodes : int;
  n_elements : int;
  n_attributes : int;
  n_texts : int;
  n_comments : int;
  n_pis : int;
  height : int;
  root_size : int;
  element_subtree_sum : int;
  element_level_sum : int;
  tags : (string, tag_stats) Hashtbl.t;
  attributes : (string, tag_stats) Hashtbl.t;
}

let zero_tag = { count = 0; subtree_sum = 0; level_sum = 0; paths = [] }

(* A member's level is its path's depth, and the nodes below a member are
   the members of the path's strict summary descendants.  Ids are created
   parent-first: an ascending sweep fills the depths, a descending one
   meets every node after its summary descendants, so [below.(g)] is
   complete when g folds into its parent — linear, without recursion, on
   however deep a summary.  Consing in the descending sweep leaves each
   tag's paths sorted. *)
let of_guide g doc =
  let n = Guide.n_summary g in
  let depth = Array.make n 0 and below = Array.make n 0 in
  for id = 0 to n - 1 do
    let p = Guide.parent g id in
    if p >= 0 then depth.(id) <- depth.(p) + 1
  done;
  let tags = Hashtbl.create 64 and attributes = Hashtbl.create 16 in
  let n_elements = ref 0
  and n_attributes = ref 0
  and n_texts = ref 0
  and n_comments = ref 0
  and n_pis = ref 0
  and element_subtree_sum = ref 0
  and element_level_sum = ref 0 in
  let add table id count ~level =
    let name = Guide.name g id in
    let s = Option.value ~default:zero_tag (Hashtbl.find_opt table name) in
    Hashtbl.replace table name
      {
        count = s.count + count;
        subtree_sum = s.subtree_sum + below.(id);
        level_sum = s.level_sum + level;
        paths = id :: s.paths;
      }
  in
  for id = n - 1 downto 0 do
    let count = Guide.count g id in
    let p = Guide.parent g id in
    if p >= 0 then below.(p) <- below.(p) + count + below.(id);
    if count > 0 then begin
      let level = count * depth.(id) in
      match Guide.kind g id with
      | Doc.Element ->
        n_elements := !n_elements + count;
        element_subtree_sum := !element_subtree_sum + below.(id);
        element_level_sum := !element_level_sum + level;
        add tags id count ~level
      | Doc.Attribute ->
        n_attributes := !n_attributes + count;
        add attributes id count ~level
      | Doc.Text -> n_texts := !n_texts + count
      | Doc.Comment -> n_comments := !n_comments + count
      | Doc.Pi -> n_pis := !n_pis + count
    end
  done;
  let n_nodes = Doc.n_nodes doc in
  {
    n_nodes;
    n_elements = !n_elements;
    n_attributes = !n_attributes;
    n_texts = !n_texts;
    n_comments = !n_comments;
    n_pis = !n_pis;
    height = Doc.height doc;
    root_size = (if n_nodes = 0 then 0 else Doc.size doc (Doc.root doc));
    element_subtree_sum = !element_subtree_sum;
    element_level_sum = !element_level_sum;
    tags;
    attributes;
  }

let find table name = Option.value ~default:zero_tag (Hashtbl.find_opt table name)

let tag t name = find t.tags name

let attribute t name = find t.attributes name

let selectivity t name =
  if t.n_nodes = 0 then 0.0 else float_of_int (tag t name).count /. float_of_int t.n_nodes
