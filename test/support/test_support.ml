(* Shared fixtures and generators for the test suites. *)

module Tree = Scj_xml.Tree
module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis

(* The 10-node document of the paper's Figures 1 and 2:
   a(b(c), d, e(f(g, h), i(j))), giving exactly the pre/post table
   pre:  a0 b1 c2 d3 e4 f5 g6 h7 i8 j9
   post: a9 b1 c0 d2 e8 f5 g3 h4 i7 j6 *)
let paper_tree =
  Tree.elem "a"
    [
      Tree.elem "b" [ Tree.elem "c" [] ];
      Tree.elem "d" [];
      Tree.elem "e"
        [ Tree.elem "f" [ Tree.elem "g" []; Tree.elem "h" [] ]; Tree.elem "i" [ Tree.elem "j" [] ] ];
    ]

let paper_doc = lazy (Doc.of_tree paper_tree)

(* Map single-letter tag names of [paper_tree] to preorder ranks. *)
let pre_of_name doc name =
  let rec find pre =
    if pre >= Doc.n_nodes doc then invalid_arg ("pre_of_name: no node named " ^ name)
    else
      match Doc.tag_name doc pre with
      | Some n when String.equal n name -> pre
      | Some _ | None -> find (pre + 1)
  in
  find 0

(* ------------------------------------------------------------------ *)
(* random documents                                                     *)
(* ------------------------------------------------------------------ *)

(* Random trees exercising every node kind.  Sizes are kept moderate so a
   qcheck run with hundreds of cases stays fast. *)
let tree_gen ?(max_nodes = 60) () =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "item"; "x" ] in
  let attr_list =
    oneofl [ []; [ ("k", "v") ]; [ ("k", "v"); ("id", "7") ] ]
  in
  let leaf =
    frequency
      [
        (2, map Tree.text (oneofl [ "t"; "some text"; "&<>" ]));
        (1, map (fun s -> Tree.Comment s) (oneofl [ "c1"; "note" ]));
        (1, return (Tree.Pi { target = "pi"; data = "d" }));
        (2, map2 (fun n attrs -> Tree.elem ~attributes:attrs n []) name attr_list);
      ]
  in
  let rec node budget =
    if budget <= 1 then leaf
    else
      frequency
        [
          (1, leaf);
          ( 3,
            int_range 0 (min 5 (budget - 1)) >>= fun n_children ->
            name >>= fun nm ->
            attr_list >>= fun attrs ->
            let child_budget = if n_children = 0 then 0 else (budget - 1) / n_children in
            flatten_l (List.init n_children (fun _ -> node child_budget)) >>= fun children ->
            return (Tree.elem ~attributes:attrs nm children) );
        ]
  in
  int_range 1 max_nodes >>= fun budget ->
  attr_list >>= fun attrs ->
  node budget >>= fun child ->
  int_range 0 3 >>= fun extra ->
  flatten_l (List.init extra (fun _ -> node (budget / 2))) >>= fun more ->
  return (Tree.elem ~attributes:attrs "root" (child :: more))

let doc_gen ?max_nodes () = QCheck.Gen.map Doc.of_tree (tree_gen ?max_nodes ())

let doc_print doc = Format.asprintf "%a" Doc.pp_table doc

let doc_arbitrary ?max_nodes () = QCheck.make ~print:doc_print (doc_gen ?max_nodes ())

(* A document together with a random context sequence over its nodes. *)
let doc_with_context_gen ?max_nodes () =
  let open QCheck.Gen in
  doc_gen ?max_nodes () >>= fun doc ->
  let n = Doc.n_nodes doc in
  list_size (int_range 0 (min n 10)) (int_range 0 (n - 1)) >>= fun picks ->
  return (doc, Nodeseq.of_unsorted picks)

let doc_with_context_arbitrary ?max_nodes () =
  QCheck.make
    ~print:(fun (doc, ctx) -> Format.asprintf "%a@.context=%a" Doc.pp_table doc Nodeseq.pp ctx)
    (doc_with_context_gen ?max_nodes ())

(* Reference evaluation of an axis step straight from the specification:
   test every document node against every context node.  O(n * |ctx|). *)
let spec_step doc axis context =
  let n = Doc.n_nodes doc in
  let hits = ref [] in
  for v = n - 1 downto 0 do
    let in_result =
      Nodeseq.fold_left (fun acc c -> acc || Axis.in_region doc axis ~context:c v) false context
    in
    if in_result then hits := v :: !hits
  done;
  Nodeseq.of_unsorted !hits

(* Deterministic random documents for the differential fuzzing harness. *)
module Fuzz = Fuzz

(* Fault-injection I/O for the durable-store recovery fuzz. *)
module Faultfs = Faultfs

(* The document-scan oracle of the guide-derived planner statistics. *)
module Doc_scan = Doc_scan
