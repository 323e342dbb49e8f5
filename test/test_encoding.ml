(* Tests for the XPath accelerator encoding (lib/encoding): the doc table,
   node sequences, axis region semantics, and the binary codec. *)

module Tree = Scj_xml.Tree
module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Codec = Scj_encoding.Codec

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let nodeseq = Alcotest.testable Nodeseq.pp Nodeseq.equal

let doc () = Lazy.force Test_support.paper_doc

let pre name = Test_support.pre_of_name (doc ()) name

let validate_ok ?(msg = "validate") d =
  match Doc.validate d with Ok () -> () | Error e -> Alcotest.failf "%s: %s" msg e

(* ------------------------------------------------------------------ *)
(* the paper's running example (Figures 1 and 2)                       *)
(* ------------------------------------------------------------------ *)

let test_paper_pre_post_table () =
  let d = doc () in
  check_int "10 nodes" 10 (Doc.n_nodes d);
  (* the exact doc table of Fig. 2 *)
  let expected = [ ("a", 0, 9); ("b", 1, 1); ("c", 2, 0); ("d", 3, 2); ("e", 4, 8);
                   ("f", 5, 5); ("g", 6, 3); ("h", 7, 4); ("i", 8, 7); ("j", 9, 6) ] in
  List.iter
    (fun (name, p, q) ->
      check_int (name ^ " pre") p (pre name);
      check_int (name ^ " post") q (Doc.post d p))
    expected;
  validate_ok d

let test_paper_levels_sizes () =
  let d = doc () in
  check_int "level a" 0 (Doc.level d (pre "a"));
  check_int "level c" 2 (Doc.level d (pre "c"));
  check_int "level g" 3 (Doc.level d (pre "g"));
  check_int "size a" 9 (Doc.size d (pre "a"));
  check_int "size e" 5 (Doc.size d (pre "e"));
  check_int "size f" 2 (Doc.size d (pre "f"));
  check_int "size c" 0 (Doc.size d (pre "c"));
  check_int "height" 3 (Doc.height d);
  check_int "parent of j" (pre "i") (Doc.parent d (pre "j"));
  check_int "parent of root" (-1) (Doc.parent d 0)

(* The worked examples in §2: f/preceding = (b,c,d); g/ancestor = (a,e,f);
   (c)/following = (d,e,f,g,h,i,j). *)
let test_paper_regions () =
  let d = doc () in
  let region axis context =
    Test_support.spec_step d axis (Nodeseq.singleton (pre context))
  in
  let seq names = Nodeseq.of_unsorted (List.map pre names) in
  Alcotest.check nodeseq "f/preceding" (seq [ "b"; "c"; "d" ]) (region Axis.Preceding "f");
  Alcotest.check nodeseq "g/ancestor" (seq [ "a"; "e"; "f" ]) (region Axis.Ancestor "g");
  Alcotest.check nodeseq "f/descendant" (seq [ "g"; "h" ]) (region Axis.Descendant "f");
  Alcotest.check nodeseq "f/following" (seq [ "i"; "j" ]) (region Axis.Following "f");
  Alcotest.check nodeseq "c/following"
    (seq [ "d"; "e"; "f"; "g"; "h"; "i"; "j" ])
    (region Axis.Following "c");
  (* the four regions plus the context node cover the document *)
  let all =
    List.fold_left Nodeseq.union
      (Nodeseq.singleton (pre "f"))
      [
        region Axis.Preceding "f"; region Axis.Descendant "f"; region Axis.Ancestor "f";
        region Axis.Following "f";
      ]
  in
  check_int "partition covers all" 10 (Nodeseq.length all)

let test_paper_eq1 () =
  let d = doc () in
  for v = 0 to Doc.n_nodes d - 1 do
    check_int "Eq. (1)" (Doc.size d v) (Doc.post d v - v + Doc.level d v);
    check_bool "lower bound" true (Doc.size_lower_bound d v <= Doc.size d v);
    check_bool "upper bound" true (Doc.size_upper_bound d v >= Doc.size d v)
  done

(* ------------------------------------------------------------------ *)
(* attributes and other node kinds                                     *)
(* ------------------------------------------------------------------ *)

let mixed_doc () =
  Doc.of_tree
    (Tree.elem ~attributes:[ ("id", "r1"); ("lang", "en") ] "r"
       [
         Tree.text "hello";
         Tree.elem ~attributes:[ ("x", "1") ] "child" [ Tree.text "world" ];
         Tree.Comment "a comment";
         Tree.Pi { target = "sort"; data = "x" };
       ])

let test_kinds_and_content () =
  let d = mixed_doc () in
  validate_ok d;
  check_int "9 nodes" 9 (Doc.n_nodes d);
  Alcotest.(check string) "root tag" "r" (Option.get (Doc.tag_name d 0));
  check_bool "attr kind" true (Doc.kind d 1 = Doc.Attribute);
  Alcotest.(check (option string)) "attr name" (Some "id") (Doc.tag_name d 1);
  Alcotest.(check (option string)) "attr value" (Some "r1") (Doc.content d 1);
  check_bool "text kind" true (Doc.kind d 3 = Doc.Text);
  Alcotest.(check (option string)) "text content" (Some "hello") (Doc.content d 3);
  Alcotest.(check string) "string_value of root" "helloworld" (Doc.string_value d 0)

let test_attribute_axis_semantics () =
  let d = mixed_doc () in
  let attrs = Test_support.spec_step d Axis.Attribute (Nodeseq.singleton 0) in
  check_int "root has 2 attributes" 2 (Nodeseq.length attrs);
  let desc = Test_support.spec_step d Axis.Descendant (Nodeseq.singleton 0) in
  (* descendant excludes the 3 attribute nodes and the context *)
  check_int "descendant count" (9 - 1 - 3) (Nodeseq.length desc);
  Nodeseq.iter (fun v -> check_bool "no attributes" true (Doc.kind d v <> Doc.Attribute)) desc;
  let child = Test_support.spec_step d Axis.Child (Nodeseq.singleton 0) in
  check_int "children exclude attributes" 4 (Nodeseq.length child)

let test_tag_positions () =
  let d = doc () in
  Alcotest.(check (array int)) "positions of f" [| 5 |] (Doc.tag_positions d "f");
  Alcotest.(check (array int)) "no such tag" [||] (Doc.tag_positions d "zz");
  let d2 = Doc.of_tree (Tree.elem "x" [ Tree.elem "y" []; Tree.elem "x" [ Tree.elem "y" [] ] ]) in
  Alcotest.(check (array int)) "multiple" [| 1; 3 |] (Doc.tag_positions d2 "y")

let test_pre_of_post () =
  let d = doc () in
  for v = 0 to 9 do
    check_int "roundtrip" v (Doc.pre_of_post d (Doc.post d v))
  done

let test_of_string () =
  match Doc.of_string "<a><b/>text</a>" with
  | Ok d ->
    check_int "nodes" 3 (Doc.n_nodes d);
    validate_ok d
  | Error e -> Alcotest.failf "of_string failed: %s" e

let test_of_string_error () =
  match Doc.of_string "<a><b></a>" with
  | Ok _ -> Alcotest.fail "expected parse failure"
  | Error _ -> ()

(* the streaming (SAX) loader must produce exactly the tree loader's
   encoding *)
let sax_equals_tree tree =
  let via_tree = Doc.of_tree tree in
  let xml = Scj_xml.Printer.to_string tree in
  match Doc.of_string xml with
  | Error e -> Alcotest.failf "streaming load failed: %s" e
  | Ok via_sax ->
    let n = Doc.n_nodes via_tree in
    Alcotest.(check int) "same node count" n (Doc.n_nodes via_sax);
    for v = 0 to n - 1 do
      if
        Doc.post via_tree v <> Doc.post via_sax v
        || Doc.level via_tree v <> Doc.level via_sax v
        || Doc.parent via_tree v <> Doc.parent via_sax v
        || Doc.kind via_tree v <> Doc.kind via_sax v
        || Doc.tag_name via_tree v <> Doc.tag_name via_sax v
        || Doc.content via_tree v <> Doc.content via_sax v
      then Alcotest.failf "loaders disagree at pre %d" v
    done

let test_sax_loader_matches_tree_loader () =
  sax_equals_tree Test_support.paper_tree;
  sax_equals_tree
    (Tree.elem ~attributes:[ ("x", "1") ] "r"
       [ Tree.text "t"; Tree.Comment "c"; Tree.Pi { target = "p"; data = "d" };
         Tree.elem ~attributes:[ ("y", "2") ] "e" [ Tree.text "u" ] ])

(* documents far deeper than any realistic XML must still load: the SAX
   loader and the parser are both iterative in document depth, and the
   loader takes a node's level from a depth counter, so loading stays
   linear in the document size *)
let test_deep_document () =
  let depth = 1_000_000 in
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do
    Buffer.add_string buf "<d>"
  done;
  Buffer.add_string buf "x";
  for _ = 1 to depth do
    Buffer.add_string buf "</d>"
  done;
  match Doc.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "deep document: %s" e
  | Ok d ->
    Alcotest.(check int) "nodes" (depth + 1) (Doc.n_nodes d);
    Alcotest.(check int) "height" depth (Doc.height d);
    validate_ok ~msg:"deep document" d;
    (* ... and answer queries: the guide cursor of //d holds one path per
       level, so planning must stay linear in the depth *)
    let db = Scj_db.Db.of_doc d in
    let count q =
      match Scj_db.Db.query db q with
      | Ok r -> Nodeseq.length r
      | Error e -> Alcotest.failf "%s: %s" q (Scj_error.Error.to_string e)
    in
    Alcotest.(check int) "//d" depth (count "//d");
    Alcotest.(check int) "//text()/ancestor::d" depth (count "//text()/ancestor::d");
    Alcotest.(check int) "//d/ancestor::d" (depth - 1) (count "//d/ancestor::d")

let docs_equal_fwd a b =
  Doc.n_nodes a = Doc.n_nodes b
  &&
  let ok = ref true in
  for v = 0 to Doc.n_nodes a - 1 do
    if
      Doc.post a v <> Doc.post b v
      || Doc.kind a v <> Doc.kind b v
      || Doc.tag_name a v <> Doc.tag_name b v
      || Doc.content a v <> Doc.content b v
    then ok := false
  done;
  !ok

let test_to_tree_roundtrip () =
  let d = mixed_doc () in
  let rebuilt = Doc.to_tree d 0 in
  let reencoded = Doc.of_tree rebuilt in
  check_bool "reconstruction reencodes identically" true (docs_equal_fwd d reencoded);
  (* subtree extraction: pre 4 is the <child x='1'> element *)
  match Doc.to_tree d 4 with
  | Tree.Element e ->
    Alcotest.(check string) "subtree root" "child" e.Tree.name;
    Alcotest.(check (list (pair string string))) "subtree attrs" [ ("x", "1") ] e.Tree.attributes
  | _ -> Alcotest.fail "expected the child element"

let prop_to_tree_roundtrip =
  QCheck.Test.make ~count:200 ~name:"to_tree then of_tree is the identity encoding"
    (QCheck.make (Test_support.tree_gen ()))
    (fun tree ->
      let d = Doc.of_tree tree in
      let d' = Doc.of_tree (Doc.to_tree d 0) in
      docs_equal_fwd d d')

let prop_sax_loader =
  QCheck.Test.make ~count:200 ~name:"streaming loader = tree loader"
    (QCheck.make (Test_support.tree_gen ()))
    (fun tree ->
      (* normalize: printing then tree-parsing merges adjacent text; load
         both sides from the same serialized form *)
      let xml = Scj_xml.Printer.to_string tree in
      match (Scj_xml.Parser.parse_string ~strip_ws:true xml, Doc.of_string xml) with
      | Ok t, Ok sax ->
        let via_tree = Doc.of_tree t in
        let n = Doc.n_nodes via_tree in
        n = Doc.n_nodes sax
        &&
        let ok = ref true in
        for v = 0 to n - 1 do
          if Doc.post via_tree v <> Doc.post sax v || Doc.tag_name via_tree v <> Doc.tag_name sax v
          then ok := false
        done;
        !ok
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* node sequences                                                      *)
(* ------------------------------------------------------------------ *)

let test_nodeseq_construction () =
  Alcotest.check nodeseq "of_unsorted dedups" (Nodeseq.of_sorted_array [| 1; 3; 5 |])
    (Nodeseq.of_unsorted [ 5; 1; 3; 1; 5 ]);
  Alcotest.check nodeseq "of_array sorts and dedups" (Nodeseq.of_sorted_array [| 1; 3; 5 |])
    (Nodeseq.of_array [| 5; 1; 3; 1; 5 |]);
  Alcotest.check nodeseq "of_array adopts a sorted array" (Nodeseq.of_sorted_array [| 2; 4 |])
    (Nodeseq.of_array [| 2; 4 |]);
  check_int "empty" 0 (Nodeseq.length Nodeseq.empty);
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Nodeseq.of_sorted_array: ranks must be strictly increasing") (fun () ->
      ignore (Nodeseq.of_sorted_array [| 2; 1 |]));
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Nodeseq.singleton: negative preorder rank") (fun () ->
      ignore (Nodeseq.singleton (-1)))

let test_nodeseq_of_range () =
  Alcotest.check nodeseq "consecutive run" (Nodeseq.of_unsorted [ 3; 4; 5 ])
    (Nodeseq.of_range ~lo:3 ~hi:5);
  Alcotest.check nodeseq "singleton run" (Nodeseq.singleton 7) (Nodeseq.of_range ~lo:7 ~hi:7);
  Alcotest.check nodeseq "empty when hi < lo" Nodeseq.empty (Nodeseq.of_range ~lo:5 ~hi:4);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Nodeseq.of_range: negative preorder rank") (fun () ->
      ignore (Nodeseq.of_range ~lo:(-1) ~hi:2))

let test_nodeseq_set_ops () =
  let a = Nodeseq.of_unsorted [ 1; 3; 5; 7 ] and b = Nodeseq.of_unsorted [ 3; 4; 7; 9 ] in
  Alcotest.check nodeseq "union" (Nodeseq.of_unsorted [ 1; 3; 4; 5; 7; 9 ]) (Nodeseq.union a b);
  Alcotest.check nodeseq "inter" (Nodeseq.of_unsorted [ 3; 7 ]) (Nodeseq.inter a b);
  Alcotest.check nodeseq "diff" (Nodeseq.of_unsorted [ 1; 5 ]) (Nodeseq.diff a b);
  Alcotest.check nodeseq "union empty" a (Nodeseq.union a Nodeseq.empty);
  (* merges that fill their whole output buffer, and ones that do not,
     return exactly the result's length *)
  let odd = Nodeseq.of_unsorted [ 2; 4; 6 ] in
  List.iter
    (fun (what, expected, actual) ->
      Alcotest.check nodeseq what expected actual;
      check_int (what ^ ": exact length") (Nodeseq.length expected) (Nodeseq.length actual))
    [
      ("disjoint union", Nodeseq.of_unsorted [ 1; 2; 3; 4; 5; 6; 7 ], Nodeseq.union a odd);
      ("overlapping union", Nodeseq.of_unsorted [ 1; 3; 4; 5; 7; 9 ], Nodeseq.union a b);
      ("inter with itself", a, Nodeseq.inter a (Nodeseq.of_unsorted [ 1; 3; 5; 7 ]));
      ("partial inter", Nodeseq.of_unsorted [ 3; 7 ], Nodeseq.inter a b);
      ("diff of a disjoint set", a, Nodeseq.diff a odd);
      ("partial diff", Nodeseq.of_unsorted [ 1; 5 ], Nodeseq.diff a b);
    ];
  let seen = ref [] in
  Alcotest.check nodeseq "filter" (Nodeseq.of_unsorted [ 3; 7 ])
    (Nodeseq.filter
       (fun v ->
         seen := v :: !seen;
         v = 3 || v = 7)
       a);
  Alcotest.(check (list int)) "filter calls its predicate once per element, in order"
    [ 1; 3; 5; 7 ] (List.rev !seen);
  check_bool "mem hit" true (Nodeseq.mem a 5);
  check_bool "mem miss" false (Nodeseq.mem a 4)

let prop_nodeseq_ops =
  let module IS = Set.Make (Int) in
  QCheck.Test.make ~count:300 ~name:"nodeseq set ops agree with Set"
    QCheck.(pair (list (int_bound 50)) (list (int_bound 50)))
    (fun (xs, ys) ->
      let a = Nodeseq.of_unsorted xs and b = Nodeseq.of_unsorted ys in
      let sa = IS.of_list xs and sb = IS.of_list ys in
      Nodeseq.to_list (Nodeseq.union a b) = IS.elements (IS.union sa sb)
      && Nodeseq.to_list (Nodeseq.inter a b) = IS.elements (IS.inter sa sb)
      && Nodeseq.to_list (Nodeseq.diff a b) = IS.elements (IS.diff sa sb))

(* ------------------------------------------------------------------ *)
(* attribute prefix sums and the blit copy-phase kernel                *)
(* ------------------------------------------------------------------ *)

let prop_attr_prefix =
  QCheck.Test.make ~count:300 ~name:"attr prefix sums count attributes exactly"
    (Test_support.doc_arbitrary ())
    (fun d ->
      let n = Doc.n_nodes d in
      let kinds = Doc.kind_array d in
      let ap = Doc.attr_prefix_array d in
      let ok = ref (Array.length ap = n + 1 && ap.(0) = 0) in
      for i = 0 to n - 1 do
        if ap.(i + 1) - ap.(i) <> (if kinds.(i) = Doc.Attribute then 1 else 0) then ok := false
      done;
      (* O(1) range counts agree with a linear scan over every window
         anchored at lo = 0 mod 7 *)
      for lo = 0 to n - 1 do
        if lo mod 7 = 0 then begin
          let hi = n - 1 in
          let naive = ref 0 in
          for i = lo to hi do
            if kinds.(i) = Doc.Attribute then incr naive
          done;
          if Doc.attr_count_range d ~lo ~hi <> !naive then ok := false
        end
      done;
      !ok && Doc.attr_count_range d ~lo:3 ~hi:2 = 0)

let prop_append_nonattr_range =
  QCheck.Test.make ~count:300 ~name:"blit kernel = per-node attribute filter"
    (QCheck.make
       ~print:(fun (d, lo, hi) -> Printf.sprintf "%s window=[%d,%d]" (Test_support.doc_print d) lo hi)
       QCheck.Gen.(
         Test_support.doc_gen () >>= fun d ->
         let n = Doc.n_nodes d in
         int_range 0 (n - 1) >>= fun a ->
         int_range 0 (n - 1) >>= fun b ->
         return (d, min a b, max a b)))
    (fun (d, lo, hi) ->
      let kinds = Doc.kind_array d in
      let blit = Scj_bat.Int_col.create () in
      let appended = Doc.append_nonattr_range d blit ~lo ~hi in
      let point = Scj_bat.Int_col.create () in
      for i = lo to hi do
        if kinds.(i) <> Doc.Attribute then Scj_bat.Int_col.append_unit point i
      done;
      Scj_bat.Int_col.equal blit point && appended = Scj_bat.Int_col.length point)

(* ------------------------------------------------------------------ *)
(* properties over random documents                                    *)
(* ------------------------------------------------------------------ *)

let prop_validate =
  QCheck.Test.make ~count:300 ~name:"every encoded random tree validates"
    (Test_support.doc_arbitrary ())
    (fun d -> match Doc.validate d with Ok () -> true | Error e -> QCheck.Test.fail_reportf "%s" e)

let prop_node_count =
  QCheck.Test.make ~count:200 ~name:"n_nodes matches Tree.node_count"
    (QCheck.make (Test_support.tree_gen ()))
    (fun tree -> Doc.n_nodes (Doc.of_tree tree) = Tree.node_count tree)

let prop_height =
  QCheck.Test.make ~count:200 ~name:"height matches Tree.height"
    (QCheck.make (Test_support.tree_gen ()))
    (fun tree -> Doc.height (Doc.of_tree tree) = Tree.height tree)

let prop_axis_partition =
  QCheck.Test.make ~count:200 ~name:"4 regions + self partition the document"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      QCheck.assume (Nodeseq.length ctx = 1);
      let c = Nodeseq.get ctx 0 in
      let n = Doc.n_nodes d in
      let count axis =
        let hits = ref 0 in
        for v = 0 to n - 1 do
          if Axis.in_region d axis ~context:c v then incr hits
        done;
        !hits
      in
      (* counted over ALL nodes (attributes included), the strict pre/post
         quadrants partition the plane; our axes additionally filter
         attributes, so count them back in *)
      let attrs_not_self = ref 0 in
      for v = 0 to n - 1 do
        if Doc.kind d v = Doc.Attribute && v <> c then incr attrs_not_self
      done;
      count Axis.Descendant + count Axis.Ancestor + count Axis.Preceding + count Axis.Following
      + !attrs_not_self
      + 1
      = n)

let prop_child_parent_dual =
  QCheck.Test.make ~count:200 ~name:"child and parent are dual"
    (Test_support.doc_arbitrary ~max_nodes:30 ())
    (fun d ->
      let n = Doc.n_nodes d in
      let ok = ref true in
      for c = 0 to n - 1 do
        for v = 0 to n - 1 do
          let child = Axis.in_region d Axis.Child ~context:c v in
          let parent = Axis.in_region d Axis.Parent ~context:v c in
          let attr = Doc.kind d v = Doc.Attribute in
          if child && not parent then ok := false;
          if parent && not child && not attr then ok := false
        done
      done;
      !ok)

let prop_desc_anc_dual =
  QCheck.Test.make ~count:100 ~name:"descendant and ancestor are dual"
    (Test_support.doc_arbitrary ~max_nodes:30 ())
    (fun d ->
      let n = Doc.n_nodes d in
      let ok = ref true in
      for c = 0 to n - 1 do
        for v = 0 to n - 1 do
          let desc = Axis.in_region d Axis.Descendant ~context:c v in
          let anc = Axis.in_region d Axis.Ancestor ~context:v c in
          let v_attr = Doc.kind d v = Doc.Attribute in
          if desc && not anc then ok := false;
          (* anc misses only attribute descendants *)
          if anc && not desc && not v_attr then ok := false
        done
      done;
      !ok)

let prop_size_slice =
  QCheck.Test.make ~count:200 ~name:"subtree slice [pre+1, pre+size] = strict descendants + attrs"
    (Test_support.doc_arbitrary ())
    (fun d ->
      let n = Doc.n_nodes d in
      let ok = ref true in
      for c = 0 to n - 1 do
        let post_c = Doc.post d c in
        for v = c + 1 to c + Doc.size d c do
          if not (Doc.post d v < post_c) then ok := false
        done;
        if c + Doc.size d c + 1 < n then begin
          let w = c + Doc.size d c + 1 in
          if Doc.post d w < post_c then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* codec                                                               *)
(* ------------------------------------------------------------------ *)

let docs_equal a b =
  Doc.n_nodes a = Doc.n_nodes b
  && Doc.height a = Doc.height b
  &&
  let ok = ref true in
  for v = 0 to Doc.n_nodes a - 1 do
    if
      Doc.post a v <> Doc.post b v
      || Doc.level a v <> Doc.level b v
      || Doc.parent a v <> Doc.parent b v
      || Doc.size a v <> Doc.size b v
      || Doc.kind a v <> Doc.kind b v
      || Doc.tag_name a v <> Doc.tag_name b v
      || Doc.content a v <> Doc.content b v
    then ok := false
  done;
  !ok

let roundtrip_file d =
  let path = Filename.temp_file "scjdoc" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write_file path d;
      match Codec.read_file path with
      | Ok d' -> d'
      | Error e -> Alcotest.failf "codec read failed: %s" e)

let test_of_file () =
  let path = Filename.temp_file "scjxml" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "<r><a/><b>t</b></r>");
      match Doc.of_file path with
      | Ok d ->
        Alcotest.(check int) "nodes" 4 (Doc.n_nodes d);
        validate_ok d
      | Error e -> Alcotest.failf "of_file: %s" e)

let test_codec_roundtrip () =
  check_bool "paper doc" true (docs_equal (doc ()) (roundtrip_file (doc ())));
  check_bool "mixed kinds" true (docs_equal (mixed_doc ()) (roundtrip_file (mixed_doc ())))

let test_codec_rejects_garbage () =
  let path = Filename.temp_file "scjdoc" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "not a document";
      close_out oc;
      match Codec.read_file path with
      | Ok _ -> Alcotest.fail "garbage accepted"
      | Error _ -> ())

let test_codec_rejects_truncated () =
  let path = Filename.temp_file "scjdoc" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Codec.write_file path (doc ());
      let full = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full / 2));
      close_out oc;
      match Codec.read_file path with
      | Ok _ -> Alcotest.fail "truncated file accepted"
      | Error _ -> ())

let prop_codec_roundtrip =
  QCheck.Test.make ~count:100 ~name:"codec roundtrips random documents"
    (Test_support.doc_arbitrary ())
    (fun d -> docs_equal d (roundtrip_file d))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_nodeseq_ops; prop_validate; prop_node_count; prop_height; prop_axis_partition;
      prop_child_parent_dual; prop_desc_anc_dual; prop_size_slice; prop_attr_prefix;
      prop_append_nonattr_range; prop_codec_roundtrip; prop_sax_loader; prop_to_tree_roundtrip;
    ]

let () =
  Alcotest.run "scj_encoding"
    [
      ( "paper example",
        [
          Alcotest.test_case "pre/post table of Fig. 2" `Quick test_paper_pre_post_table;
          Alcotest.test_case "levels and sizes" `Quick test_paper_levels_sizes;
          Alcotest.test_case "region examples of §2" `Quick test_paper_regions;
          Alcotest.test_case "Equation (1)" `Quick test_paper_eq1;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "kinds and content" `Quick test_kinds_and_content;
          Alcotest.test_case "attribute axis" `Quick test_attribute_axis_semantics;
          Alcotest.test_case "tag positions" `Quick test_tag_positions;
          Alcotest.test_case "pre_of_post" `Quick test_pre_of_post;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "of_string error" `Quick test_of_string_error;
          Alcotest.test_case "sax loader = tree loader" `Quick test_sax_loader_matches_tree_loader;
          Alcotest.test_case "1M-deep document" `Quick test_deep_document;
          Alcotest.test_case "to_tree roundtrip" `Quick test_to_tree_roundtrip;
          Alcotest.test_case "of_file" `Quick test_of_file;
        ] );
      ( "nodeseq",
        [
          Alcotest.test_case "construction" `Quick test_nodeseq_construction;
          Alcotest.test_case "of_range" `Quick test_nodeseq_of_range;
          Alcotest.test_case "set operations" `Quick test_nodeseq_set_ops;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "rejects truncation" `Quick test_codec_rejects_truncated;
        ] );
      ("properties", qsuite);
    ]
