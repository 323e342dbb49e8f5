(* Strong dataguide: construction over known trees (one summary node per
   distinct root path, disjoint member sets), the planner statistics and
   name partitions folded from it against a document scan, cursor
   stepping against an evaluation oracle, blob persistence (with a
   byte-level corruption fuzz), store integration — and the maintenance
   fuzz: after every random Update op, the incrementally maintained
   guide must equal a from-scratch rebuild of the new document,
   member-for-member. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Update = Scj_encoding.Update
module Tree = Scj_xml.Tree
module Guide = Scj_guide.Guide
module Doc_stats = Scj_guide.Doc_stats
module Store = Scj_store.Store
module Eval = Scj_xpath.Eval
module Fuzz = Test_support.Fuzz
module Doc_scan = Test_support.Doc_scan

let members_t = Alcotest.(list (pair string (array int)))

let alist g = Guide.members_alist g

let doc_of_string s =
  match Doc.of_string s with Ok d -> d | Error e -> Alcotest.failf "parse: %s" e

(* ------------------------------------------------------------------ *)
(* construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Fig. 2 of the paper: ten nodes, ten distinct paths, each summary node
   holding exactly one member at its preorder rank. *)
let test_paper_tree () =
  let g = Guide.build (Lazy.force Test_support.paper_doc) in
  Alcotest.(check int) "doc_nodes" 10 (Guide.doc_nodes g);
  Alcotest.(check int) "n_paths" 10 (Guide.n_paths g);
  Alcotest.check members_t "one member per path"
    [
      ("/a", [| 0 |]); ("/a/b", [| 1 |]); ("/a/b/c", [| 2 |]); ("/a/d", [| 3 |]);
      ("/a/e", [| 4 |]); ("/a/e/f", [| 5 |]); ("/a/e/f/g", [| 6 |]); ("/a/e/f/h", [| 7 |]);
      ("/a/e/i", [| 8 |]); ("/a/e/i/j", [| 9 |]);
    ]
    (alist g)

(* Recursive tags: the two <a> and the two <b> land on distinct summary
   nodes because their root paths differ — the "strong" in strong
   dataguide. *)
let test_recursive_tags () =
  let g = Guide.build (doc_of_string "<a><a><b/></a><b/></a>") in
  Alcotest.(check int) "n_paths" 4 (Guide.n_paths g);
  Alcotest.check members_t "paths split by depth"
    [ ("/a", [| 0 |]); ("/a/a", [| 1 |]); ("/a/a/b", [| 2 |]); ("/a/b", [| 3 |]) ]
    (alist g);
  let root = Guide.root_cursor g in
  Alcotest.(check int) "descendant::b card" 2
    (Guide.card g (Guide.descendant_step g root ~name:"b"));
  Alcotest.(check int) "child::b card" 1
    (Guide.card g (Guide.child_step g root ~kind:Doc.Element ~name:"b"));
  Alcotest.(check int) "descendant-or-self::a card" 2
    (Guide.card g (Guide.descendant_step g ~or_self:true root ~name:"a"));
  (* ancestor steps are upper bounds but still path-exact here *)
  let deep_b = Guide.descendant_step g root ~name:"b" in
  Alcotest.(check int) "ancestor::a of the b's" 2
    (Guide.card g (Guide.ancestor_step g deep_b ~name:"a"))

let test_attribute_only_children () =
  let g = Guide.build (doc_of_string "<r><p a1=\"x\" a2=\"y\"/></r>") in
  Alcotest.check members_t "attribute summary nodes"
    [ ("/r", [| 0 |]); ("/r/p", [| 1 |]); ("/r/p/@a1", [| 2 |]); ("/r/p/@a2", [| 3 |]) ]
    (alist g);
  let p =
    Guide.child_step g (Guide.root_cursor g) ~kind:Doc.Element ~name:"p"
  in
  Alcotest.(check int) "attribute::a1 card" 1
    (Guide.card g (Guide.child_step g p ~kind:Doc.Attribute ~name:"a1"));
  Alcotest.(check bool) "attribute::zz empty" true
    (Guide.is_empty (Guide.child_step g p ~kind:Doc.Attribute ~name:"zz"));
  let info =
    List.find (fun i -> String.equal i.Guide.path "/r/p") (Guide.infos g)
  in
  Alcotest.(check int) "p carries 2 attribute members" 2 info.Guide.attrs

let test_text_children () =
  let g = Guide.build (doc_of_string "<r>hi<c/>bye</r>") in
  let texts =
    Guide.child_step g (Guide.root_cursor g) ~kind:Doc.Text ~name:""
  in
  Alcotest.(check int) "both text runs share one path" 2 (Guide.card g texts);
  Alcotest.(check int) "one summary node" 1 (Guide.cursor_size texts);
  Alcotest.(check (list int)) "its members are the text runs" [ 1; 3 ]
    (Nodeseq.to_list (Guide.members g (Guide.cursor_ids texts)));
  Alcotest.(check (array int)) "path spelling" [| 1; 3 |] (List.assoc "/r/#text" (alist g))

(* Summary member sets must partition the document: every row appears in
   exactly one summary node. *)
let test_members_partition () =
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          let doc = Fuzz.doc shape seed in
          let g = Guide.build doc in
          let all =
            List.concat_map (fun (_, ms) -> Array.to_list ms) (alist g)
            |> List.sort compare
          in
          Alcotest.(check (list int))
            (Printf.sprintf "shape=%s seed=%d covers every row once"
               (Fuzz.shape_to_string shape) seed)
            (List.init (Doc.n_nodes doc) Fun.id)
            all)
        [ 0; 1 ])
    Fuzz.all_shapes

(* The statistics folded from the guide state what a scan of the
   document counts, and every element and attribute name's partition is
   that name's positions of its kind. *)
let test_stats_match_scan () =
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          let doc = Fuzz.doc shape seed in
          let g = Guide.build doc in
          Doc_scan.check
            (Printf.sprintf "shape=%s seed=%d" (Fuzz.shape_to_string shape) seed)
            doc g (Doc_stats.of_guide g doc))
        (Fuzz.seeds 4))
    Fuzz.all_shapes

(* Multi-path partitions merge in document order: <a> on four paths,
   one of them holding the first and the last <a>; @k under three
   parents. *)
let test_partition_merge () =
  let doc = doc_of_string "<r><a k='1'><b><a k='2'/></b><a/></a><b k='3'><a/></b><a/></r>" in
  let g = Guide.build doc in
  let st = Doc_stats.of_guide g doc in
  let partition (ts : Doc_stats.tag_stats) =
    (List.length ts.paths, Nodeseq.to_list (Guide.members g ts.paths))
  in
  Alcotest.(check (pair int (list int))) "<a> on four paths" (4, [ 1; 4; 6; 9; 10 ])
    (partition (Doc_stats.tag st "a"));
  Alcotest.(check (pair int (list int))) "@k on three paths" (3, [ 2; 5; 8 ])
    (partition (Doc_stats.attribute st "k"));
  Alcotest.(check (pair int (list int))) "no <zz>" (0, []) (partition (Doc_stats.tag st "zz"));
  Doc_scan.check "merge fixture" doc g st

(* Downward cursor cardinalities against the evaluator: for child chains
   and descendant steps from the root the guide must be exact.  The
   evaluator is forced and reads no partition, so it counts
   independently of the guide. *)
let test_cursor_oracle () =
  let doc = Fuzz.doc Fuzz.Uniform 3 in
  let g = Guide.build doc in
  let forced = `Force (Scj_plan.Plan.Serial Scj_trace.Exec.Estimation) in
  let session = Eval.session ~strategy:{ Eval.backend = forced; pushdown = `Never } doc in
  let count q =
    match Eval.run session q with
    | Ok ns -> Nodeseq.length ns
    | Error e -> Alcotest.failf "%s: %s" q (Scj_error.Error.to_string e)
  in
  Array.iter
    (fun name ->
      let root = Guide.root_cursor g in
      Alcotest.(check int)
        (Printf.sprintf "//%s" name)
        (count (Printf.sprintf "/descendant-or-self::node()/child::%s" name))
        (Guide.card g (Guide.descendant_step g root ~name));
      Alcotest.(check int)
        (Printf.sprintf "/root/%s" name)
        (count (Printf.sprintf "/root/%s" name))
        (Guide.card g (Guide.child_step g root ~kind:Doc.Element ~name)))
    [| "a"; "b"; "item"; "x"; "y"; "nosuch" |]

(* ------------------------------------------------------------------ *)
(* persistence                                                         *)
(* ------------------------------------------------------------------ *)

let test_blob_roundtrip () =
  List.iter
    (fun shape ->
      let g = Guide.build (Fuzz.doc shape 1) in
      match Guide.deserialize (Guide.serialize g) with
      | Error e -> Alcotest.failf "roundtrip failed: %s" e
      | Ok g' ->
        Alcotest.(check bool)
          (Printf.sprintf "%s roundtrips" (Fuzz.shape_to_string shape))
          true (Guide.equal g g');
        Alcotest.check members_t "members survive" (alist g) (alist g'))
    Fuzz.all_shapes

let test_blob_corrupt () =
  let g = Guide.build (Fuzz.doc Fuzz.Uniform 2) in
  let blob = Guide.serialize g in
  (* bad magic *)
  let bad = Bytes.copy blob in
  Bytes.set bad 0 (Char.chr (Char.code (Bytes.get bad 0) lxor 0xff));
  (match Guide.deserialize bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt magic accepted");
  (* truncated tail *)
  (match Guide.deserialize (Bytes.sub blob 0 (Bytes.length blob - 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated blob accepted");
  match Guide.deserialize Bytes.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty blob accepted"

(* [deserialize] answers every blob with Ok or Error; it never raises. *)
let decodes_or_rejects what blob =
  match Guide.deserialize blob with
  | Ok _ | Error _ -> ()
  | exception e -> Alcotest.failf "%s: deserialize raised %s" what (Printexc.to_string e)

(* The blob's header is four ints; the first node's parent, kind and name
   length follow, then its name and its member count. *)
let test_blob_corrupt_counts () =
  let blob = Guide.serialize (Guide.build (doc_of_string "<r><a x='1'>t</a><b/></r>")) in
  let with_int pos v =
    let b = Bytes.copy blob in
    Bytes.set_int64_le b pos (Int64.of_int v);
    b
  in
  let rejected what b =
    match Guide.deserialize b with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  rejected "member count 2^40" (with_int ((7 * 8) + String.length "r") (1 lsl 40));
  rejected "name length near max_int" (with_int (6 * 8) (max_int - 4))

(* Byte-level fuzz: random bytes (half of them behind a valid header),
   every truncation and every single-bit flip of each shape's blob. *)
let test_blob_fuzz () =
  let st = Random.State.make [| 0xb10b |] in
  let header = Bytes.sub (Guide.serialize (Guide.build (Fuzz.doc Fuzz.Tiny 0))) 0 16 in
  for i = 1 to 500 do
    let noise = Bytes.init (Random.State.int st 300) (fun _ -> Char.chr (Random.State.int st 256)) in
    let blob = if i mod 2 = 0 then Bytes.cat header noise else noise in
    decodes_or_rejects (Printf.sprintf "random blob %d" i) blob
  done;
  List.iter
    (fun shape ->
      let blob = Guide.serialize (Guide.build (Fuzz.doc shape 1)) in
      let what = Fuzz.shape_to_string shape in
      for len = 0 to Bytes.length blob - 1 do
        decodes_or_rejects (Printf.sprintf "%s truncated to %d" what len) (Bytes.sub blob 0 len)
      done;
      for bit = 0 to (8 * Bytes.length blob) - 1 do
        let b = Bytes.copy blob in
        let byte = bit / 8 in
        Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
        decodes_or_rejects (Printf.sprintf "%s bit %d flipped" what bit) b
      done)
    Fuzz.all_shapes

(* ------------------------------------------------------------------ *)
(* maintenance fuzz: update == rebuild                                 *)
(* ------------------------------------------------------------------ *)

let pres_of_kind doc k =
  let acc = ref [] in
  Array.iteri (fun pre k' -> if k = k' then acc := pre :: !acc) (Doc.kind_array doc);
  Array.of_list (List.rev !acc)

let pick st arr = arr.(Random.State.int st (Array.length arr))

let small_fragment st =
  match Random.State.int st 3 with
  | 0 -> Tree.elem "item" [ Tree.text "ins" ]
  | 1 -> Tree.elem ~attributes:[ ("k0", "9") ] "a" [ Tree.elem "y" [] ]
  | _ -> Tree.text "spliced"

let random_op st doc =
  let elements = pres_of_kind doc Doc.Element in
  match Random.State.int st 4 with
  | 0 | 1 ->
    Update.Insert { parent = pick st elements; before = None; fragment = small_fragment st }
  | 2 when Doc.n_nodes doc > 3 -> Update.Delete { pre = 1 + Random.State.int st (Doc.n_nodes doc - 1) }
  | _ -> Update.Rename { pre = pick st elements; name = Fuzz.pick_name st }

let fuzz_history ~checks shape seed =
  let st = Random.State.make [| 0x91de; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  let rec steps i doc g =
    if i >= 6 then ()
    else
      let op = random_op st doc in
      match Update.apply doc op with
      | Error _ -> steps i doc g
      | Ok applied ->
        incr checks;
        let what =
          Printf.sprintf "shape=%s seed=%d step=%d op=%s" (Fuzz.shape_to_string shape) seed i
            (Update.op_to_string op)
        in
        let next = applied.Update.doc in
        let g =
          Guide.update g ~old_doc:doc ~doc:next ~splice:applied.Update.splice
            ~delta:applied.Update.delta
        in
        let fresh = Guide.build next in
        if not (Guide.equal g fresh) then begin
          Alcotest.check members_t (what ^ ": incremental = rebuild") (alist fresh) (alist g);
          Alcotest.failf "%s: Guide.equal false but members agree" what
        end;
        steps (i + 1) next g
  in
  let doc = Fuzz.doc shape seed in
  steps 0 doc (Guide.build doc)

let test_fuzz () =
  let checks = ref 0 in
  List.iter
    (fun shape -> List.iter (fun seed -> fuzz_history ~checks shape seed) (Fuzz.seeds 3))
    Fuzz.all_shapes;
  Alcotest.(check bool)
    (Printf.sprintf "exercised %d mutations" !checks)
    true (!checks > 0)

(* ------------------------------------------------------------------ *)
(* store integration                                                   *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "scj_guide_test_%d_%d" (Unix.getpid ()) !dir_counter)

let wipe dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> wipe dir) (fun () -> f dir)

let pages_size dir = (Unix.stat (Filename.concat dir "pages.scj")).Unix.st_size

let check_guide what store doc =
  let got = alist (Store.guide store) in
  Alcotest.check members_t what (alist (Guide.build doc)) got

let test_store_roundtrip () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Uniform 5 in
      let s = Store.create ~path:dir doc in
      check_guide "guide on create" s doc;
      Store.close s;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "reopen: %s" (Scj_error.Error.to_string e)
      | Ok s ->
        (* clean v3 store: served from the persisted extent *)
        check_guide "guide on reopen" s doc;
        Store.close s)

let test_store_preguide () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Uniform 6 in
      let s = Store.create ~guide:false ~path:dir doc in
      Store.close s;
      let before = pages_size dir in
      match Store.open_ dir with
      | Error e -> Alcotest.failf "pre-guide store must open: %s" (Scj_error.Error.to_string e)
      | Ok s ->
        (* the v2 image has no guide extent: rebuilt in memory, banner on
           stderr, and the next checkpoint upgrades the file in place *)
        check_guide "rebuilt lazily" s doc;
        Store.checkpoint s;
        Alcotest.(check bool) "checkpoint appended the guide extent" true
          (pages_size dir > before);
        Store.close s;
        (match Store.open_ dir with
        | Error e -> Alcotest.failf "upgraded store: %s" (Scj_error.Error.to_string e)
        | Ok s ->
          check_guide "persisted after upgrade" s doc;
          Store.close s))

let test_store_maintenance () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Uniform 7 in
      let s = Store.create ~path:dir doc in
      ignore (Store.guide s);
      let st = Random.State.make [| 0x57a; 7 |] in
      for _ = 1 to 4 do
        match Store.apply s (random_op st (Store.doc s)) with
        | Ok _ | Error _ -> ()
      done;
      (* the memo was maintained across every applied op *)
      check_guide "incremental across Store.apply" s (Store.doc s);
      Store.checkpoint s;
      Store.close s;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "reopen: %s" (Scj_error.Error.to_string e)
      | Ok s' ->
        check_guide "checkpointed guide matches" s' (Store.doc s');
        Store.close s')

let () =
  Alcotest.run "guide"
    [
      ( "construction",
        [
          Alcotest.test_case "paper tree" `Quick test_paper_tree;
          Alcotest.test_case "recursive tags" `Quick test_recursive_tags;
          Alcotest.test_case "attribute-only children" `Quick test_attribute_only_children;
          Alcotest.test_case "text children" `Quick test_text_children;
          Alcotest.test_case "members partition the document" `Quick test_members_partition;
          Alcotest.test_case "statistics = document scan" `Quick test_stats_match_scan;
          Alcotest.test_case "multi-path partitions merge" `Quick test_partition_merge;
          Alcotest.test_case "cursor cardinality oracle" `Quick test_cursor_oracle;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "serialize/deserialize roundtrip" `Quick test_blob_roundtrip;
          Alcotest.test_case "corrupt blobs rejected" `Quick test_blob_corrupt;
          Alcotest.test_case "corrupt counts rejected" `Quick test_blob_corrupt_counts;
          Alcotest.test_case "byte-level fuzz never raises" `Quick test_blob_fuzz;
        ] );
      ("maintenance", [ Alcotest.test_case "update == rebuild fuzz" `Quick test_fuzz ]);
      ( "store",
        [
          Alcotest.test_case "v3 roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "pre-guide store upgrades" `Quick test_store_preguide;
          Alcotest.test_case "maintained across apply" `Quick test_store_maintenance;
        ] );
    ]
