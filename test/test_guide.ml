(* Strong dataguide: construction over known trees (one summary node per
   distinct root path, disjoint member sets), cursor stepping against an
   evaluation oracle, blob persistence, store integration — and the
   maintenance fuzz: after every random Update op, the incrementally
   maintained guide must equal a from-scratch rebuild of the new
   document, member-for-member. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Update = Scj_encoding.Update
module Tree = Scj_xml.Tree
module Guide = Scj_guide.Guide
module Store = Scj_store.Store
module Eval = Scj_xpath.Eval
module Fuzz = Test_support.Fuzz

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
    (Nodeseq.to_list (Guide.members g texts));
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

(* Downward cursor cardinalities against the evaluator: for child chains
   and descendant steps from the root the guide must be exact. *)
let test_cursor_oracle () =
  let doc = Fuzz.doc Fuzz.Uniform 3 in
  let g = Guide.build doc in
  let session = Eval.session doc in
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
          Alcotest.test_case "cursor cardinality oracle" `Quick test_cursor_oracle;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "serialize/deserialize roundtrip" `Quick test_blob_roundtrip;
          Alcotest.test_case "corrupt blobs rejected" `Quick test_blob_corrupt;
        ] );
      ("maintenance", [ Alcotest.test_case "update == rebuild fuzz" `Quick test_fuzz ]);
      ( "store",
        [
          Alcotest.test_case "v3 roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "pre-guide store upgrades" `Quick test_store_preguide;
          Alcotest.test_case "maintained across apply" `Quick test_store_maintenance;
        ] );
    ]
