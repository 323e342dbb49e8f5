(* Tests for the staircase join (lib/core): pruning, the partitioned scan,
   skipping, estimation-based skipping, and the view-based variants.  The
   ground truth throughout is Test_support.spec_step — the O(n·|ctx|)
   region-predicate evaluation. *)

module Doc = Scj_encoding.Doc
module Exec = Scj_trace.Exec
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Stats = Scj_stats.Stats
module Sj = Scj_core.Staircase

let nodeseq = Alcotest.testable Nodeseq.pp Nodeseq.equal

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let doc () = Lazy.force Test_support.paper_doc

let pre name = Test_support.pre_of_name (doc ()) name

let seq names = Nodeseq.of_unsorted (List.map pre names)

let all_modes = [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ]

let mode_name = Sj.skip_mode_to_string

(* ------------------------------------------------------------------ *)
(* pruning                                                             *)
(* ------------------------------------------------------------------ *)

(* Fig. 4: for context (d,e,f,h,i,j) of the paper tree, ancestor pruning
   removes e, f, i — each lies on a path from another context node to the
   root.  (Node names refer to our Fig.-1 tree in Test_support.) *)
let test_prune_anc_paper () =
  let d = doc () in
  let ctx = seq [ "d"; "e"; "f"; "h"; "i"; "j" ] in
  let stats = Stats.create () in
  let pruned = Sj.prune_anc ~exec:(Exec.make ~stats ()) d ctx in
  Alcotest.check nodeseq "kept d,h,j" (seq [ "d"; "h"; "j" ]) pruned;
  check_int "3 pruned" 3 stats.Stats.pruned;
  check_bool "staircase" true (Sj.is_staircase d pruned)

let test_prune_desc_basic () =
  let d = doc () in
  (* e covers f,g,i; b covers c *)
  let ctx = seq [ "b"; "c"; "e"; "f"; "i" ] in
  let pruned = Sj.prune_desc d ctx in
  Alcotest.check nodeseq "kept b,e" (seq [ "b"; "e" ]) pruned;
  check_bool "staircase" true (Sj.is_staircase d pruned)

let test_prune_desc_keeps_disjoint () =
  let d = doc () in
  let ctx = seq [ "b"; "d"; "f"; "i" ] in
  Alcotest.check nodeseq "nothing pruned" ctx (Sj.prune_desc d ctx)

let test_prune_following_preceding () =
  let d = doc () in
  let ctx = seq [ "d"; "f"; "i" ] in
  (* min post: d(post 2); max pre: i *)
  Alcotest.check nodeseq "following keeps min post" (seq [ "d" ]) (Sj.prune_following d ctx);
  Alcotest.check nodeseq "preceding keeps max pre" (seq [ "i" ]) (Sj.prune_preceding d ctx);
  Alcotest.check nodeseq "empty stays empty" Nodeseq.empty (Sj.prune_following d Nodeseq.empty)

let test_prune_empty_and_singleton () =
  let d = doc () in
  Alcotest.check nodeseq "desc empty" Nodeseq.empty (Sj.prune_desc d Nodeseq.empty);
  Alcotest.check nodeseq "anc empty" Nodeseq.empty (Sj.prune_anc d Nodeseq.empty);
  let s = seq [ "f" ] in
  Alcotest.check nodeseq "desc singleton" s (Sj.prune_desc d s);
  Alcotest.check nodeseq "anc singleton" s (Sj.prune_anc d s)

let prop_prune_preserves_region axis prune =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "pruning preserves the %s region" (Axis.to_string axis))
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      let pruned = prune d ctx in
      Nodeseq.equal (Test_support.spec_step d axis ctx) (Test_support.spec_step d axis pruned)
      && Sj.is_staircase d pruned
      && Nodeseq.equal pruned (prune d pruned))

(* ------------------------------------------------------------------ *)
(* the paper example, all axes and modes                               *)
(* ------------------------------------------------------------------ *)

let test_desc_paper () =
  let d = doc () in
  List.iter
    (fun mode ->
      Alcotest.check nodeseq
        (Printf.sprintf "e,b/descendant (%s)" (mode_name mode))
        (seq [ "c"; "f"; "g"; "h"; "i"; "j" ])
        (Sj.desc ~exec:(Exec.make ~mode ()) d (seq [ "b"; "e" ]));
      Alcotest.check nodeseq
        (Printf.sprintf "root/descendant (%s)" (mode_name mode))
        (seq [ "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j" ])
        (Sj.desc ~exec:(Exec.make ~mode ()) d (seq [ "a" ])))
    all_modes

let test_anc_paper () =
  let d = doc () in
  List.iter
    (fun mode ->
      Alcotest.check nodeseq
        (Printf.sprintf "(g,j)/ancestor (%s)" (mode_name mode))
        (seq [ "a"; "e"; "f"; "i" ])
        (Sj.anc ~exec:(Exec.make ~mode ()) d (seq [ "g"; "j" ]));
      Alcotest.check nodeseq
        (Printf.sprintf "root/ancestor empty (%s)" (mode_name mode))
        Nodeseq.empty
        (Sj.anc ~exec:(Exec.make ~mode ()) d (seq [ "a" ])))
    all_modes

let test_following_preceding_paper () =
  let d = doc () in
  List.iter
    (fun mode ->
      Alcotest.check nodeseq
        (Printf.sprintf "f/following (%s)" (mode_name mode))
        (seq [ "i"; "j" ])
        (Sj.following ~exec:(Exec.make ~mode ()) d (seq [ "f" ]));
      Alcotest.check nodeseq
        (Printf.sprintf "f/preceding (%s)" (mode_name mode))
        (seq [ "b"; "c"; "d" ])
        (Sj.preceding ~exec:(Exec.make ~mode ()) d (seq [ "f" ]));
      (* multi-node context degenerates to the singleton's region *)
      Alcotest.check nodeseq
        (Printf.sprintf "(d,f,i)/following (%s)" (mode_name mode))
        (Test_support.spec_step d Axis.Following (seq [ "d"; "f"; "i" ]))
        (Sj.following ~exec:(Exec.make ~mode ()) d (seq [ "d"; "f"; "i" ])))
    all_modes

(* ------------------------------------------------------------------ *)
(* documents with attributes                                           *)
(* ------------------------------------------------------------------ *)

let attr_doc () =
  match
    Doc.of_string
      "<r a='1'><x b='2'><y/></x><z c='3'>t</z></r>"
  with
  | Ok d -> d
  | Error e -> Alcotest.failf "fixture: %s" e

let test_desc_filters_attributes () =
  let d = attr_doc () in
  List.iter
    (fun mode ->
      let result = Sj.desc ~exec:(Exec.make ~mode ()) d (Nodeseq.singleton 0) in
      Nodeseq.iter
        (fun v ->
          check_bool
            (Printf.sprintf "no attribute in result (%s)" (mode_name mode))
            true
            (Doc.kind d v <> Doc.Attribute))
        result;
      (* r has descendants: x, y, z, "t" — 4 non-attribute nodes *)
      check_int (Printf.sprintf "count (%s)" (mode_name mode)) 4 (Nodeseq.length result))
    all_modes

let test_anc_of_attribute_context () =
  let d = attr_doc () in
  (* pre 3 is attribute b of x (pre 2); its ancestors are x and r *)
  let b_pre = 3 in
  check_bool "fixture sanity" true (Doc.kind d b_pre = Doc.Attribute);
  List.iter
    (fun mode ->
      Alcotest.check nodeseq
        (Printf.sprintf "attr ancestors (%s)" (mode_name mode))
        (Nodeseq.of_unsorted [ 0; 2 ])
        (Sj.anc ~exec:(Exec.make ~mode ()) d (Nodeseq.singleton b_pre)))
    all_modes

(* ------------------------------------------------------------------ *)
(* equivalence with the specification, random documents                *)
(* ------------------------------------------------------------------ *)

let prop_agrees axis run =
  List.map
    (fun mode ->
      QCheck.Test.make ~count:300
        ~name:
          (Printf.sprintf "staircase %s (%s) = specification" (Axis.to_string axis)
             (mode_name mode))
        (Test_support.doc_with_context_arbitrary ())
        (fun (d, ctx) ->
          let expected = Test_support.spec_step d axis ctx in
          let actual = run ~mode d ctx in
          if Nodeseq.equal expected actual then true
          else
            QCheck.Test.fail_reportf "expected %a, got %a" Nodeseq.pp expected Nodeseq.pp actual))
    all_modes

let prop_desc = prop_agrees Axis.Descendant (fun ~mode d ctx -> Sj.desc ~exec:(Exec.make ~mode ()) d ctx)

let prop_anc = prop_agrees Axis.Ancestor (fun ~mode d ctx -> Sj.anc ~exec:(Exec.make ~mode ()) d ctx)

let prop_following = prop_agrees Axis.Following (fun ~mode d ctx -> Sj.following ~exec:(Exec.make ~mode ()) d ctx)

let prop_preceding = prop_agrees Axis.Preceding (fun ~mode d ctx -> Sj.preceding ~exec:(Exec.make ~mode ()) d ctx)

(* ------------------------------------------------------------------ *)
(* work bounds (§3.3): the experiment-2 claim                          *)
(* ------------------------------------------------------------------ *)

(* With skipping, the descendant join touches at most
   |result region incl. attributes| + |pruned context| nodes. *)
let prop_skipping_touch_bound =
  QCheck.Test.make ~count:300 ~name:"desc skipping touches <= region + context"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      QCheck.assume (not (Nodeseq.is_empty ctx));
      let stats = Stats.create () in
      let _ = Sj.desc ~exec:(Exec.make ~mode:Sj.Skipping ~stats ()) d ctx in
      let pruned = Sj.prune_desc d ctx in
      (* region size including attributes *)
      let posts = Doc.post_array d in
      let region = ref 0 in
      for v = 0 to Doc.n_nodes d - 1 do
        if
          Nodeseq.fold_left (fun acc c -> acc || (v > c && posts.(v) < posts.(c))) false pruned
        then incr region
      done;
      Stats.touched stats <= !region + Nodeseq.length pruned)

(* With estimation-based skipping, at most h comparisons per context node
   (§4.2: "we have restricted postorder rank comparison to at most
   h × |context| nodes"). *)
let prop_estimation_comparison_bound =
  QCheck.Test.make ~count:300 ~name:"desc estimation compares <= h * |context|"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      QCheck.assume (not (Nodeseq.is_empty ctx));
      let stats = Stats.create () in
      let _ = Sj.desc ~exec:(Exec.make ~mode:Sj.Estimation ~stats ()) d ctx in
      let pruned = Sj.prune_desc d ctx in
      stats.Stats.scanned <= (Doc.height d + 1) * Nodeseq.length pruned)

(* Exact-size mode never compares a postorder rank at all. *)
let prop_exact_size_no_comparisons =
  QCheck.Test.make ~count:300 ~name:"desc exact-size performs no comparisons"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      let stats = Stats.create () in
      let _ = Sj.desc ~exec:(Exec.make ~mode:Sj.Exact_size ~stats ()) d ctx in
      stats.Stats.scanned = 0)

(* No-skipping scans every node from the first pruned context node on. *)
let test_no_skipping_scans_everything () =
  let d = doc () in
  let stats = Stats.create () in
  let _ = Sj.desc ~exec:(Exec.make ~mode:Sj.No_skipping ~stats ()) d (seq [ "b" ]) in
  (* partition runs from b+1 to the end of the document *)
  check_int "scanned to the end" (Doc.n_nodes d - (pre "b" + 1)) stats.Stats.scanned

let test_skipping_stats_smaller () =
  let d = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.002 ())) in
  let profile = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  let run mode =
    let stats = Stats.create () in
    let r = Sj.desc ~exec:(Exec.make ~mode ~stats ()) d profile in
    (Nodeseq.length r, Stats.touched stats)
  in
  let r0, t0 = run Sj.No_skipping in
  let r1, t1 = run Sj.Skipping in
  let r2, t2 = run Sj.Estimation in
  check_int "same result (skip)" r0 r1;
  check_int "same result (est)" r0 r2;
  check_bool "skipping touches far fewer nodes" true (t1 < t0 / 4);
  check_bool "estimation touches no more than skipping" true (t2 <= t1)

(* ------------------------------------------------------------------ *)
(* adversarial tree shapes with exact work accounting                  *)
(* ------------------------------------------------------------------ *)

module Tree = Scj_xml.Tree

(* a chain a(a(a(...))) of the given depth *)
let chain depth =
  let rec build k = if k = 0 then Tree.elem "leaf" [] else Tree.elem "n" [ build (k - 1) ] in
  Doc.of_tree (build depth)

(* a star: root with [width] leaf children *)
let star width = Doc.of_tree (Tree.elem "root" (List.init width (fun _ -> Tree.elem "leaf" [])))

(* a comb: a right-descending spine where every spine node carries one
   leaf — maximal interleaving of partitions *)
let comb depth =
  let rec build k =
    if k = 0 then Tree.elem "end" []
    else Tree.elem "spine" [ Tree.elem "tooth" []; build (k - 1) ]
  in
  Doc.of_tree (build depth)

let test_chain_shapes () =
  let d = chain 100 in
  let everything = Nodeseq.of_sorted_array (Array.init (Doc.n_nodes d) Fun.id) in
  (* all context nodes lie on one path: pruning keeps only the root *)
  let pruned = Sj.prune_desc d everything in
  Alcotest.check nodeseq "desc pruning keeps the root" (Nodeseq.singleton 0) pruned;
  (* ... and only the deepest node for the ancestor axis *)
  let pruned_anc = Sj.prune_anc d everything in
  Alcotest.check nodeseq "anc pruning keeps the leaf" (Nodeseq.singleton 100) pruned_anc;
  (* ancestors of the leaf = the whole spine, touched once each *)
  let stats = Stats.create () in
  let result = Sj.anc ~exec:(Exec.make ~stats ()) d (Nodeseq.singleton 100) in
  check_int "100 ancestors" 100 (Nodeseq.length result);
  check_int "scanned exactly the spine" 100 stats.Stats.scanned

let test_star_shapes () =
  let d = star 200 in
  let leaves = Nodeseq.of_sorted_array (Array.init 200 (fun i -> i + 1)) in
  (* descendant step from all leaves: 200 empty partitions *)
  let stats = Stats.create () in
  let result = Sj.desc ~exec:(Exec.make ~mode:Sj.Skipping ~stats ()) d leaves in
  check_int "no descendants" 0 (Nodeseq.length result);
  check_bool "at most one touch per partition" true (Stats.touched stats <= 200);
  (* ancestor step from all leaves: one shared root, no duplicates *)
  let stats = Stats.create () in
  let result = Sj.anc ~exec:(Exec.make ~stats ()) d leaves in
  Alcotest.check nodeseq "single shared ancestor" (Nodeseq.singleton 0) result;
  check_int "no duplicates generated" 0 stats.Stats.duplicates

let test_comb_shapes () =
  let d = comb 50 in
  let teeth = Nodeseq.of_sorted_array (Doc.tag_positions d "tooth") in
  check_int "50 teeth" 50 (Nodeseq.length teeth);
  (* every tooth has a distinct ancestor chain prefix; results must come
     out deduplicated and sorted *)
  let result = Sj.anc d teeth in
  Alcotest.check nodeseq "ancestors are the spine"
    (Nodeseq.of_sorted_array (Doc.tag_positions d "spine"))
    result;
  (* descendant from all spine nodes, pruned to the top spine node *)
  let spine = Nodeseq.of_sorted_array (Doc.tag_positions d "spine") in
  let stats = Stats.create () in
  let result = Sj.desc ~exec:(Exec.make ~mode:Sj.Estimation ~stats ()) d spine in
  check_int "everything below the top" (Doc.n_nodes d - 1) (Nodeseq.length result);
  check_int "pruned to a single partition" 49 stats.Stats.pruned

(* soak: bigger random documents than the default generator size *)
let prop_soak_large_docs =
  QCheck.Test.make ~count:30 ~name:"desc/anc equal spec on larger random documents"
    (Test_support.doc_with_context_arbitrary ~max_nodes:400 ())
    (fun (d, ctx) ->
      Nodeseq.equal (Sj.desc d ctx) (Test_support.spec_step d Axis.Descendant ctx)
      && Nodeseq.equal (Sj.anc d ctx) (Test_support.spec_step d Axis.Ancestor ctx))

(* ------------------------------------------------------------------ *)
(* blit kernels vs the per-node reference                              *)
(* ------------------------------------------------------------------ *)

(* The copy phases of desc/anc run as bulk range fills over the attribute
   prefix-sum column with batched counter updates; Sj.Reference keeps the
   per-node loops.  Results *and* every counter must be bit-identical in
   every skipping mode. *)
let prop_blit_parity =
  List.concat_map
    (fun mode ->
      List.map
        (fun (axis, blit, refr) ->
          QCheck.Test.make ~count:300
            ~name:(Printf.sprintf "blit %s = per-node reference (%s)" axis (mode_name mode))
            (Test_support.doc_with_context_arbitrary ())
            (fun (d, ctx) ->
              let s_blit = Stats.create () and s_ref = Stats.create () in
              let r_blit = blit (Exec.make ~mode ~stats:s_blit ()) d ctx in
              let r_ref = refr (Exec.make ~mode ~stats:s_ref ()) d ctx in
              if not (Nodeseq.equal r_blit r_ref) then
                QCheck.Test.fail_reportf "%s results differ" axis
              else if Stats.all_assoc s_blit <> Stats.all_assoc s_ref then
                QCheck.Test.fail_reportf "%s counters differ:@.blit %s@.ref  %s" axis
                  (Stats.to_json s_blit) (Stats.to_json s_ref)
              else true))
        [
          ("desc", (fun exec d c -> Sj.desc ~exec d c), fun exec d c -> Sj.Reference.desc ~exec d c);
          ("anc", (fun exec d c -> Sj.anc ~exec d c), fun exec d c -> Sj.Reference.anc ~exec d c);
        ])
    all_modes

(* ------------------------------------------------------------------ *)
(* node tests inside the join                                          *)
(* ------------------------------------------------------------------ *)

(* Every test the planner hands the kernels, on the random documents'
   vocabulary: each kind, an element name, the PI target, an attribute's
   name (no element carries it) and a name no node carries. *)
let kernel_tests d =
  let sym name = Option.value ~default:(-1) (Doc.tag_symbol d name) in
  [
    Sj.Kind Doc.Element;
    Sj.Kind Doc.Text;
    Sj.Kind Doc.Comment;
    Sj.Kind Doc.Pi;
    Sj.Named (Doc.Element, sym "a");
    Sj.Named (Doc.Element, sym "item");
    Sj.Named (Doc.Element, sym "k");
    Sj.Named (Doc.Element, -1);
    Sj.Named (Doc.Pi, sym "pi");
  ]

(* the test restated over the per-node accessors *)
let test_filter d test seq =
  Nodeseq.filter
    (fun v ->
      match test with
      | Sj.Kind k -> Doc.kind d v = k
      | Sj.Named (k, sym) -> Doc.kind d v = k && Doc.tag d v = sym)
    seq

(* The kernels equal the per-node reference join followed by the test
   (with the filtered context merged in for or-self), counter for
   counter, in every skipping mode. *)
let prop_kernel_parity =
  let axes =
    [
      ("descendant", (fun exec d t c -> Sj.desc_test ~exec ~or_self:false d t c),
        fun exec d t c -> test_filter d t (Sj.Reference.desc ~exec d c));
      ("descendant-or-self", (fun exec d t c -> Sj.desc_test ~exec ~or_self:true d t c),
        fun exec d t c ->
          Nodeseq.union (test_filter d t (Sj.Reference.desc ~exec d c)) (test_filter d t c));
      ("following", (fun exec d t c -> Sj.following_test ~exec d t c),
        fun exec d t c -> test_filter d t (Sj.Reference.following ~exec d c));
      ("preceding", (fun exec d t c -> Sj.preceding_test ~exec d t c),
        fun exec d t c -> test_filter d t (Sj.Reference.preceding ~exec d c));
    ]
  in
  List.concat_map
    (fun mode ->
      List.map
        (fun (axis, kernel, reference) ->
          QCheck.Test.make ~count:200
            ~name:(Printf.sprintf "%s kernel = reference + node test (%s)" axis (mode_name mode))
            (Test_support.doc_with_context_arbitrary ())
            (fun (d, ctx) ->
              List.for_all
                (fun test ->
                  let s_k = Stats.create () and s_r = Stats.create () in
                  let r_k = kernel (Exec.make ~mode ~stats:s_k ()) d test ctx in
                  let r_r = reference (Exec.make ~mode ~stats:s_r ()) d test ctx in
                  if not (Nodeseq.equal r_k r_r) then
                    QCheck.Test.fail_reportf "results differ:@.kernel %a@.ref    %a" Nodeseq.pp r_k
                      Nodeseq.pp r_r
                  else if Stats.all_assoc s_k <> Stats.all_assoc s_r then
                    QCheck.Test.fail_reportf "counters differ:@.kernel %s@.ref    %s"
                      (Stats.to_json s_k) (Stats.to_json s_r)
                  else true)
                (kernel_tests d)))
        axes)
    all_modes

(* ------------------------------------------------------------------ *)
(* partitions                                                          *)
(* ------------------------------------------------------------------ *)

let test_desc_partitions_paper () =
  let d = doc () in
  (* pruned staircase (d,h,j) as in Fig. 8 *)
  let parts = Sj.desc_partitions d (seq [ "d"; "h"; "j" ]) in
  check_int "three partitions" 3 (List.length parts);
  let p1 = List.nth parts 0 and p2 = List.nth parts 1 and p3 = List.nth parts 2 in
  check_int "p1 from" (pre "d" + 1) p1.Sj.scan_from;
  check_int "p1 to" (pre "h" - 1) p1.Sj.scan_to;
  check_int "p2 boundary" (Doc.post d (pre "h")) p2.Sj.boundary_post;
  check_int "p3 to end" (Doc.n_nodes d - 1) p3.Sj.scan_to

let prop_partitions_reconstruct =
  QCheck.Test.make ~count:200 ~name:"desc partitions reconstruct the join result"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      let posts = Doc.post_array d in
      let hits = ref [] in
      List.iter
        (fun p ->
          for i = p.Sj.scan_from to p.Sj.scan_to do
            if posts.(i) < p.Sj.boundary_post && Doc.kind d i <> Doc.Attribute then
              hits := i :: !hits
          done)
        (Sj.desc_partitions d ctx);
      Nodeseq.equal (Nodeseq.of_unsorted !hits) (Sj.desc d ctx))

let prop_partitions_pruned_skip_reprune =
  QCheck.Test.make ~count:200 ~name:"partitions of a pruned staircase = partitions with re-prune"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      Sj.desc_partitions_pruned d (Sj.prune_desc d ctx) = Sj.desc_partitions d ctx
      && Sj.anc_partitions_pruned d (Sj.prune_anc d ctx) = Sj.anc_partitions d ctx)

let prop_anc_partitions_reconstruct =
  QCheck.Test.make ~count:200 ~name:"anc partitions reconstruct the join result"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      let posts = Doc.post_array d in
      let hits = ref [] in
      List.iter
        (fun p ->
          for i = p.Sj.scan_from to p.Sj.scan_to do
            if posts.(i) > p.Sj.boundary_post then hits := i :: !hits
          done)
        (Sj.anc_partitions d ctx);
      Nodeseq.equal (Nodeseq.of_unsorted !hits) (Sj.anc d ctx))

(* ------------------------------------------------------------------ *)
(* views                                                               *)
(* ------------------------------------------------------------------ *)

let prop_view_desc =
  List.map
    (fun mode ->
      QCheck.Test.make ~count:200
        ~name:(Printf.sprintf "desc over view = desc ∩ view (%s)" (mode_name mode))
        (Test_support.doc_with_context_arbitrary ())
        (fun (d, ctx) ->
          (* a deterministic but non-trivial subset: every second node *)
          let subset =
            Nodeseq.of_unsorted
              (List.filter (fun v -> v mod 2 = 0) (List.init (Doc.n_nodes d) Fun.id))
          in
          let view = Sj.View.of_nodeseq d subset in
          let expected = Nodeseq.inter (Sj.desc d ctx) subset in
          Nodeseq.equal expected (Sj.desc_view ~exec:(Exec.make ~mode ()) d view ctx)))
    all_modes

let prop_view_anc =
  List.map
    (fun mode ->
      QCheck.Test.make ~count:200
        ~name:(Printf.sprintf "anc over view = anc ∩ view (%s)" (mode_name mode))
        (Test_support.doc_with_context_arbitrary ())
        (fun (d, ctx) ->
          let subset =
            Nodeseq.of_unsorted
              (List.filter (fun v -> v mod 3 <> 1) (List.init (Doc.n_nodes d) Fun.id))
          in
          let view = Sj.View.of_nodeseq d subset in
          let expected = Nodeseq.inter (Sj.anc d ctx) subset in
          Nodeseq.equal expected (Sj.anc_view ~exec:(Exec.make ~mode ()) d view ctx)))
    all_modes

let test_view_of_tag () =
  let d = doc () in
  let view = Sj.View.of_tag d "f" in
  check_int "one f" 1 (Sj.View.length view);
  Alcotest.check nodeseq "desc_view finds f below a" (seq [ "f" ])
    (Sj.desc_view d view (seq [ "a" ]));
  Alcotest.check nodeseq "desc_view finds nothing below b" Nodeseq.empty
    (Sj.desc_view d view (seq [ "b" ]))

let test_view_of_doc_matches_full () =
  let d = doc () in
  let view = Sj.View.of_doc d in
  let ctx = seq [ "b"; "e" ] in
  Alcotest.check nodeseq "whole-document view" (Sj.desc d ctx) (Sj.desc_view d view ctx)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    ([
       prop_prune_preserves_region Axis.Descendant (fun d c -> Sj.prune_desc d c);
       prop_prune_preserves_region Axis.Ancestor (fun d c -> Sj.prune_anc d c);
       prop_prune_preserves_region Axis.Following (fun d c -> Sj.prune_following d c);
       prop_prune_preserves_region Axis.Preceding (fun d c -> Sj.prune_preceding d c);
       prop_skipping_touch_bound;
       prop_estimation_comparison_bound;
       prop_exact_size_no_comparisons;
       prop_partitions_reconstruct;
       prop_anc_partitions_reconstruct;
       prop_partitions_pruned_skip_reprune;
       prop_soak_large_docs;
     ]
    @ prop_blit_parity @ prop_kernel_parity @ prop_desc @ prop_anc @ prop_following @ prop_preceding
    @ prop_view_desc @ prop_view_anc)

let () =
  Alcotest.run "scj_staircase"
    [
      ( "pruning",
        [
          Alcotest.test_case "Fig. 4 ancestor pruning" `Quick test_prune_anc_paper;
          Alcotest.test_case "descendant pruning" `Quick test_prune_desc_basic;
          Alcotest.test_case "disjoint context untouched" `Quick test_prune_desc_keeps_disjoint;
          Alcotest.test_case "following/preceding degenerate" `Quick test_prune_following_preceding;
          Alcotest.test_case "empty and singleton" `Quick test_prune_empty_and_singleton;
        ] );
      ( "paper example",
        [
          Alcotest.test_case "descendant joins" `Quick test_desc_paper;
          Alcotest.test_case "ancestor joins" `Quick test_anc_paper;
          Alcotest.test_case "following/preceding" `Quick test_following_preceding_paper;
        ] );
      ( "attributes",
        [
          Alcotest.test_case "descendant filters attributes" `Quick test_desc_filters_attributes;
          Alcotest.test_case "ancestors of an attribute" `Quick test_anc_of_attribute_context;
        ] );
      ( "work accounting",
        [
          Alcotest.test_case "no skipping scans everything" `Quick test_no_skipping_scans_everything;
          Alcotest.test_case "skipping reduces touches (xmark)" `Quick test_skipping_stats_smaller;
        ] );
      ( "adversarial shapes",
        [
          Alcotest.test_case "chain" `Quick test_chain_shapes;
          Alcotest.test_case "star" `Quick test_star_shapes;
          Alcotest.test_case "comb" `Quick test_comb_shapes;
        ] );
      ( "partitions",
        [ Alcotest.test_case "Fig. 8 partition bounds" `Quick test_desc_partitions_paper ] );
      ( "views",
        [
          Alcotest.test_case "of_tag" `Quick test_view_of_tag;
          Alcotest.test_case "of_doc equals full join" `Quick test_view_of_doc_matches_full;
        ] );
      ("properties", qsuite);
    ]
