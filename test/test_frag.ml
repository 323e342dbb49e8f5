(* Tests for tag-name fragmentation — a tag fragment is the partition of
   the dataguide paths ending in the tag, as the planner's catalog serves
   it — and the partition-parallel staircase join (lib/frag). *)

module Doc = Scj_encoding.Doc
module Exec = Scj_trace.Exec
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Stats = Scj_stats.Stats
module Sj = Scj_core.Staircase
module Planner = Scj_plan.Planner
module Doc_stats = Scj_guide.Doc_stats
module Parallel = Scj_frag.Parallel
module Morsel = Scj_frag.Morsel

let nodeseq = Alcotest.testable Nodeseq.pp Nodeseq.equal

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let doc () = Lazy.force Test_support.paper_doc

let pre name = Test_support.pre_of_name (doc ()) name

let seq names = Nodeseq.of_unsorted (List.map pre names)

let xmark = lazy (Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.003 ())))

(* ------------------------------------------------------------------ *)
(* fragmentation                                                       *)
(* ------------------------------------------------------------------ *)

(* The fragments of a document: its statistics, folded from the guide,
   and the memoized view of a tag's paths. *)
let fragments d =
  let cat = Planner.catalog d in
  let st = Planner.doc_stats cat in
  (st, fun tag -> Planner.view cat (Doc_stats.tag st tag).paths)

let desc_step d fragment context ~tag = Sj.desc_view d (fragment tag) context

let anc_step d fragment context ~tag = Sj.anc_view d (fragment tag) context

let test_build_paper () =
  let st, fragment = fragments (doc ()) in
  (* ten distinct single-letter tags *)
  check_int "ten fragments" 10 (Hashtbl.length st.Doc_stats.tags);
  check_int "size of a" 1 (Doc_stats.tag st "a").count;
  check_int "view of a" 1 (Sj.View.length (fragment "a"));
  check_int "missing tag" 0 (Doc_stats.tag st "zz").count;
  check_bool "fragment lookup" true ((Doc_stats.tag st "f").paths <> [])

let test_fragment_sizes_cover_elements () =
  let d = Lazy.force xmark in
  let st, _ = fragments d in
  let total = Hashtbl.fold (fun _ (ts : Doc_stats.tag_stats) acc -> acc + ts.count) st.tags 0 in
  let elements = ref 0 in
  let kinds = Doc.kind_array d in
  Array.iter (fun k -> if k = Doc.Element then incr elements) kinds;
  check_int "fragments partition the elements" !elements total

let test_desc_step_paper () =
  let d = doc () in
  let _, f = fragments d in
  Alcotest.check nodeseq "descendant::f from root" (seq [ "f" ])
    (desc_step d f (seq [ "a" ]) ~tag:"f");
  Alcotest.check nodeseq "descendant::g from e" (seq [ "g" ])
    (desc_step d f (seq [ "e" ]) ~tag:"g");
  Alcotest.check nodeseq "no match" Nodeseq.empty (desc_step d f (seq [ "b" ]) ~tag:"g")

let test_anc_step_paper () =
  let d = doc () in
  let _, f = fragments d in
  Alcotest.check nodeseq "ancestor::e of g,j" (seq [ "e" ])
    (anc_step d f (seq [ "g"; "j" ]) ~tag:"e");
  Alcotest.check nodeseq "ancestor::a" (seq [ "a" ]) (anc_step d f (seq [ "g" ]) ~tag:"a")

(* The future-work experiment: fragmented evaluation matches the plain
   staircase join followed by a name test, while touching only fragment
   nodes. *)
let test_fragment_matches_full_join_on_xmark () =
  let d = Lazy.force xmark in
  let _, f = fragments d in
  let root = Nodeseq.singleton (Doc.root d) in
  let stats_frag = Stats.create () in
  let profiles = Sj.desc_view ~exec:(Exec.make ~stats:stats_frag ()) d (f "profile") root in
  let educations = desc_step d f profiles ~tag:"education" in
  (* reference: full staircase join + name filter *)
  let filter_tag seq tag =
    match Doc.tag_symbol d tag with
    | None -> Nodeseq.empty
    | Some sym ->
      Nodeseq.filter (fun v -> Doc.kind d v = Doc.Element && Doc.tag d v = sym) seq
  in
  let stats_full = Stats.create () in
  let profiles' = filter_tag (Sj.desc ~exec:(Exec.make ~stats:stats_full ()) d root) "profile" in
  let educations' = filter_tag (Sj.desc d profiles') "education" in
  Alcotest.check nodeseq "same profiles" profiles' profiles;
  Alcotest.check nodeseq "same educations" educations' educations;
  check_bool
    (Printf.sprintf "fragment touches far fewer nodes (%d vs %d)" (Stats.touched stats_frag)
       (Stats.touched stats_full))
    true
    (Stats.touched stats_frag * 10 < Stats.touched stats_full)

let prop_fragment_steps_agree =
  QCheck.Test.make ~count:200 ~name:"fragmented steps = filtered staircase joins"
    (QCheck.make
       ~print:(fun ((d, c), tag) ->
         Printf.sprintf "%s ctx=%s tag=%s" (Test_support.doc_print d)
           (Format.asprintf "%a" Nodeseq.pp c)
           tag)
       (QCheck.Gen.pair
          (Test_support.doc_with_context_gen ())
          (QCheck.Gen.oneofl [ "a"; "b"; "item"; "x"; "root" ])))
    (fun ((d, ctx), tag) ->
      let _, f = fragments d in
      let filter_tag seq =
        match Doc.tag_symbol d tag with
        | None -> Nodeseq.empty
        | Some sym ->
          Nodeseq.filter (fun v -> Doc.kind d v = Doc.Element && Doc.tag d v = sym) seq
      in
      Nodeseq.equal (desc_step d f ctx ~tag) (filter_tag (Sj.desc d ctx))
      && Nodeseq.equal (anc_step d f ctx ~tag) (filter_tag (Sj.anc d ctx)))

(* ------------------------------------------------------------------ *)
(* parallel                                                            *)
(* ------------------------------------------------------------------ *)

let all_modes = [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ]

let test_parallel_paper () =
  let d = doc () in
  List.iter
    (fun domains ->
      List.iter
        (fun mode ->
          Alcotest.check nodeseq
            (Printf.sprintf "desc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.desc d (seq [ "b"; "e" ]))
            (Parallel.desc ~exec:(Exec.make ~domains ~mode ()) d (seq [ "b"; "e" ]));
          Alcotest.check nodeseq
            (Printf.sprintf "anc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.anc d (seq [ "g"; "j" ]))
            (Parallel.anc ~exec:(Exec.make ~domains ~mode ()) d (seq [ "g"; "j" ])))
        all_modes)
    [ 1; 2; 4 ]

let test_parallel_empty_context () =
  let d = doc () in
  Alcotest.check nodeseq "empty" Nodeseq.empty (Parallel.desc ~exec:(Exec.make ~domains:4 ()) d Nodeseq.empty)

let test_parallel_xmark () =
  let d = Lazy.force xmark in
  let increases = Nodeseq.of_sorted_array (Doc.tag_positions d "increase") in
  Alcotest.check nodeseq "parallel anc on xmark" (Sj.anc d increases)
    (Parallel.anc ~exec:(Exec.make ~domains:4 ()) d increases);
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  Alcotest.check nodeseq "parallel desc on xmark" (Sj.desc d profiles)
    (Parallel.desc ~exec:(Exec.make ~domains:4 ()) d profiles)

let prop_parallel_agrees =
  List.map
    (fun mode ->
      QCheck.Test.make ~count:100
        ~name:(Printf.sprintf "parallel = sequential (%s)" (Sj.skip_mode_to_string mode))
        (Test_support.doc_with_context_arbitrary ())
        (fun (d, ctx) ->
          Nodeseq.equal (Parallel.desc ~exec:(Exec.make ~domains:3 ~mode ()) d ctx) (Sj.desc ~exec:(Exec.make ~mode ()) d ctx)
          && Nodeseq.equal (Parallel.anc ~exec:(Exec.make ~domains:3 ~mode ()) d ctx) (Sj.anc ~exec:(Exec.make ~mode ()) d ctx)))
    all_modes

(* A parallel run must report the counters of a serial one — the prune
   runs once on the coordinating thread, per-worker counters are plain
   sums, and the blit copy phases batch their updates identically to the
   per-node reference.  Check totals against Sj.Reference across all
   modes and worker counts. *)
let prop_parallel_counter_parity =
  List.concat_map
    (fun mode ->
      List.map
        (fun domains ->
          QCheck.Test.make ~count:100
            ~name:
              (Printf.sprintf "parallel counters = per-node reference (%s, %d domains)"
                 (Sj.skip_mode_to_string mode) domains)
            (Test_support.doc_with_context_arbitrary ())
            (fun (d, ctx) ->
              let s_par = Stats.create () and s_ref = Stats.create () in
              let r_par = Parallel.desc ~exec:(Exec.make ~mode ~domains ~stats:s_par ()) d ctx in
              let r_ref = Sj.Reference.desc ~exec:(Exec.make ~mode ~stats:s_ref ()) d ctx in
              let a_par = Parallel.anc ~exec:(Exec.make ~mode ~domains ~stats:s_par ()) d ctx in
              let a_ref = Sj.Reference.anc ~exec:(Exec.make ~mode ~stats:s_ref ()) d ctx in
              if not (Nodeseq.equal r_par r_ref && Nodeseq.equal a_par a_ref) then
                QCheck.Test.fail_reportf "results differ"
              else if Stats.all_assoc s_par <> Stats.all_assoc s_ref then
                QCheck.Test.fail_reportf "counters differ:@.par %s@.ref %s" (Stats.to_json s_par)
                  (Stats.to_json s_ref)
              else true))
        [ 1; 4 ])
    all_modes

(* ------------------------------------------------------------------ *)
(* morsel                                                              *)
(* ------------------------------------------------------------------ *)

let test_morsel_paper () =
  let d = doc () in
  List.iter
    (fun domains ->
      List.iter
        (fun mode ->
          Alcotest.check nodeseq
            (Printf.sprintf "desc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.desc d (seq [ "b"; "e" ]))
            (Morsel.desc ~exec:(Exec.make ~domains ~mode ()) d (seq [ "b"; "e" ]));
          Alcotest.check nodeseq
            (Printf.sprintf "anc domains=%d mode=%s" domains (Sj.skip_mode_to_string mode))
            (Sj.anc d (seq [ "g"; "j" ]))
            (Morsel.anc ~exec:(Exec.make ~domains ~mode ()) d (seq [ "g"; "j" ])))
        all_modes)
    [ 1; 2; 4 ]

let test_morsel_empty_context () =
  let d = doc () in
  Alcotest.check nodeseq "empty" Nodeseq.empty
    (Morsel.desc ~exec:(Exec.make ~domains:4 ()) d Nodeseq.empty)

let test_morsel_xmark () =
  let d = Lazy.force xmark in
  let increases = Nodeseq.of_sorted_array (Doc.tag_positions d "increase") in
  Alcotest.check nodeseq "morsel anc on xmark" (Sj.anc d increases)
    (Morsel.anc ~exec:(Exec.make ~domains:4 ()) d increases);
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  Alcotest.check nodeseq "morsel desc on xmark" (Sj.desc d profiles)
    (Morsel.desc ~exec:(Exec.make ~domains:4 ()) d profiles)

(* Worker exceptions surface at the submitter: a batch whose task raises
   must cancel the remainder and re-raise the first failure — this is
   the abort-path contract Parallel shares via the pool. *)
let test_pool_propagates_exceptions () =
  let pool = Morsel.Pool.create ~workers:2 () in
  let hits = Atomic.make 0 in
  (try
     Morsel.Pool.submit pool ~width:4 ~n:64 (fun i ->
         if i = 3 then failwith "boom" else Atomic.incr hits);
     Alcotest.fail "expected the worker exception to re-raise"
   with Failure msg -> Alcotest.(check string) "first worker exception" "boom" msg);
  check_bool "remainder cancelled" true (Atomic.get hits < 64);
  (* the pool survives a failed batch *)
  let ran = Atomic.make 0 in
  Morsel.Pool.submit pool ~width:4 ~n:8 (fun _ -> Atomic.incr ran);
  check_int "pool alive after failure" 8 (Atomic.get ran);
  Morsel.Pool.shutdown pool

(* Deadline cancellation polls Exec.check at morsel boundaries. *)
let test_morsel_deadline () =
  let d = Lazy.force xmark in
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  let exception Deadline in
  let polls = Atomic.make 0 in
  let check () = if Atomic.fetch_and_add polls 1 > 0 then raise Deadline in
  (match Morsel.desc ~morsel_size:64 ~exec:(Exec.make ~domains:2 ~check ()) d profiles with
  | _ -> Alcotest.fail "expected the deadline to abort the join"
  | exception Deadline -> ());
  check_bool "polled at morsel boundaries" true (Atomic.get polls > 1)

let prop_morsel_agrees =
  List.map
    (fun mode ->
      QCheck.Test.make ~count:100
        ~name:(Printf.sprintf "morsel = sequential (%s)" (Sj.skip_mode_to_string mode))
        (Test_support.doc_with_context_arbitrary ())
        (fun (d, ctx) ->
          Nodeseq.equal
            (Morsel.desc ~exec:(Exec.make ~domains:3 ~mode ()) d ctx)
            (Sj.desc ~exec:(Exec.make ~mode ()) d ctx)
          && Nodeseq.equal
               (Morsel.anc ~exec:(Exec.make ~domains:3 ~mode ()) d ctx)
               (Sj.anc ~exec:(Exec.make ~mode ()) d ctx)))
    all_modes

(* Σ-tallies parity: morsel counters must merge to the per-node
   reference bit for bit, across modes, widths and morsel sizes — a
   tiny morsel size forces partition chunking on every doc. *)
let prop_morsel_counter_parity =
  List.concat_map
    (fun mode ->
      List.map
        (fun (domains, morsel_size) ->
          QCheck.Test.make ~count:100
            ~name:
              (Printf.sprintf "morsel counters = per-node reference (%s, %d domains, %d-node morsels)"
                 (Sj.skip_mode_to_string mode) domains morsel_size)
            (Test_support.doc_with_context_arbitrary ())
            (fun (d, ctx) ->
              let s_m = Stats.create () and s_ref = Stats.create () in
              let r_m = Morsel.desc ~morsel_size ~exec:(Exec.make ~mode ~domains ~stats:s_m ()) d ctx in
              let r_ref = Sj.Reference.desc ~exec:(Exec.make ~mode ~stats:s_ref ()) d ctx in
              let a_m = Morsel.anc ~morsel_size ~exec:(Exec.make ~mode ~domains ~stats:s_m ()) d ctx in
              let a_ref = Sj.Reference.anc ~exec:(Exec.make ~mode ~stats:s_ref ()) d ctx in
              if not (Nodeseq.equal r_m r_ref && Nodeseq.equal a_m a_ref) then
                QCheck.Test.fail_reportf "results differ"
              else if Stats.all_assoc s_m <> Stats.all_assoc s_ref then
                QCheck.Test.fail_reportf "counters differ:@.morsel %s@.ref %s" (Stats.to_json s_m)
                  (Stats.to_json s_ref)
              else true))
        [ (1, 4); (4, 4); (4, 32768) ])
    all_modes

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    ((prop_fragment_steps_agree :: (prop_parallel_agrees @ prop_morsel_agrees))
    @ prop_parallel_counter_parity @ prop_morsel_counter_parity)

let () =
  Alcotest.run "scj_frag"
    [
      ( "fragmentation",
        [
          Alcotest.test_case "build on paper doc" `Quick test_build_paper;
          Alcotest.test_case "fragments partition elements" `Quick test_fragment_sizes_cover_elements;
          Alcotest.test_case "descendant steps" `Quick test_desc_step_paper;
          Alcotest.test_case "ancestor steps" `Quick test_anc_step_paper;
          Alcotest.test_case "xmark Q1 equivalence + savings" `Quick
            test_fragment_matches_full_join_on_xmark;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "paper doc, all modes/domains" `Quick test_parallel_paper;
          Alcotest.test_case "empty context" `Quick test_parallel_empty_context;
          Alcotest.test_case "xmark steps" `Quick test_parallel_xmark;
        ] );
      ( "morsel",
        [
          Alcotest.test_case "paper doc, all modes/domains" `Quick test_morsel_paper;
          Alcotest.test_case "empty context" `Quick test_morsel_empty_context;
          Alcotest.test_case "xmark steps" `Quick test_morsel_xmark;
          Alcotest.test_case "pool re-raises worker exceptions" `Quick
            test_pool_propagates_exceptions;
          Alcotest.test_case "deadline at morsel boundaries" `Quick test_morsel_deadline;
        ] );
      ("properties", qsuite);
    ]
