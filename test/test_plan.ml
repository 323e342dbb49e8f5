(* Tests for the plan IR and the cost-based planner (lib/plan) plus the
   document statistics behind its cost model (lib/guide/doc_stats), which
   fold the dataguide.

   The golden plan trees are rendered against the deterministic XMark
   fixture (default seed, scale 0.003), so the cost-model numbers are
   exact; they pin down the same text 'scj plan' prints and 'scj analyze'
   traces.  The rewrite unit tests work on hand-built logical plans and
   need no document at all. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Doc_stats = Scj_guide.Doc_stats
module Guide = Scj_guide.Guide
module Doc_scan = Test_support.Doc_scan
module Plan = Scj_plan.Plan
module Planner = Scj_plan.Planner
module Eval = Scj_xpath.Eval

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* document statistics                                                  *)
(* ------------------------------------------------------------------ *)

let stats_doc () =
  match
    Doc.of_string
      "<r><a x='1'><b>t1</b><b>t2</b></a><a><b>t3</b></a><c/><!--n--></r>"
  with
  | Ok d -> d
  | Error e -> Alcotest.failf "fixture: %s" e

let test_doc_stats_counts () =
  let d = stats_doc () in
  let g = Guide.build d in
  let s = Doc_stats.of_guide g d in
  Doc_scan.check "fixture" d g s;
  check_int "n_nodes" (Doc.n_nodes d) s.Doc_stats.n_nodes;
  check_int "elements" 7 s.Doc_stats.n_elements;
  check_int "attributes" 1 s.Doc_stats.n_attributes;
  check_int "texts" 3 s.Doc_stats.n_texts;
  check_int "comments" 1 s.Doc_stats.n_comments;
  check_int "height" (Doc.height d) s.Doc_stats.height;
  check_int "root size" (Doc.size d 0) s.Doc_stats.root_size;
  check_int "tag a" 2 (Doc_stats.tag s "a").Doc_stats.count;
  check_int "tag b" 3 (Doc_stats.tag s "b").Doc_stats.count;
  check_int "tag c" 1 (Doc_stats.tag s "c").Doc_stats.count;
  check_int "unknown tag" 0 (Doc_stats.tag s "zzz").Doc_stats.count;
  (* subtree sums: the two 'a' subtrees hold 4+1 and 2 descendants *)
  check_int "a subtree sum" 7 (Doc_stats.tag s "a").Doc_stats.subtree_sum;
  check_int "b level sum" 6 (Doc_stats.tag s "b").Doc_stats.level_sum;
  check_int "attribute x" 1 (Doc_stats.attribute s "x").Doc_stats.count;
  check_int "b on one path" 1 (List.length (Doc_stats.tag s "b").Doc_stats.paths);
  check_bool "selectivity in (0,1]" true
    (let sel = Doc_stats.selectivity s "b" in
     sel > 0.0 && sel <= 1.0)

let test_doc_stats_memoized () =
  let d = stats_doc () in
  let cat = Planner.catalog d in
  check_bool "same stats object" true
    (Planner.doc_stats cat == Planner.doc_stats cat);
  (* the memoized view of b's paths is the sorted element fragment *)
  let paths = (Doc_stats.tag (Planner.doc_stats cat) "b").Doc_stats.paths in
  let view = Planner.view cat paths in
  check_int "tag view size" 3 (Planner.Sj.View.length view);
  check_bool "same view object" true (Planner.view cat paths == Planner.view cat paths)

(* The statistics folded from the guide state what a document scan
   counts on a generated XMark document, and every name's partition is
   its fragment. *)
let test_doc_stats_xmark () =
  let d = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.1 ())) in
  let g = Guide.build d in
  Doc_scan.check "XMark 0.1" d g (Doc_stats.of_guide g d)

(* ------------------------------------------------------------------ *)
(* logical rewrites                                                     *)
(* ------------------------------------------------------------------ *)

let step ?(predicates = []) axis test = { Plan.axis; test; predicates }

let bridge = step Axis.Descendant_or_self (Plan.Any_node)

let named n = Plan.Name n

let pred ?(positional = false) ?(rank = 0) label =
  { Plan.label; positional; rank; form = None; eval = (fun _ ~node:_ ~pos:_ ~last:_ -> true) }

let rewritten l = Plan.logical_to_string (Planner.rewrite l)

let chain src steps =
  List.fold_left (fun acc s -> Plan.L_step (acc, s)) (Plan.L_source src) steps

let test_rewrite_fuses_bridge_child () =
  (* //t: descendant-or-self::node()/child::t => descendant::t *)
  check_string "bridge+child"
    "/descendant::t"
    (rewritten (chain Plan.Document [ bridge; step Axis.Child (named "t") ]));
  (* inner occurrence too *)
  check_string "inner bridge"
    "/descendant::a/descendant::b"
    (rewritten
       (chain Plan.Document [ bridge; step Axis.Child (named "a"); bridge; step Axis.Child (named "b") ]))

let test_rewrite_drops_bridge_before_descendant () =
  check_string "bridge+descendant"
    "/descendant::t"
    (rewritten (chain Plan.Document [ bridge; step Axis.Descendant (named "t") ]))

let test_rewrite_keeps_positional_child () =
  (* //t[2] selects per-parent positions: fusing would change semantics, so
     the absolute corner becomes the explicit document union instead *)
  let p = pred ~positional:true "2" in
  check_string "positional blocks fusion"
    "(/descendant-or-self::node()/child::t[2] | root()/self::t[2])"
    (rewritten (chain Plan.Document [ bridge; step ~predicates:[ p ] Axis.Child (named "t") ]))

let test_rewrite_drops_self_noop () =
  check_string "self::node() dropped"
    "/descendant::t"
    (rewritten
       (chain Plan.Document
          [ bridge; step Axis.Child (named "t"); step Axis.Self Plan.Any_node ]))

let test_rewrite_reorders_predicates () =
  let cheap = pred ~rank:1 "cheap" in
  let costly = pred ~rank:9 "costly" in
  let l = chain Plan.Context [ step ~predicates:[ costly; cheap ] Axis.Child (named "t") ] in
  match Planner.rewrite l with
  | Plan.L_step (_, { Plan.predicates = [ p1; p2 ]; _ }) ->
    check_string "cheap first" "cheap" p1.Plan.label;
    check_string "costly second" "costly" p2.Plan.label
  | l' -> Alcotest.failf "unexpected shape: %s" (Plan.logical_to_string l')

let test_rewrite_keeps_positional_order () =
  (* positional predicates pin the whole list: reordering would change
     which nodes survive the earlier filters *)
  let first = pred ~rank:9 "costly" in
  let second = pred ~positional:true ~rank:1 "last()" in
  let l = chain Plan.Context [ step ~predicates:[ first; second ] Axis.Child (named "t") ] in
  match Planner.rewrite l with
  | Plan.L_step (_, { Plan.predicates = [ p1; p2 ]; _ }) ->
    check_string "order kept" "costly" p1.Plan.label;
    check_string "positional last" "last()" p2.Plan.label
  | l' -> Alcotest.failf "unexpected shape: %s" (Plan.logical_to_string l')

(* ------------------------------------------------------------------ *)
(* golden plan trees (scj plan) on the XMark fixture                    *)
(* ------------------------------------------------------------------ *)

let xmark =
  lazy (Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.003 ())))

let parse_ok s =
  match Scj_xpath.Parse.path s with Ok p -> p | Error e -> Alcotest.failf "parse %S: %s" s e

let plan_string q =
  let session = Eval.session (Lazy.force xmark) in
  Plan.physical_to_string (Eval.path_plan session (parse_ok q))

let golden_plan_q1 =
  {golden|source: document node (emulated at the root element)  [est card=1]
join: descendant-or-self::profile
  backend: staircase join (serial, estimation) + self
  pushdown: yes (join over the fragment) -- guide partition: 28 node(s) vs. estimated scan of 6737 node(s)
  guide: exact card=28 over 1 path(s)
  est: in=1 touches=6737 out=28 cost=39
  rejected: document cost=6748
join: descendant::education
  backend: staircase join (serial, estimation)
  pushdown: yes (join over the fragment) -- guide partition: 13 node(s) vs. estimated scan of 264 node(s)
  guide: exact card=13 over 1 path(s)
  est: in=28 touches=264 out=13 cost=321
  rejected: document cost=572
|golden}

let golden_plan_keyword =
  {golden|source: document node (emulated at the root element)  [est card=1]
join: descendant-or-self::keyword
  backend: staircase join (serial, estimation) + self
  pushdown: yes (join over the fragment) -- guide partition: 54 node(s) vs. estimated scan of 6737 node(s)
  guide: exact card=54 over 18 path(s)
  est: in=1 touches=6737 out=54 cost=65
  rejected: document cost=6748
|golden}

let golden_plan_wild =
  {golden|source: document node (emulated at the root element)  [est card=1]
join: descendant-or-self::*
  backend: staircase join (serial, estimation) + self
  pushdown: yes (node test in the join kernel)
  guide: fallback to flat statistics (step outside the path summary)
  est: in=1 touches=6737 out=3673 cost=6748
|golden}

(* The existential predicate as a semijoin (§4.4's Q1/Q2 equivalence):
   reading the increase fragment and probing each bidder once (147 + 147)
   undercuts 147 per-node evaluations of 70 units plus the path's own
   join from one bidder (19 units).  The estimate keeps at most as many
   bidders as increases: q-error 1.00. *)
let golden_plan_semijoin =
  {golden|source: document node (emulated at the root element)  [est card=1]
join: descendant-or-self::bidder[descendant::increase]
  backend: staircase join (serial, estimation) + self
  pushdown: yes (join over the fragment) -- guide partition: 147 node(s) vs. estimated scan of 6737 node(s)
  guide: upper bound card<=147 over 1 path(s)
  predicates: 1 (semijoin)
  semijoin: yes -- fragments descendant::increase=147; cost=294 vs. per-node cost=13083
  est: in=1 touches=6737 out=147 cost=158
  rejected: document cost=6748
|golden}

let test_golden_q1 () = check_string "q1" golden_plan_q1 (plan_string "/descendant::profile/descendant::education")

let test_golden_semijoin () =
  check_string "bidder[increase]" golden_plan_semijoin
    (plan_string "/descendant::bidder[descendant::increase]")

(* the //keyword document-union special case fuses to one descendant join *)
let test_golden_keyword () = check_string "//keyword" golden_plan_keyword (plan_string "//keyword")

(* the kernel applies a wildcard while it writes the join's result *)
let test_golden_wildcard () = check_string "/descendant::*" golden_plan_wild (plan_string "/descendant::*")

(* ------------------------------------------------------------------ *)
(* planner behaviour on the fixture                                     *)
(* ------------------------------------------------------------------ *)

(* Auto applies a wildcard inside the join kernel (for ancestors, whose
   join emits elements only, by dropping the filter); the forced serial
   staircase scans the document and filters after the join. *)
let test_wildcard_pushdown_impl () =
  let doc = Lazy.force xmark in
  let rec joins = function
    | Plan.P_source _ -> []
    | Plan.P_step (input, ps) -> joins input @ [ ps ]
    | Plan.P_union ps -> List.concat_map joins ps
  in
  let checked = ref 0 in
  List.iter
    (fun strategy ->
      let session = Eval.session ~strategy doc in
      List.iter
        (fun q ->
          List.iter
            (fun (ps : Plan.phys_step) ->
              match ps.Plan.impl with
              | Plan.Join { push; _ } when ps.Plan.step.Plan.test = Plan.Wildcard ->
                incr checked;
                let expected =
                  match strategy.Eval.backend with
                  | `Auto | `Auto_flat -> Plan.Push_test
                  | `Force _ -> Plan.No_push
                in
                check_string
                  (Printf.sprintf "%s under %s: %s" q (Eval.strategy_to_string strategy)
                     (Plan.step_to_string ps.Plan.step))
                  (Plan.push_to_string expected) (Plan.push_to_string push)
              | Plan.Join _ | Plan.Structural | Plan.Select_self | Plan.Empty_result -> ())
            (joins (Eval.path_plan session (parse_ok q))))
        [ "/descendant::*"; "//*"; "/descendant::profile/descendant::*"; "//bidder/ancestor::*" ])
    [
      Eval.default_strategy;
      { Eval.default_strategy with Eval.pushdown = `Always };
      { Eval.backend = `Force (Plan.Serial Scj_trace.Exec.Estimation); pushdown = `Cost_based };
      { Eval.backend = `Force (Plan.Serial Scj_trace.Exec.Estimation); pushdown = `Always };
    ];
  check_int "one wildcard join per query and strategy" 16 !checked

let test_plan_cache () =
  let session = Eval.session (Lazy.force xmark) in
  let p = parse_ok "/descendant::profile/descendant::education" in
  check_bool "same physical plan object" true
    (Eval.path_plan session p == Eval.path_plan session p)

let test_results_unchanged_by_auto () =
  let doc = Lazy.force xmark in
  let auto = Eval.session doc in
  let forced =
    Eval.session
      ~strategy:{ Eval.backend = `Force (Plan.Serial Scj_trace.Exec.Estimation); pushdown = `Never }
      doc
  in
  List.iter
    (fun q ->
      Alcotest.(check bool) q true
        (Nodeseq.equal (Eval.run_exn auto q) (Eval.run_exn forced q)))
    [
      "/descendant::profile/descendant::education";
      "/descendant::increase/ancestor::bidder";
      "//keyword";
      "/descendant::*";
      "//open_auction[bidder]/seller";
      "/descendant::bidder[descendant::increase]";
      "//closed_auction/preceding::person";
      "//open_auction[bidder]/following::closed_auction";
      "/descendant::node()";
      "//text()";
      "//*";
      "//text()/ancestor::*";
      "/descendant::*/descendant::text()";
      "//listitem/ancestor::listitem";
      (* ancestor kind tests Auto settles at plan time *)
      "//keyword/ancestor::*";
      "//keyword/ancestor-or-self::*";
      "//keyword/ancestor::text()";
      "//keyword/ancestor::comment()";
      "//keyword/ancestor::processing-instruction()";
      "//text()/ancestor-or-self::text()";
      "//keyword/ancestor-or-self::text()";
      "//text()/ancestor-or-self::processing-instruction('x')";
    ]

(* Under Auto the kind-tested steps below run the node test inside the
   kernel; forced staircase-estimate joins and filters afterwards.  The
   kernel books the join's counters, so both agree counter for counter,
   not only node for node.  A declined name test is checked without the
   guide, whose path partition (here: a static empty result) would
   otherwise take its place. *)
let test_kernel_counter_parity () =
  let doc = Lazy.force xmark in
  let session name = Eval.session ~strategy:(Option.get (Eval.strategy_of_string name)) doc in
  let auto = session "auto" and flat = session "auto-flat" in
  let forced = session "staircase-estimate" in
  let run session q =
    let stats = Scj_stats.Stats.create () in
    let r = Eval.run_exn ~exec:(Scj_trace.Exec.make ~stats ()) session q in
    (r, Scj_stats.Stats.all_assoc stats)
  in
  let check (name, session) q =
    let r_auto, c_auto = run session q and r_forced, c_forced = run forced q in
    check_bool (Printf.sprintf "%s under %s: results" q name) true (Nodeseq.equal r_auto r_forced);
    check_bool (Printf.sprintf "%s under %s: counters" q name) true (c_auto = c_forced)
  in
  check ("auto-flat", flat) "/descendant::education/descendant::text";
  List.iter
    (fun q -> List.iter (fun s -> check s q) [ ("auto", auto); ("auto-flat", flat) ])
    [
      "//*";
      "//text()";
      "//comment()";
      "//processing-instruction()";
      "/descendant::profile/descendant::*";
      "//open_auction/descendant-or-self::*";
      "//open_auction/descendant::text()";
      "//open_auction/following::*";
      "//open_auction/following::text()";
      "//closed_auction/preceding::*";
      "//closed_auction/preceding::text()";
    ]

(* Semijoins and following/preceding pushdown are Auto's alone: a forced
   backend keeps per-node predicates and the region scan, so forced
   sessions stay independent oracles of both. *)
let test_forced_plans_keep_oracles () =
  let doc = Lazy.force xmark in
  let queries =
    [
      "/descendant::bidder[descendant::increase]";
      "//open_auction[bidder]/following::closed_auction";
      "//closed_auction/preceding::person";
      "/site/people/person[profile/@income > 50000]/name";
    ]
  in
  let rec steps = function
    | Plan.P_source _ -> []
    | Plan.P_step (input, ps) -> steps input @ [ ps ]
    | Plan.P_union ps -> List.concat_map steps ps
  in
  let shapes strategy =
    let session = Eval.session ~strategy doc in
    List.concat_map (fun q -> steps (Eval.path_plan session (parse_ok q))) queries
    |> List.fold_left
         (fun (semijoins, pushes) (ps : Plan.phys_step) ->
           ( (semijoins || ps.Plan.semijoin),
             pushes
             ||
             match ps.Plan.impl with
             | Plan.Join { dir = Plan.Following | Plan.Preceding; push; _ } -> push <> Plan.No_push
             | Plan.Join _ | Plan.Structural | Plan.Select_self | Plan.Empty_result -> false ))
         (false, false)
  in
  check_bool "auto plans a semijoin and a following/preceding push" true
    (shapes Eval.default_strategy = (true, true));
  List.iter
    (fun name ->
      match Eval.strategy_of_string name with
      | Some ({ Eval.backend = `Force _; _ } as strategy) ->
        check_bool (name ^ ": no semijoin, no following/preceding push") true
          (shapes strategy = (false, false))
      | Some { Eval.backend = `Auto | `Auto_flat; _ } | None -> ())
    Eval.strategy_names

(* On an element chain of depth d, //a's guide cursor holds d paths.  The
   partition memo is keyed by summary ids, so planning allocates O(d), not
   the O(d^2) bytes of the joined root-path strings (968 MB at this
   depth). *)
let test_deep_chain_planning () =
  let depth = 8000 in
  let buf = Buffer.create (depth * 7) in
  for _ = 1 to depth do
    Buffer.add_string buf "<a>"
  done;
  Buffer.add_string buf "x";
  for _ = 1 to depth do
    Buffer.add_string buf "</a>"
  done;
  let doc = match Doc.of_string (Buffer.contents buf) with Ok d -> d | Error e -> Alcotest.fail e in
  let session = Eval.session doc in
  let cat = Eval.catalog_of_session session in
  let g = Planner.guide cat in
  let bounded what f =
    let before = Gc.allocated_bytes () in
    let x = f () in
    let mb = (Gc.allocated_bytes () -. before) /. 1e6 in
    check_bool (Printf.sprintf "%s allocated %.1f MB (< 32)" what mb) true (mb < 32.);
    x
  in
  (* the statistics fold sweeps the summary without recursion *)
  Doc_scan.check "deep chain" doc g
    (bounded "folding the statistics" (fun () -> Planner.doc_stats cat));
  let plan q = bounded ("planning " ^ q) (fun () -> Eval.path_plan session (parse_ok q)) in
  check_bool "the cursor holds one path per level" true
    (contains (Plan.physical_to_string (plan "//a")) (Printf.sprintf "over %d path(s)" depth));
  ignore (plan "//a/ancestor::a");
  ignore (plan "//a/ancestor-or-self::a");
  check_int "//a" depth (Nodeseq.length (Eval.run_exn session "//a"));
  check_int "//a/ancestor::a" (depth - 1) (Nodeseq.length (Eval.run_exn session "//a/ancestor::a"))

let test_plan_json_shape () =
  let session = Eval.session (Lazy.force xmark) in
  let json = Eval.plan_json session (parse_ok "//keyword") in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "json contains %s" needle) true (contains json needle))
    [ "\"op\":\"join\""; "\"backend\":"; "\"est\":"; "\"rejected\":"; "\"op\":\"source\"" ]

let () =
  Alcotest.run "scj_plan"
    [
      ( "doc stats",
        [
          Alcotest.test_case "counts" `Quick test_doc_stats_counts;
          Alcotest.test_case "memoized views" `Quick test_doc_stats_memoized;
          Alcotest.test_case "XMark 0.1 = document scan" `Quick test_doc_stats_xmark;
        ] );
      ( "rewrites",
        [
          Alcotest.test_case "bridge+child fuses" `Quick test_rewrite_fuses_bridge_child;
          Alcotest.test_case "bridge+descendant drops bridge" `Quick
            test_rewrite_drops_bridge_before_descendant;
          Alcotest.test_case "positional child blocks fusion" `Quick
            test_rewrite_keeps_positional_child;
          Alcotest.test_case "self noop dropped" `Quick test_rewrite_drops_self_noop;
          Alcotest.test_case "predicates reordered by rank" `Quick
            test_rewrite_reorders_predicates;
          Alcotest.test_case "positional pins predicate order" `Quick
            test_rewrite_keeps_positional_order;
        ] );
      ( "golden plan trees",
        [
          Alcotest.test_case "Q1" `Quick test_golden_q1;
          Alcotest.test_case "//keyword fusion" `Quick test_golden_keyword;
          Alcotest.test_case "semijoin" `Quick test_golden_semijoin;
          Alcotest.test_case "wildcard element view" `Quick test_golden_wildcard;
        ] );
      ( "planner",
        [
          Alcotest.test_case "wildcard pushdown decision" `Quick test_wildcard_pushdown_impl;
          Alcotest.test_case "plan cache" `Quick test_plan_cache;
          Alcotest.test_case "auto = forced results" `Quick test_results_unchanged_by_auto;
          Alcotest.test_case "kernel node tests = forced counters" `Quick
            test_kernel_counter_parity;
          Alcotest.test_case "forced plans keep the oracles" `Quick test_forced_plans_keep_oracles;
          Alcotest.test_case "plan json" `Quick test_plan_json_shape;
          Alcotest.test_case "deep chain plans in linear space" `Quick test_deep_chain_planning;
        ] );
    ]
