(* Golden tests for the EXPLAIN / EXPLAIN ANALYZE subsystem.

   The plans are rendered against the deterministic XMark fixture
   (default seed, scale 0.003), so the cost-model estimates in the
   goldens are exact.  The matrix covers all four partitioning axes,
   every skipping variant (as forced backends), the cost-based planner's
   auto choice with its rejected-alternative lines, and the `Cost_based
   pushdown decision in both directions (taken on the small 'education'
   fragment, rejected when the estimated scan of 13 nodes beats the
   235-node 'text' fragment). *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Trace = Scj_trace.Trace
module Sj = Scj_core.Staircase
module Parallel = Scj_frag.Parallel
module Eval = Scj_xpath.Eval
module Plan = Scj_plan.Plan

let xmark = lazy (Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.003 ())))

let explain strategy path =
  let doc = Lazy.force xmark in
  let session = Eval.session ~strategy doc in
  match Scj_xpath.Parse.path path with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p -> Eval.explain session p

let check_golden name strategy path golden () =
  Alcotest.(check string) name golden (explain strategy path)
let golden_mode_no_skipping =
  {golden|path: /descendant::profile/descendant::education
strategy: staircase/no-skipping(pushdown=never)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::profile
    backend: staircase join (serial, no-skipping) + self
    pushdown: no (disabled)
    est: in=1 touches=6737 out=28 cost=6749
  join: descendant::education
    backend: staircase join (serial, no-skipping)
    pushdown: no (disabled)
    est: in=28 touches=264 out=13 cost=7046

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'profile'
AND    v2.pre > v1.pre
AND    v2.post < v1.post
AND    v2.tag = 'education'
ORDER BY v2.pre
|golden}
let golden_mode_skipping =
  {golden|path: /descendant::profile/descendant::education
strategy: staircase/skipping(pushdown=never)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::profile
    backend: staircase join (serial, skipping) + self
    pushdown: no (disabled)
    est: in=1 touches=6737 out=28 cost=6748
  join: descendant::education
    backend: staircase join (serial, skipping)
    pushdown: no (disabled)
    est: in=28 touches=264 out=13 cost=572

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'profile'
AND    v2.pre > v1.pre
AND    v2.post < v1.post
AND    v2.tag = 'education'
ORDER BY v2.pre
|golden}
let golden_mode_estimation =
  {golden|path: /descendant::profile/descendant::education
strategy: staircase/estimation(pushdown=never)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::profile
    backend: staircase join (serial, estimation) + self
    pushdown: no (disabled)
    est: in=1 touches=6737 out=28 cost=6748
  join: descendant::education
    backend: staircase join (serial, estimation)
    pushdown: no (disabled)
    est: in=28 touches=264 out=13 cost=572

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'profile'
AND    v2.pre > v1.pre
AND    v2.post < v1.post
AND    v2.tag = 'education'
ORDER BY v2.pre
|golden}
let golden_mode_exact_size =
  {golden|path: /descendant::profile/descendant::education
strategy: staircase/exact-size(pushdown=never)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::profile
    backend: staircase join (serial, exact-size) + self
    pushdown: no (disabled)
    est: in=1 touches=6737 out=28 cost=6748
  join: descendant::education
    backend: staircase join (serial, exact-size)
    pushdown: no (disabled)
    est: in=28 touches=264 out=13 cost=572

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'profile'
AND    v2.pre > v1.pre
AND    v2.post < v1.post
AND    v2.tag = 'education'
ORDER BY v2.pre
|golden}
let golden_anc =
  {golden|path: /descendant::increase/ancestor::bidder
strategy: staircase/estimation(pushdown=never)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::increase
    backend: staircase join (serial, estimation) + self
    pushdown: no (disabled)
    est: in=1 touches=6737 out=147 cost=6748
  join: ancestor::bidder
    backend: staircase join (serial, estimation)
    pushdown: no (disabled)
    est: in=147 touches=588 out=147 cost=2205

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'increase'
AND    v2.pre < v1.pre
AND    v2.post > v1.post
AND    v2.tag = 'bidder'
ORDER BY v2.pre
|golden}
let golden_following =
  {golden|path: /descendant::privacy/following::annotation
strategy: staircase/estimation(pushdown=never)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::privacy
    backend: staircase join (serial, estimation) + self
    pushdown: no (disabled)
    est: in=1 touches=6737 out=10 cost=6748
  join: following::annotation
    backend: staircase join (serial, estimation)
    note: context prunes to a single region query (§3.1)
    est: in=10 touches=6737 out=45 cost=6737

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'privacy'
AND    v2.pre > v1.pre
AND    v2.post > v1.post
AND    v2.tag = 'annotation'
ORDER BY v2.pre
|golden}
let golden_preceding =
  {golden|path: /descendant::privacy/preceding::annotation
strategy: staircase/estimation(pushdown=never)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::privacy
    backend: staircase join (serial, estimation) + self
    pushdown: no (disabled)
    est: in=1 touches=6737 out=10 cost=6748
  join: preceding::annotation
    backend: staircase join (serial, estimation)
    note: context prunes to a single region query (§3.1)
    est: in=10 touches=6737 out=45 cost=6737

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'privacy'
AND    v2.pre < v1.pre
AND    v2.post < v1.post
AND    v2.tag = 'annotation'
ORDER BY v2.pre
|golden}
let golden_cost_taken =
  {golden|path: /descendant::profile/descendant::education
strategy: staircase/estimation(pushdown=cost)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::profile
    backend: staircase join (serial, estimation) + self
    pushdown: yes (join over the fragment) -- tag fragment 'profile': 28 node(s) vs. estimated scan of 6737 node(s)
    est: in=1 touches=6737 out=28 cost=39
  join: descendant::education
    backend: staircase join (serial, estimation)
    pushdown: yes (join over the fragment) -- tag fragment 'education': 13 node(s) vs. estimated scan of 264 node(s)
    est: in=28 touches=264 out=13 cost=321

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'profile'
AND    v2.pre > v1.pre
AND    v2.post < v1.post
AND    v2.tag = 'education'
ORDER BY v2.pre
|golden}
let golden_cost_rejected =
  {golden|path: /descendant::education/descendant::text
strategy: staircase/estimation(pushdown=cost)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::education
    backend: staircase join (serial, estimation) + self
    pushdown: yes (join over the fragment) -- tag fragment 'education': 13 node(s) vs. estimated scan of 6737 node(s)
    est: in=1 touches=6737 out=13 cost=24
  join: descendant::text
    backend: staircase join (serial, estimation)
    pushdown: no (filter after the join) -- tag fragment 'text': 235 node(s) vs. estimated scan of 13 node(s)
    est: in=13 touches=13 out=13 cost=156

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'education'
AND    v2.pre > v1.pre
AND    v2.post < v1.post
AND    v2.tag = 'text'
ORDER BY v2.pre
|golden}
let golden_auto =
  {golden|path: /descendant::increase/ancestor::bidder
strategy: auto(pushdown=cost)
plan:
  source: document node (emulated at the root element)  [est card=1]
  join: descendant-or-self::increase
    backend: staircase join (serial, estimation) + self
    pushdown: yes (join over the fragment) -- tag fragment 'increase': 147 node(s) vs. estimated scan of 6737 node(s)
    guide: exact card=147 over 1 path(s)
    est: in=1 touches=6737 out=147 cost=158
    rejected: document cost=6748, guide partition cost=158
  join: ancestor::bidder
    backend: staircase join (serial, estimation)
    pushdown: yes (join over the fragment) -- tag fragment 'bidder': 147 node(s) vs. estimated scan of 588 node(s)
    guide: upper bound card<=147 over 1 path(s)
    est: in=147 touches=588 out=147 cost=1764
    rejected: document cost=2205, guide partition cost=1764

equivalent pure-SQL translation (§2.1):
SELECT DISTINCT v2.pre
FROM   doc v1, doc v2
WHERE  v1.pre > pre(:ctx)
AND    v1.post < post(:ctx)
AND    v1.tag = 'increase'
AND    v2.pre < v1.pre
AND    v2.post > v1.post
AND    v2.tag = 'bidder'
ORDER BY v2.pre
|golden}
let golden_cases =
  [
    Alcotest.test_case "mode-no-skipping" `Quick
      (check_golden "mode-no-skipping" { Eval.backend = `Force (Plan.Serial Sj.No_skipping); pushdown = `Never } "/descendant::profile/descendant::education" golden_mode_no_skipping);
    Alcotest.test_case "mode-skipping" `Quick
      (check_golden "mode-skipping" { Eval.backend = `Force (Plan.Serial Sj.Skipping); pushdown = `Never } "/descendant::profile/descendant::education" golden_mode_skipping);
    Alcotest.test_case "mode-estimation" `Quick
      (check_golden "mode-estimation" { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never } "/descendant::profile/descendant::education" golden_mode_estimation);
    Alcotest.test_case "mode-exact-size" `Quick
      (check_golden "mode-exact-size" { Eval.backend = `Force (Plan.Serial Sj.Exact_size); pushdown = `Never } "/descendant::profile/descendant::education" golden_mode_exact_size);
    Alcotest.test_case "anc" `Quick
      (check_golden "anc" { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never } "/descendant::increase/ancestor::bidder" golden_anc);
    Alcotest.test_case "following" `Quick
      (check_golden "following" { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never } "/descendant::privacy/following::annotation" golden_following);
    Alcotest.test_case "preceding" `Quick
      (check_golden "preceding" { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never } "/descendant::privacy/preceding::annotation" golden_preceding);
    Alcotest.test_case "cost-taken" `Quick
      (check_golden "cost-taken" { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Cost_based } "/descendant::profile/descendant::education" golden_cost_taken);
    Alcotest.test_case "cost-rejected" `Quick
      (check_golden "cost-rejected" { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Cost_based } "/descendant::education/descendant::text" golden_cost_rejected);
    Alcotest.test_case "auto" `Quick
      (check_golden "auto" Eval.default_strategy "/descendant::increase/ancestor::bidder" golden_auto);
  ]

(* ------------------------------------------------------------------ *)
(* analyze: span-tree structure                                         *)
(* ------------------------------------------------------------------ *)

let path_exn s =
  match Scj_xpath.Parse.path s with Ok p -> p | Error e -> Alcotest.failf "parse: %s" e

let test_analyze_spans () =
  let doc = Lazy.force xmark in
  let session = Eval.session doc in
  let result, trace = Eval.analyze session (path_exn "/descendant::profile/descendant::education") in
  Alcotest.(check int) "result size" 13 (Nodeseq.length result);
  match Trace.roots trace with
  | [ root ] ->
    Alcotest.(check bool) "root is the query span" true
      (String.length root.Trace.name > 6 && String.sub root.Trace.name 0 6 = "query:");
    Alcotest.(check int) "one child span per step" 2 (List.length root.Trace.children);
    List.iter
      (fun (sp : Trace.span) ->
        Alcotest.(check bool)
          (Printf.sprintf "span %s has an algorithm annotation" sp.Trace.name)
          true
          (List.mem_assoc "algorithm" sp.Trace.attrs);
        Alcotest.(check bool)
          (Printf.sprintf "span %s recorded work" sp.Trace.name)
          false
          (Stats.is_zero sp.Trace.work);
        Alcotest.(check bool)
          (Printf.sprintf "span %s elapsed is sane" sp.Trace.name)
          true
          (sp.Trace.elapsed_ns >= 0.0))
      root.Trace.children;
    let last = List.nth root.Trace.children 1 in
    Alcotest.(check (option string)) "out cardinality annotated" (Some "13")
      (List.assoc_opt "out" last.Trace.attrs)
  | roots -> Alcotest.failf "expected exactly one root span, got %d" (List.length roots)

let test_analyze_totals_match_trace_stats () =
  let doc = Lazy.force xmark in
  let session = Eval.session doc in
  let _, trace = Eval.analyze session (path_exn "/descendant::increase/ancestor::bidder") in
  match Trace.roots trace with
  | [ root ] ->
    (* the root span's work delta is the whole query's counter total *)
    Alcotest.(check (list (pair string int)))
      "root span work = tracked totals"
      (Stats.all_assoc (Trace.stats trace))
      (Stats.all_assoc root.Trace.work)
  | _ -> Alcotest.fail "expected one root"

let contains ~needle hay =
  let nh = String.length needle and nl = String.length hay in
  let rec go i = i + nh <= nl && (String.sub hay i nh = needle || go (i + 1)) in
  nh = 0 || go 0

let test_analyze_json_shape () =
  let doc = Lazy.force xmark in
  let session = Eval.session doc in
  let _, trace = Eval.analyze session (path_exn "/descendant::privacy") in
  let json = Trace.to_json trace in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "json contains %s" needle) true
        (contains ~needle json))
    [ "\"name\":\"query:"; "\"elapsed_ms\":"; "\"work\":{\"scanned\":"; "\"children\":[" ]

(* ------------------------------------------------------------------ *)
(* serial / parallel counter parity                                     *)
(* ------------------------------------------------------------------ *)

(* The parallel join merges per-worker counters with Stats.add; the merged
   totals must be indistinguishable from the serial run (per skip mode,
   both directions). *)
let test_parallel_counters_match_serial () =
  let doc = Lazy.force xmark in
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions doc "profile") in
  let increases = Nodeseq.of_sorted_array (Doc.tag_positions doc "increase") in
  List.iter
    (fun mode ->
      List.iter
        (fun domains ->
          let serial_desc = Stats.create () in
          let par_desc = Stats.create () in
          let r1 = Sj.desc ~exec:(Exec.make ~mode ~stats:serial_desc ()) doc profiles in
          let r2 = Parallel.desc ~exec:(Exec.make ~mode ~domains ~stats:par_desc ()) doc profiles in
          Alcotest.(check bool)
            (Printf.sprintf "desc results agree (%s, %d domains)" (Sj.skip_mode_to_string mode)
               domains)
            true (Nodeseq.equal r1 r2);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "desc counters agree (%s, %d domains)" (Sj.skip_mode_to_string mode)
               domains)
            (Stats.all_assoc serial_desc) (Stats.all_assoc par_desc);
          let serial_anc = Stats.create () in
          let par_anc = Stats.create () in
          let r1 = Sj.anc ~exec:(Exec.make ~mode ~stats:serial_anc ()) doc increases in
          let r2 = Parallel.anc ~exec:(Exec.make ~mode ~domains ~stats:par_anc ()) doc increases in
          Alcotest.(check bool)
            (Printf.sprintf "anc results agree (%s, %d domains)" (Sj.skip_mode_to_string mode)
               domains)
            true (Nodeseq.equal r1 r2);
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "anc counters agree (%s, %d domains)" (Sj.skip_mode_to_string mode)
               domains)
            (Stats.all_assoc serial_anc) (Stats.all_assoc par_anc))
        [ 1; 2; 4 ])
    [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ]

(* ------------------------------------------------------------------ *)
(* stats rendering                                                      *)
(* ------------------------------------------------------------------ *)

let test_stats_pp_stable () =
  let s = Stats.create () in
  s.Stats.scanned <- 42;
  s.Stats.pruned <- 3;
  Alcotest.(check string) "labelled, one counter per line"
    "scanned      42\n\
     copied       0\n\
     skipped      0\n\
     appended     0\n\
     compared     0\n\
     index_probes 0\n\
     index_nodes  0\n\
     duplicates   0\n\
     sorted       0\n\
     pruned       3"
    (Format.asprintf "%a" Stats.pp s);
  Alcotest.(check string) "inline keeps only non-zero counters" "scanned=42 pruned=3"
    (Format.asprintf "%a" Stats.pp_inline s);
  Alcotest.(check string) "inline zero case" "(no work recorded)"
    (Format.asprintf "%a" Stats.pp_inline (Stats.create ()))

let test_stats_to_json () =
  let s = Stats.create () in
  s.Stats.copied <- 7;
  Alcotest.(check string) "all counters, stable order"
    "{\"scanned\":0,\"copied\":7,\"skipped\":0,\"appended\":0,\"compared\":0,\"index_probes\":0,\"index_nodes\":0,\"duplicates\":0,\"sorted\":0,\"pruned\":0}"
    (Stats.to_json s)

(* Per-node predicates run under one span however many candidates they
   filter: a forced-strategy analyze has the same span count at two
   document sizes, and the span counts the evaluations. *)
let test_per_node_predicate_spans () =
  let strategy = Option.get (Eval.strategy_of_string "staircase") in
  let rec spans (s : Trace.span) = s :: List.concat_map spans s.Trace.children in
  let analyze scale =
    let doc = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale ())) in
    let result, trace =
      Eval.analyze (Eval.session ~strategy doc) (path_exn "/descendant::bidder[descendant::increase]")
    in
    let all = List.concat_map spans (Trace.roots trace) in
    let evaluations =
      List.filter_map (fun (s : Trace.span) -> List.assoc_opt "evaluations" s.Trace.attrs) all
    in
    (Nodeseq.length result, List.length all, evaluations)
  in
  let n1, spans1, evals1 = analyze 0.003 in
  let n2, spans2, evals2 = analyze 0.01 in
  Alcotest.(check bool) "candidate counts differ" true (n1 <> n2);
  Alcotest.(check int) "span count independent of the candidates" spans1 spans2;
  Alcotest.(check (list string)) "evaluations at 0.003" [ string_of_int n1 ] evals1;
  Alcotest.(check (list string)) "evaluations at 0.01" [ string_of_int n2 ] evals2

(* Under auto the same query runs as a semijoin whose estimate keeps at
   most as many bidders as there are increases: exact here. *)
let test_semijoin_q_error () =
  let _, trace =
    Eval.analyze (Eval.session (Lazy.force xmark)) (path_exn "/descendant::bidder[descendant::increase]")
  in
  let rec q_errors (s : Trace.span) =
    Option.to_list (List.assoc_opt "q_error" s.Trace.attrs) @ List.concat_map q_errors s.Trace.children
  in
  Alcotest.(check (list string)) "q-error" [ "1.00" ] (List.concat_map q_errors (Trace.roots trace))

let () =
  Alcotest.run "scj_trace"
    [
      ("golden explain", golden_cases);
      ( "analyze",
        [
          Alcotest.test_case "span tree structure" `Quick test_analyze_spans;
          Alcotest.test_case "totals match trace stats" `Quick
            test_analyze_totals_match_trace_stats;
          Alcotest.test_case "json shape" `Quick test_analyze_json_shape;
          Alcotest.test_case "one span for per-node predicates" `Quick
            test_per_node_predicate_spans;
          Alcotest.test_case "semijoin estimate" `Quick test_semijoin_q_error;
        ] );
      ( "parallel parity",
        [
          Alcotest.test_case "merged counters = serial counters" `Quick
            test_parallel_counters_match_serial;
        ] );
      ( "stats rendering",
        [
          Alcotest.test_case "pp is labelled and stable" `Quick test_stats_pp_stable;
          Alcotest.test_case "to_json" `Quick test_stats_to_json;
        ] );
    ]
