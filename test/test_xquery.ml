(* Tests for the XQuery-lite layer (lib/xquery): the Pathfinder-style
   usage scenario where FLWOR iteration produces arbitrary context
   sequences for staircase-join axis steps. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Eval = Scj_xpath.Eval
module Exec = Scj_trace.Exec
module Stats = Scj_stats.Stats
module Flwor = Scj_plan.Flwor
module Xq = Scj_xquery.Xq_eval
module Xqc = Scj_xquery.Xq_compile
module Xq_parse = Scj_xquery.Xq_parse
module Xq_ast = Scj_xquery.Xq_ast

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_string = Alcotest.(check string)

let bookstore =
  lazy
    (match
       Doc.of_string
         "<bookstore>\
            <book id='b1'><title>Data on the Web</title><price>39.95</price><year>1999</year></book>\
            <book id='b2'><title>XQuery</title><price>49.00</price><year>2003</year></book>\
            <book id='b3'><title>XML Databases</title><price>25.50</price><year>2003</year></book>\
          </bookstore>"
     with
    | Ok d -> d
    | Error e -> failwith e)

let session () = Eval.session (Lazy.force bookstore)

let run q =
  match Xq.run (session ()) q with
  | Ok v -> v
  | Error e -> Alcotest.failf "XQuery %S failed: %s" q e

let run_err q =
  match Xq.run (session ()) q with
  | Ok _ -> Alcotest.failf "expected %S to fail" q
  | Error e -> e

let atoms v =
  List.map
    (function Xq.Atom a -> Xq.atom_to_string a | _ -> Alcotest.fail "expected an atom")
    v

(* ------------------------------------------------------------------ *)
(* parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse_ok q =
  match Xq_parse.parse q with
  | Ok e -> e
  | Error e -> Alcotest.failf "parse %S: %s" q e

let test_parse_shapes () =
  (match parse_ok "for $b in //book where $b/price > 30 return $b/title" with
  | Xq_ast.Flwor
      {
        Xq_ast.clauses = [ Xq_ast.For ("b", None, _) ];
        where = Some _;
        order_by = None;
        return = Xq_ast.Apply (Xq_ast.Var "b", _);
      } ->
    ()
  | e -> Alcotest.failf "unexpected FLWOR shape: %s" (Xq_ast.to_string e));
  (match parse_ok "let $x := 1 return $x + 2" with
  | Xq_ast.Flwor
      {
        Xq_ast.clauses = [ Xq_ast.Let ("x", _) ];
        where = None;
        order_by = None;
        return = Xq_ast.Binop (Xq_ast.Add, _, _);
      } ->
    ()
  | e -> Alcotest.failf "unexpected let shape: %s" (Xq_ast.to_string e));
  (match parse_ok "for $b at $i in //book order by $b/price descending return $i" with
  | Xq_ast.Flwor
      {
        Xq_ast.clauses = [ Xq_ast.For ("b", Some "i", _) ];
        order_by = Some (_, Xq_ast.Descending);
        _;
      } ->
    ()
  | e -> Alcotest.failf "unexpected order-by shape: %s" (Xq_ast.to_string e));
  (match parse_ok "element result { () }" with
  | Xq_ast.Element ("result", Xq_ast.Seq []) -> ()
  | e -> Alcotest.failf "unexpected constructor shape: %s" (Xq_ast.to_string e));
  match parse_ok "if (exists(//book)) then 1 else 2" with
  | Xq_ast.If (_, _, _) -> ()
  | e -> Alcotest.failf "unexpected if shape: %s" (Xq_ast.to_string e)

let test_parse_precedence () =
  check_string "mul binds tighter than add" "(1 + (2 * 3))" (Xq_ast.to_string (parse_ok "1 + 2 * 3"));
  check_string "cmp above arithmetic" "(1 + 1) = 2" (Xq_ast.to_string (parse_ok "1 + 1 = 2"));
  check_string "and below cmp" "(1 = 1 and 2 = 2)" (Xq_ast.to_string (parse_ok "1 = 1 and 2 = 2"))

let test_parse_errors () =
  let bad q =
    match Xq_parse.parse q with
    | Ok _ -> Alcotest.failf "expected syntax error for %S" q
    | Error _ -> ()
  in
  bad "for $x in //book";
  (* missing return *)
  bad "let $x = 1 return $x";
  (* = instead of := *)
  bad "book";
  (* bare relative path *)
  bad "for in //book return 1";
  bad "element { 1 }";
  bad "1 +"

(* ------------------------------------------------------------------ *)
(* evaluation                                                          *)
(* ------------------------------------------------------------------ *)

let test_atoms_and_arithmetic () =
  Alcotest.(check (list string)) "literal" [ "xq" ] (atoms (run "'xq'"));
  Alcotest.(check (list string)) "arithmetic" [ "7" ] (atoms (run "1 + 2 * 3"));
  Alcotest.(check (list string)) "div/mod" [ "2"; "1" ] (atoms (run "(4 div 2, 7 mod 2)"));
  Alcotest.(check (list string)) "subtraction" [ "-1" ] (atoms (run "1 - 2"));
  Alcotest.(check (list string)) "empty arith is empty" [] (atoms (run "1 + ()"));
  Alcotest.(check (list string)) "sequence flattening" [ "1"; "2"; "3" ]
    (atoms (run "(1, (2, 3))"))

let test_paths () =
  check_int "absolute path" 3 (List.length (run "//book"));
  check_int "apply to variable" 3
    (List.length (run "for $b in //book return $b/title"));
  check_int "double slash apply" 3
    (List.length (run "for $s in /bookstore return $s//title"));
  check_int "path on empty" 0 (List.length (run "for $b in () return $b"))

let test_flwor () =
  Alcotest.(check (list string)) "where filter" [ "XQuery" ]
    (atoms (run "for $b in //book where $b/price > 40 return string($b/title)"));
  Alcotest.(check (list string)) "let binding" [ "3" ]
    (atoms (run "let $n := count(//book) return $n"));
  Alcotest.(check (list string)) "nested for (cartesian)" [ "9" ]
    (atoms (run "count(for $a in //book, $b in //book return ($a, $b)) div 2"));
  Alcotest.(check (list string)) "multiple clauses" [ "b2" ]
    (atoms
       (run
          "for $b in //book let $p := $b/price where $p > 40 return string($b/@id)"))

let test_order_by_and_at () =
  Alcotest.(check (list string)) "order by price ascending"
    [ "XML Databases"; "Data on the Web"; "XQuery" ]
    (atoms (run "for $b in //book order by $b/price return string($b/title)"));
  Alcotest.(check (list string)) "order by price descending"
    [ "XQuery"; "Data on the Web"; "XML Databases" ]
    (atoms (run "for $b in //book order by $b/price descending return string($b/title)"));
  (* descending is a stable flipped-comparator sort, not a reversal:
     equal keys (year 2003 for b2 and b3) keep iteration order *)
  Alcotest.(check (list string)) "descending keeps equal-key order stable"
    [ "b2"; "b3"; "b1" ]
    (atoms (run "for $b in //book order by $b/year descending return string($b/@id)"));
  (* "empty least" holds in both directions: () sorts last when descending *)
  Alcotest.(check (list string)) "descending sorts empty keys last"
    [ "b1"; "b3"; "b2" ]
    (atoms
       (run
          "for $b in //book order by (if ($b/@id = 'b2') then () else $b/price) \
           descending return string($b/@id)"));
  Alcotest.(check (list string)) "positional variable" [ "1"; "2"; "3" ]
    (atoms (run "for $b at $i in //book return $i"));
  Alcotest.(check (list string)) "at with where" [ "2" ]
    (atoms (run "for $b at $i in //book where $b/title = 'XQuery' return $i"))

let test_distinct_values () =
  Alcotest.(check (list string)) "distinct years" [ "1999"; "2003" ]
    (atoms (run "distinct-values(//book/year)"));
  Alcotest.(check (list string)) "distinct atoms" [ "1"; "2" ]
    (atoms (run "distinct-values((1, 2, 1, 2, 1))"))

let test_comparisons () =
  Alcotest.(check (list string)) "general comparison exists" [ "true" ]
    (atoms (run "//book/price > 40"));
  Alcotest.(check (list string)) "string equality" [ "true" ]
    (atoms (run "//book/title = 'XQuery'"));
  Alcotest.(check (list string)) "and/or" [ "true" ]
    (atoms (run "1 = 1 and (2 = 3 or 4 = 4)"))

let test_conditionals () =
  Alcotest.(check (list string)) "then branch" [ "cheap" ]
    (atoms (run "for $b in //book where $b/@id = 'b3' return if ($b/price < 30) then 'cheap' else 'pricey'"));
  Alcotest.(check (list string)) "else branch" [ "pricey" ]
    (atoms (run "for $b in //book where $b/@id = 'b2' return if ($b/price < 30) then 'cheap' else 'pricey'"))

let test_functions () =
  Alcotest.(check (list string)) "count" [ "3" ] (atoms (run "count(//book)"));
  Alcotest.(check (list string)) "exists/empty" [ "true"; "true" ]
    (atoms (run "(exists(//book), empty(//pamphlet))"));
  Alcotest.(check (list string)) "sum" [ "114.45" ] (atoms (run "sum(//book/price)"));
  Alcotest.(check (list string)) "name" [ "bookstore" ] (atoms (run "name(/)"));
  Alcotest.(check (list string)) "concat" [ "b1+b2" ]
    (atoms (run "concat(string(//book[1]/@id), '+', string(//book[2]/@id))"));
  Alcotest.(check (list string)) "data atomizes" [ "XQuery" ]
    (atoms (run "data(//book[@id = 'b2']/title)"))

let test_constructors () =
  let v = run "element summary { for $b in //book where $b/price > 40 return $b/title }" in
  match v with
  | [ Xq.Tree (Scj_xml.Tree.Element e) ] ->
    check_string "name" "summary" e.Scj_xml.Tree.name;
    check_int "one child title" 1 (List.length e.Scj_xml.Tree.children)
  | _ -> Alcotest.fail "expected one constructed element"

let test_constructor_text_merging () =
  match run "element t { ('a', 'b', 'c') }" with
  | [ Xq.Tree (Scj_xml.Tree.Element { children = [ Scj_xml.Tree.Text s ]; _ }) ] ->
    check_string "atoms joined with spaces" "a b c" s
  | _ -> Alcotest.fail "expected a single text child"

let test_constructor_attributes () =
  (* an attribute node in constructor content becomes an attribute of the
     constructed element *)
  match run "for $b in //book where $b/@id = 'b2' return element copy { ($b/@id, $b/title) }" with
  | [ Xq.Tree (Scj_xml.Tree.Element e) ] ->
    Alcotest.(check (list (pair string string))) "attribute" [ ("id", "b2") ] e.Scj_xml.Tree.attributes;
    check_int "one child" 1 (List.length e.Scj_xml.Tree.children)
  | _ -> Alcotest.fail "expected one constructed element"

let test_serialize () =
  let session = session () in
  match Xq.run session "element out { text { 'hi' } }" with
  | Ok v -> check_string "serialized" "<out>hi</out>" (Xq.serialize session v)
  | Error e -> Alcotest.fail e

let test_eval_errors () =
  check_bool "unbound variable" true
    (String.length (run_err "$nope") > 0);
  check_bool "path on atom" true (String.length (run_err "for $x in (1, 2) return $x/title") > 0)

(* ------------------------------------------------------------------ *)
(* the Pathfinder scenario on XMark                                    *)
(* ------------------------------------------------------------------ *)

let test_xmark_flwor () =
  let doc = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.003 ())) in
  let session = Eval.session doc in
  (* XMark Q2-flavored: the increases of busy auctions *)
  let q =
    "for $a in //open_auction where count($a/bidder) >= 4 \
     return element busy { ($a/@id, count($a/bidder)) }"
  in
  match Xq.run session q with
  | Error e -> Alcotest.fail e
  | Ok v ->
    check_bool "some busy auctions" true (List.length v > 0);
    List.iter
      (function
        | Xq.Tree (Scj_xml.Tree.Element { name = "busy"; _ }) -> ()
        | _ -> Alcotest.fail "expected constructed busy elements")
      v;
    (* cross-check the where filter against plain XPath *)
    let expected =
      Nodeseq.length (Eval.run_exn session "//open_auction[count(bidder) >= 4]")
    in
    check_int "agrees with XPath predicate" expected (List.length v)

(* differential: a bare path in XQuery must agree with the XPath engine *)
let prop_path_agrees_with_xpath =
  QCheck.Test.make ~count:200 ~name:"XQuery path evaluation = XPath engine"
    (QCheck.make (Test_support.doc_gen ~max_nodes:40 ()))
    (fun d ->
      let session = Eval.session d in
      let queries = [ "//a"; "//item"; "/descendant::node()"; "//a/ancestor::node()" ] in
      List.for_all
        (fun q ->
          let via_xpath = Nodeseq.to_list (Eval.run_exn session q) in
          match Xq.run session q with
          | Error e -> QCheck.Test.fail_reportf "xquery failed on %s: %s" q e
          | Ok items ->
            let via_xq =
              List.map (function Xq.Node v -> v | _ -> -1) items
            in
            via_xq = via_xpath)
        queries)

(* FLWOR over a for-bound sequence re-traverses per binding but must
   reproduce the set-at-a-time XPath result *)
let prop_flwor_matches_xpath_step =
  QCheck.Test.make ~count:100 ~name:"per-binding FLWOR traversal = set-at-a-time XPath"
    (QCheck.make (Test_support.doc_gen ~max_nodes:40 ()))
    (fun d ->
      let session = Eval.session d in
      let via_xpath = Nodeseq.to_list (Eval.run_exn session "//a/descendant::node()") in
      match Xq.run session "for $x in //a return $x/descendant::node()" with
      | Error e -> QCheck.Test.fail_reportf "xquery failed: %s" e
      | Ok items ->
        (* per-binding iteration may produce duplicates (overlapping
           subtrees) in iteration order; the distinct sorted set matches *)
        let via_xq =
          List.sort_uniq compare (List.map (function Xq.Node v -> v | _ -> -1) items)
        in
        via_xq = via_xpath)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_path_agrees_with_xpath; prop_flwor_matches_xpath_step ]

(* ------------------------------------------------------------------ *)
(* number formatting: shortest round-trip floats                       *)
(* ------------------------------------------------------------------ *)

let test_float_format () =
  let f = Flwor.float_to_string in
  check_string "integral drops the point" "3" (f 3.0);
  check_string "negative integral" "-42" (f (-42.0));
  check_string "negative zero keeps its sign" "-0" (f (-0.0));
  check_string "plain fraction" "1.5" (f 1.5);
  check_string "shortest round-trip, not %.17g noise" "0.1" (f 0.1);
  check_string "classic accumulation artifact survives" "0.30000000000000004" (f (0.1 +. 0.2));
  check_string "third" "0.3333333333333333" (f (1.0 /. 3.0));
  check_string "large integral stays expanded" "1000000000000000" (f 1e15);
  check_string "very large goes exponential" "1e+21" (f 1e21);
  check_string "NaN" "NaN" (f Float.nan);
  check_string "infinities" "Infinity -Infinity"
    (Printf.sprintf "%s %s" (f Float.infinity) (f Float.neg_infinity));
  (* every finite output must parse back to the identical double *)
  List.iter
    (fun x ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "round-trip %h" x)
        x
        (float_of_string (f x)))
    [ 0.1; 0.1 +. 0.2; 1.0 /. 3.0; 1e15; 1e21; 1.5; 39.95 +. 49.0 +. 25.5; 6.02214076e23 ]

(* ------------------------------------------------------------------ *)
(* compiled pipeline vs the interpreter oracle                         *)
(* ------------------------------------------------------------------ *)

(* Join-free programs must be bit-identical in results AND work
   counters; programs with an isolated value join agree on results (the
   join changes how much work is done, never the answer). *)
let test_compiled_parity () =
  let session = session () in
  let both q =
    let expr = parse_ok q in
    let c_exec = Exec.make () and i_exec = Exec.make () in
    let compiled =
      match Xqc.eval ~exec:c_exec session expr with
      | Ok v -> v
      | Error e -> Alcotest.failf "compiled %S: %s" q e
    in
    let interpreted =
      match Xq.interpret ~exec:i_exec session expr with
      | Ok v -> v
      | Error e -> Alcotest.failf "interpreter %S: %s" q e
    in
    check_string q (Xq.serialize session interpreted) (Xq.serialize session compiled);
    (Stats.all_assoc c_exec.Exec.stats, Stats.all_assoc i_exec.Exec.stats)
  in
  List.iter
    (fun q ->
      let c, i = both q in
      Alcotest.(check (list (pair string int))) (q ^ " (counters)") i c)
    [
      "for $b in //book where $b/price > 40 return $b/title";
      "for $b at $i in //book order by $b/price descending return ($i, $b/title)";
      "let $n := count(//book) return element c { $n }";
      "for $b in //book return element row { ($b/@id, string($b/title)) }";
      "sum(//book/price)";
      "distinct-values(//book/year)";
      "for $a in //book for $b in //book where $a/year != $b/year return 1";
      (* joinable in shape, but the cost model refuses 3x3 books — the
         where clause survives verbatim, so counters stay identical *)
      "for $a in //book for $b in //book where $a/year = $b/year return ($a/@id, $b/@id)";
    ]

(* dynamic and static errors keep the interpreter's messages *)
let test_compiled_errors () =
  let session = session () in
  let err_of run q =
    match run q with Ok _ -> Alcotest.failf "expected %S to fail" q | Error e -> e
  in
  List.iter
    (fun q ->
      let compiled = err_of (Xq.run session) q in
      let interpreted =
        err_of
          (fun q ->
            match Xq_parse.parse q with
            | Error _ as e -> e
            | Ok expr -> Xq.interpret session expr)
          q
      in
      check_string q interpreted compiled)
    [ "$nope"; "count(1, 2)"; "for $x in (1, 2) return $x/title" ]

(* ------------------------------------------------------------------ *)
(* the per-session query cache: language and strategy in the key       *)
(* ------------------------------------------------------------------ *)

let test_cache_keys () =
  (* the same source string filed under each language must be two
     distinct entries — //book parses as both XPath and XQuery *)
  let svc = Xqc.service (session ()) in
  let prep lang =
    match Xqc.prepare svc ~lang "//book" with
    | Ok p -> p
    | Error e -> Alcotest.failf "prepare: %s" (Scj_error.Error.to_string e)
  in
  (match prep `Xpath with
  | Xqc.Xpath_query _ -> ()
  | Xqc.Xquery_prog _ -> Alcotest.fail "xpath prepare answered an xquery program");
  check_int "one entry" 1 (Xqc.cached_queries svc);
  (match prep `Xquery with
  | Xqc.Xquery_prog _ -> ()
  | Xqc.Xpath_query _ -> Alcotest.fail "xquery prepare answered an xpath query");
  check_int "same source, second language, second entry" 2 (Xqc.cached_queries svc);
  ignore (prep `Xpath);
  ignore (prep `Xquery);
  check_int "re-preparing hits the cache" 2 (Xqc.cached_queries svc);
  (* both results execute to the same nodes *)
  let run p = Nodeseq.to_list (Xqc.run_prepared svc p) in
  Alcotest.(check (list int)) "identical results" (run (prep `Xpath)) (run (prep `Xquery));
  (* the key besides the source embeds language and strategy *)
  let k l s = Xqc.cache_key ~lang:l ~strategy:s "//book" in
  check_bool "languages get distinct keys" false (String.equal (k `Xpath "auto") (k `Xquery "auto"));
  check_bool "strategies get distinct keys" false
    (String.equal (k `Xquery "auto") (k `Xquery "staircase"))

(* an adversarial stream of distinct query strings must not grow the
   cache (and the worker's memory) without bound *)
let test_cache_bound () =
  let svc = Xqc.service (session ()) in
  for i = 1 to (2 * Xqc.max_cached_queries) + 10 do
    match Xqc.prepare svc ~lang:`Xquery (Printf.sprintf "%d + %d" i i) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "prepare %d: %s" i (Scj_error.Error.to_string e)
  done;
  check_bool "cache stays bounded" true
    (Xqc.cached_queries svc <= Xqc.max_cached_queries);
  check_bool "cache re-fills after clearing" true (Xqc.cached_queries svc > 0);
  (* a cleared entry is re-prepared, not lost *)
  match Xqc.prepare svc ~lang:`Xquery "1 + 1" with
  | Ok p ->
    check_int "re-prepared query still runs" 0
      (Nodeseq.length (Xqc.run_prepared svc p))
  | Error e -> Alcotest.failf "re-prepare: %s" (Scj_error.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* golden plans: EXPLAIN and --json for a compiled value join           *)
(* ------------------------------------------------------------------ *)

let xmark_session =
  lazy (Eval.session (Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.003 ()))))

let xmark_join_query =
  "for $p in //person for $a in //closed_auction where $a/buyer/@person = $p/@id return $p/name"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: expected to find %S in:\n%s" what needle hay

let test_plan_golden_text () =
  let compiled =
    match Xqc.compile_string (Lazy.force xmark_session) xmark_join_query with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" e
  in
  check_bool "value join isolated" true (Xqc.has_value_join compiled);
  let plan = Xqc.explain compiled in
  List.iter
    (check_contains "explain" plan)
    [
      "xquery: for $p in";
      "strategy: auto(pushdown=cost)";
      "flwor:";
      "for: $p in /descendant-or-self::node()/child::person";
      "value join: $p/attribute::id = $a/child::buyer/attribute::person";
      "backend: value merge join (mpmgjn over atomized keys)";
      "rejected: nested-loop filter cost=";
      "build: for $a in /descendant-or-self::node()/child::closed_auction  [evaluated once]";
      "backend: staircase join";
      "est: outer=";
      "return: $p/child::name";
    ]

let test_plan_golden_json () =
  let compiled =
    match Xqc.compile_string (Lazy.force xmark_session) xmark_join_query with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let json = Xqc.plan_json compiled in
  List.iter
    (check_contains "plan_json" json)
    [
      {|"query":|};
      {|"strategy":"auto(pushdown=cost)"|};
      {|"op":"flwor"|};
      {|"op":"value-join"|};
      {|"backend":"value merge join (mpmgjn over atomized keys)"|};
      {|"cmp":"="|};
      {|"rejected":[{"backend":"nested-loop filter","cost":|};
      {|"backend":"staircase|};
    ];
  check_bool "object shaped" true
    (String.length json > 2 && json.[0] = '{' && json.[String.length json - 1] = '}')

(* an isolated join changes the work, never the answer: compiled (merge
   join) vs interpreter (nested re-evaluation) on the XMark value join *)
let test_join_parity () =
  let session = Lazy.force xmark_session in
  let expr = parse_ok xmark_join_query in
  let compiled =
    match Xqc.eval session expr with
    | Ok v -> v
    | Error e -> Alcotest.failf "compiled: %s" e
  in
  let interpreted =
    match Xq.interpret session expr with
    | Ok v -> v
    | Error e -> Alcotest.failf "interpreter: %s" e
  in
  check_bool "join produced sales" true (List.length compiled > 0);
  check_string "results identical"
    (Xq.serialize session interpreted)
    (Xq.serialize session compiled)

(* the Eq merge join must keep compare_atoms' general-comparison
   semantics: a pair of atoms compares numerically when either side is
   a Num or Bool, as strings only when both are Str.  Regression: the
   merge used to compare every key as a string, so a numeric outer key
   (an at-variable here) silently dropped "1.0"/"03"-style attribute
   spellings that the interpreter matched. *)
let join_doc xml =
  match Doc.of_string xml with Ok d -> d | Error e -> failwith e

let check_join_agreement session q ~expect_rows =
  let expr = parse_ok q in
  check_bool "join isolated (the merge path is exercised)" true
    (Xqc.has_value_join (Xqc.compile session expr));
  let compiled =
    match Xqc.eval session expr with
    | Ok v -> v
    | Error e -> Alcotest.failf "compiled %S: %s" q e
  in
  let interpreted =
    match Xq.interpret session expr with
    | Ok v -> v
    | Error e -> Alcotest.failf "interpreter %S: %s" q e
  in
  check_string (q ^ " (compiled = interpreter)")
    (Xq.serialize session interpreted)
    (Xq.serialize session compiled);
  check_int (q ^ " (row count)") expect_rows (List.length compiled)

let test_join_numeric_keys () =
  let doc =
    join_doc
      ("<doc>"
      ^ String.concat "" (List.init 12 (fun _ -> "<a/>"))
      ^ String.concat "" (List.init 4 (fun _ -> "<b k='1.0'/><b k='03'/><b k='2'/>"))
      ^ "</doc>")
  in
  (* $i = 1 matches k='1.0', 2 matches k='2', 3 matches k='03' — four
     copies of each spelling, so 12 pairs, same as the interpreter *)
  check_join_agreement (Eval.session doc)
    "for $x at $i in //a for $b in //b where $i = $b/attribute::k return $b"
    ~expect_rows:12

let test_join_string_keys_stay_strings () =
  let doc =
    join_doc
      ("<doc>"
      ^ String.concat "" (List.init 12 (fun _ -> "<a n='1'/>"))
      ^ String.concat "" (List.init 4 (fun _ -> "<b k='1.0'/><b k='1'/><b k='01'/>"))
      ^ "</doc>")
  in
  (* both keys are untyped node values (Str–Str): '1' pairs only with
     the four k='1' spellings, never numerically with '1.0' or '01' *)
  check_join_agreement (Eval.session doc)
    "for $x in //a for $b in //b where $x/attribute::n = $b/attribute::k return $b"
    ~expect_rows:48

(* a join the cost model must refuse (3x3 books): the conjunct stays in
   where and the plan carries the costed rejection note *)
let test_plan_rejected_join () =
  let compiled =
    match
      Xqc.compile_string (session ())
        "for $a in //book for $b in //book where $a/year = $b/year return $a/@id"
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" e
  in
  check_bool "no join isolated" false (Xqc.has_value_join compiled);
  let plan = Xqc.explain compiled in
  check_contains "explain" plan "note: value join rejected for $b";
  check_contains "explain" plan "where: $a/child::year = $b/child::year"

(* A cross product whose return clause runs no path reaches no join's
   checkpoint: the FLWOR row loops must poll the cancellation hook
   themselves, once per 4,096 rows. *)
let test_flwor_row_loops_poll () =
  let doc = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.01 ())) in
  let calls = ref 0 in
  let exec = Exec.make ~check:(fun () -> incr calls) () in
  match
    Xqc.run ~exec (Eval.session doc) "let $xs := //person for $a in $xs for $b in $xs return 1"
  with
  | Error e -> Alcotest.failf "cross product failed: %s" e
  | Ok v ->
    let rows = List.length v in
    let persons = Nodeseq.length (Eval.run_exn (Eval.session doc) "//person") in
    check_int "one row per pair" (persons * persons) rows;
    check_bool
      (Printf.sprintf "%d hook calls for %d rows" !calls rows)
      true
      (!calls >= rows / 4096)

let () =
  Alcotest.run "scj_xquery"
    [
      ( "parser",
        [
          Alcotest.test_case "expression shapes" `Quick test_parse_shapes;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "atoms and arithmetic" `Quick test_atoms_and_arithmetic;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "flwor" `Quick test_flwor;
          Alcotest.test_case "order by and at" `Quick test_order_by_and_at;
          Alcotest.test_case "distinct-values" `Quick test_distinct_values;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "conditionals" `Quick test_conditionals;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "text merging" `Quick test_constructor_text_merging;
          Alcotest.test_case "constructor attributes" `Quick test_constructor_attributes;
          Alcotest.test_case "serialization" `Quick test_serialize;
          Alcotest.test_case "evaluation errors" `Quick test_eval_errors;
        ] );
      ( "xmark",
        [
          Alcotest.test_case "pathfinder scenario" `Quick test_xmark_flwor;
          Alcotest.test_case "row loops poll the deadline" `Quick test_flwor_row_loops_poll;
        ] );
      ( "formatting",
        [ Alcotest.test_case "shortest round-trip floats" `Quick test_float_format ] );
      ( "compiler",
        [
          Alcotest.test_case "join-free counter parity" `Quick test_compiled_parity;
          Alcotest.test_case "error message parity" `Quick test_compiled_errors;
          Alcotest.test_case "value join parity" `Quick test_join_parity;
          Alcotest.test_case "numeric join keys" `Quick test_join_numeric_keys;
          Alcotest.test_case "string join keys stay strings" `Quick
            test_join_string_keys_stay_strings;
        ] );
      ( "cache",
        [
          Alcotest.test_case "language and strategy in the key" `Quick test_cache_keys;
          Alcotest.test_case "bounded size" `Quick test_cache_bound;
        ] );
      ( "plans",
        [
          Alcotest.test_case "golden value-join explain" `Quick test_plan_golden_text;
          Alcotest.test_case "golden value-join json" `Quick test_plan_golden_json;
          Alcotest.test_case "rejected join leaves a note" `Quick test_plan_rejected_join;
        ] );
      ("properties", qsuite);
    ]
