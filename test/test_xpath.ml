(* Tests for the XPath layer (lib/xpath): parser, evaluator, strategy
   equivalence, predicates, and name-test pushdown. *)

module Doc = Scj_encoding.Doc
module Exec = Scj_trace.Exec
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Stats = Scj_stats.Stats
module Sj = Scj_core.Staircase
module Ast = Scj_xpath.Ast
module Parse = Scj_xpath.Parse
module Eval = Scj_xpath.Eval
module Plan = Scj_plan.Plan

let nodeseq = Alcotest.testable Nodeseq.pp Nodeseq.equal

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let parse_ok s =
  match Parse.path s with Ok p -> p | Error e -> Alcotest.failf "parse %S: %s" s e

let path_str s = Ast.path_to_string (parse_ok s)

(* strategies under test *)
let strategies =
  [
    { Eval.backend = `Force (Plan.Serial Sj.No_skipping); pushdown = `Never };
    { Eval.backend = `Force (Plan.Serial Sj.Skipping); pushdown = `Never };
    { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never };
    { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Always };
    { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Cost_based };
    { Eval.backend = `Force (Plan.Serial Sj.Exact_size); pushdown = `Cost_based };
    { Eval.backend = `Auto; pushdown = `Cost_based };
    { Eval.backend = `Force (Plan.Morsel Sj.Estimation); pushdown = `Never };
    { Eval.backend = `Force Plan.Naive; pushdown = `Never };
    { Eval.backend = `Force (Plan.Btree { delimiter = true }); pushdown = `Never };
    { Eval.backend = `Force (Plan.Btree { delimiter = false }); pushdown = `Never };
    { Eval.backend = `Force Plan.Mpmgjn; pushdown = `Never };
    { Eval.backend = `Force Plan.Structjoin; pushdown = `Never };
  ]

(* ------------------------------------------------------------------ *)
(* parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_abbreviations () =
  Alcotest.(check string) "bare name" "child::item" (path_str "item");
  Alcotest.(check string) "attribute" "attribute::id" (path_str "@id");
  Alcotest.(check string) "dot" "self::node()" (path_str ".");
  Alcotest.(check string) "dotdot" "parent::node()" (path_str "..");
  Alcotest.(check string) "double slash"
    "/descendant-or-self::node()/child::item" (path_str "//item");
  Alcotest.(check string) "inner double slash"
    "child::a/descendant-or-self::node()/child::b" (path_str "a//b")

let test_parse_axes () =
  Alcotest.(check string) "full axis" "/descendant::profile/descendant::education"
    (path_str "/descendant::profile/descendant::education");
  Alcotest.(check string) "or-self" "ancestor-or-self::*" (path_str "ancestor-or-self::*");
  List.iter
    (fun axis ->
      let s = Axis.to_string axis ^ "::node()" in
      Alcotest.(check string) s s (path_str s))
    Axis.all

let test_parse_node_tests () =
  Alcotest.(check string) "text()" "child::text()" (path_str "text()");
  Alcotest.(check string) "comment()" "child::comment()" (path_str "comment()");
  Alcotest.(check string) "pi any" "child::processing-instruction()" (path_str "processing-instruction()");
  Alcotest.(check string) "pi target" "child::processing-instruction('php')"
    (path_str "processing-instruction('php')");
  Alcotest.(check string) "qname" "child::ns:t" (path_str "ns:t")

let test_parse_predicates () =
  Alcotest.(check string) "existence" "child::a[child::b]" (path_str "a[b]");
  Alcotest.(check string) "number" "child::a[2]" (path_str "a[2]");
  Alcotest.(check string) "comparison" "child::a[child::b = 'x']" (path_str "a[b='x']");
  Alcotest.(check string) "and/or"
    "child::a[((child::b and child::c) or position() = 1)]"
    (path_str "a[b and c or position()=1]");
  Alcotest.(check string) "count/not" "child::a[not(count(child::b) > 2)]"
    (path_str "a[not(count(b) > 2)]");
  Alcotest.(check string) "stacked" "child::a[child::b][2]" (path_str "a[b][2]");
  Alcotest.(check string) "paper Q2 rewrite"
    "/descendant::bidder[descendant::increase]"
    (path_str "/descendant::bidder[descendant::increase]")

let test_parse_union () =
  match Parse.query "a | b" with
  | Ok [ _; _ ] -> ()
  | Ok _ -> Alcotest.fail "expected two paths"
  | Error e -> Alcotest.failf "union: %s" e

let test_parse_root () =
  Alcotest.(check string) "root only" "/" (path_str "/")

let test_parse_errors () =
  let bad s =
    match Parse.path s with
    | Ok _ -> Alcotest.failf "expected syntax error for %S" s
    | Error _ -> ()
  in
  List.iter bad [ ""; "/["; "a["; "a]"; "a[]"; "foo::x"; "a b"; "a[position!]"; "a['unterminated" ]

(* ------------------------------------------------------------------ *)
(* evaluation on the paper document                                    *)
(* ------------------------------------------------------------------ *)

let paper_doc () = Lazy.force Test_support.paper_doc

let pre name = Test_support.pre_of_name (paper_doc ()) name

let seq names = Nodeseq.of_unsorted (List.map pre names)

let eval ?strategy ?context query =
  let session = Eval.session ?strategy (paper_doc ()) in
  Eval.run_exn ?context session query

let test_eval_basic_paths () =
  Alcotest.check nodeseq "/" (seq [ "a" ]) (eval "/");
  (* from the (virtual) document node, descendant includes the root *)
  Alcotest.check nodeseq "/descendant::node()"
    (seq [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j" ])
    (eval "/descendant::node()");
  Alcotest.check nodeseq "//f" (seq [ "f" ]) (eval "//f");
  Alcotest.check nodeseq "/a = root element" (seq [ "a" ]) (eval "/a");
  Alcotest.check nodeseq "/b: root has another name" Nodeseq.empty (eval "/b");
  Alcotest.check nodeseq "child chain" (seq [ "g"; "h" ]) (eval "/a/e/f/*");
  Alcotest.check nodeseq "self" (seq [ "a" ]) (eval "/self::a");
  Alcotest.check nodeseq "wrong name" Nodeseq.empty (eval "/self::b")

let test_eval_following_preceding () =
  let ctx = seq [ "f" ] in
  Alcotest.check nodeseq "following" (seq [ "i"; "j" ]) (eval ~context:ctx "following::node()");
  Alcotest.check nodeseq "preceding" (seq [ "b"; "c"; "d" ]) (eval ~context:ctx "preceding::node()");
  Alcotest.check nodeseq "parent of f" (seq [ "e" ]) (eval ~context:ctx "..");
  Alcotest.check nodeseq "siblings" (seq [ "i" ]) (eval ~context:ctx "following-sibling::node()")

let test_eval_positional () =
  let root_ctx = seq [ "a" ] in
  Alcotest.check nodeseq "second child of a" (seq [ "d" ])
    (eval ~context:root_ctx "child::node()[2]");
  Alcotest.check nodeseq "last()" (seq [ "e" ]) (eval ~context:root_ctx "child::node()[last()]");
  (* ancestor positions count upward from the context node *)
  let ctx = seq [ "g" ] in
  Alcotest.check nodeseq "nearest ancestor" (seq [ "f" ])
    (eval ~context:ctx "ancestor::node()[1]");
  Alcotest.check nodeseq "root is last ancestor" (seq [ "a" ])
    (eval ~context:ctx "ancestor::node()[last()]");
  (* per-context positions: first child of EACH context node *)
  let ctx = seq [ "b"; "e"; "i" ] in
  Alcotest.check nodeseq "first child of each" (seq [ "c"; "f"; "j" ])
    (eval ~context:ctx "child::node()[1]")

let pred_of s =
  match parse_ok ("x[" ^ s ^ "]") with
  | { Ast.steps = [ { Ast.predicates = [ e ]; _ } ]; _ } -> e
  | _ -> Alcotest.failf "unexpected shape for %s" s

let test_positional_classification () =
  let positional s b = check_bool s b (Ast.positional (pred_of s)) in
  positional "2" true;
  positional "position() = 2" true;
  positional "not(position() > 1)" true;
  positional "last()" true;
  positional "count(b)" true (* number-valued: compared against position *);
  positional "string-length(a)" true;
  positional "price >= 40" false (* the literal is inside a comparison *);
  positional "b = 'x'" false;
  positional "contains(a, 'b')" false;
  positional "b" false

(* a number-valued predicate selects by position (XPath 1.0 §2.4) *)
let test_number_valued_predicate () =
  (* children of a: b (1 child), d (0), e (2); count(child) = position
     only holds for b (position 1, one child) *)
  Alcotest.check nodeseq "count as position" (seq [ "b" ])
    (eval ~context:(seq [ "a" ]) "child::node()[count(child::node())]")

let test_eval_predicates () =
  Alcotest.check nodeseq "existence filter" (seq [ "a"; "b"; "e"; "f"; "i" ])
    (eval "/descendant::node()[child::node()]");
  Alcotest.check nodeseq "negation keeps leaves" (seq [ "c"; "d"; "g"; "h"; "j" ])
    (eval "/descendant::node()[not(child::node())]");
  Alcotest.check nodeseq "count" (seq [ "e"; "f" ])
    (eval "/descendant::node()[count(child::node()) = 2]");
  Alcotest.check nodeseq "nested predicate path" (seq [ "e" ])
    (eval "/descendant::node()[child::f[child::g]]")

(* ------------------------------------------------------------------ *)
(* attribute, text, and value semantics                                *)
(* ------------------------------------------------------------------ *)

let bookstore () =
  match
    Doc.of_string
      "<bookstore>\
         <book id='b1' lang='en'><title>Data on the Web</title><author>Abiteboul</author><price>39.95</price></book>\
         <book id='b2' lang='de'><title>XQuery</title><author>Grust</author><price>49.00</price></book>\
         <book id='b3' lang='en'><title>XML Databases</title><author>Grust</author><price>25.50</price><!-- draft --></book>\
         <?catalog version='2'?>\
       </bookstore>"
  with
  | Ok d -> d
  | Error e -> Alcotest.failf "bookstore fixture: %s" e

let beval ?strategy query =
  let session = Eval.session ?strategy (bookstore ()) in
  Eval.run_exn session query

let test_eval_attributes () =
  check_int "three ids" 3 (Nodeseq.length (beval "//book/@id"));
  check_int "all attributes" 6 (Nodeseq.length (beval "//book/attribute::*"));
  check_int "lang=en via value" 2 (Nodeseq.length (beval "//book[@lang = 'en']"));
  check_int "attribute name test" 3 (Nodeseq.length (beval "//@lang"));
  check_int "no such attribute" 0 (Nodeseq.length (beval "//book/@nosuch"))

let test_eval_values () =
  check_int "author equality" 2 (Nodeseq.length (beval "//book[author = 'Grust']"));
  check_int "numeric comparison" 2 (Nodeseq.length (beval "//book[price > 30]"));
  check_int "combined" 1 (Nodeseq.length (beval "//book[price > 30 and @lang = 'en']"));
  check_int "title of cheap book" 1
    (Nodeseq.length (beval "//book[price < 30]/title"));
  (* id('b2')-style via predicate *)
  check_int "id lookup" 1 (Nodeseq.length (beval "//book[@id = 'b2']"))

let test_eval_kind_tests () =
  check_int "text nodes" 9 (Nodeseq.length (beval "//book/*/text()"));
  check_int "comment" 1 (Nodeseq.length (beval "//comment()"));
  check_int "pi" 1 (Nodeseq.length (beval "/bookstore/processing-instruction()"));
  check_int "pi by target" 1
    (Nodeseq.length (beval "/bookstore/processing-instruction('catalog')"));
  check_int "pi wrong target" 0
    (Nodeseq.length (beval "/bookstore/processing-instruction('other')"))

let test_eval_union () =
  let session = Eval.session (bookstore ()) in
  let r = Eval.run_exn session "//title | //author" in
  check_int "titles + authors" 6 (Nodeseq.length r)

(* ------------------------------------------------------------------ *)
(* XPath 1.0 core function library                                     *)
(* ------------------------------------------------------------------ *)

let test_fn_string_ops () =
  check_int "contains" 2 (Nodeseq.length (beval "//book[contains(title, 'Web') or contains(title, 'Query')]"));
  check_int "starts-with" 1 (Nodeseq.length (beval "//book[starts-with(title, 'Data')]"));
  check_int "starts-with id prefix" 3 (Nodeseq.length (beval "//book[starts-with(@id, 'b')]"));
  check_int "string-length" 1 (Nodeseq.length (beval "//book[string-length(title) = 6]"));
  (* 'XQuery' *)
  check_int "substring" 2 (Nodeseq.length (beval "//book[substring(@id, 2) = '2' or substring(@id, 2, 1) = '3']"));
  check_int "concat" 1 (Nodeseq.length (beval "//book[concat(@lang, '-', @id) = 'de-b2']"));
  check_int "normalize-space" 3
    (Nodeseq.length (beval "//book[normalize-space('  a  b ') = 'a b']"));
  check_int "substring-before" 3
    (Nodeseq.length (beval "//book[substring-before(@id, '1') = 'b' or substring-before(@id, '2') = 'b' or substring-before(@id, '3') = 'b']"));
  check_int "substring-after" 1
    (Nodeseq.length (beval "//book[substring-after(@id, 'b') = '2']"));
  check_int "substring-after no match is empty" 3
    (Nodeseq.length (beval "//book[substring-after(@id, 'z') = '']"));
  check_int "translate maps" 1
    (Nodeseq.length (beval "//book[translate(@id, 'b', 'c') = 'c2']"));
  check_int "translate deletes" 1
    (Nodeseq.length (beval "//book[translate(@id, 'b', '') = '3']"))

let test_fn_name () =
  check_int "name()" 6 (Nodeseq.length (beval "//book/*[name() = 'title' or name() = 'price']"));
  (* name(path) names the first node of the argument *)
  check_int "name(path)" 3 (Nodeseq.length (beval "//book[name(..) = 'bookstore']"));
  check_int "local-name" 1 (Nodeseq.length (beval "//*[local-name() = 'bookstore']"))

let test_fn_numeric () =
  check_int "floor" 1 (Nodeseq.length (beval "//book[floor(price) = 39]"));
  check_int "ceiling" 1 (Nodeseq.length (beval "//book[ceiling(price) = 40]"));
  check_int "round" 1 (Nodeseq.length (beval "//book[round(price) = 40]"));
  check_int "sum over all books" 1
    (Nodeseq.length (beval "/bookstore[sum(book/price) > 100]"));
  check_int "number()" 2 (Nodeseq.length (beval "//price[number() > 30]"))

let test_fn_boolean_conversions () =
  check_int "boolean of nodeset" 1 (Nodeseq.length (beval "/bookstore[boolean(book)]"));
  check_int "true/false" 3 (Nodeseq.length (beval "//book[true()]"));
  check_int "false filters all" 0 (Nodeseq.length (beval "//book[false()]"));
  check_int "string comparison via string()" 1
    (Nodeseq.length (beval "//book[string(@lang) = 'de']"))

let test_fn_parse_errors () =
  let bad s =
    match Parse.path s with
    | Ok _ -> Alcotest.failf "expected error for %S" s
    | Error _ -> ()
  in
  bad "a[contains('x')]";
  bad "a[substring('x')]";
  bad "a[true(1)]";
  bad "a[concat('x')]";
  bad "a[frobnicate()]";
  bad "a[floor(1, 2)]"

(* ------------------------------------------------------------------ *)
(* strategy equivalence                                                *)
(* ------------------------------------------------------------------ *)

let xmark_doc = lazy (Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.002 ())))

let q1 = "/descendant::profile/descendant::education"

let q2 = "/descendant::increase/ancestor::bidder"

let test_strategies_agree_on_xmark () =
  let d = Lazy.force xmark_doc in
  List.iter
    (fun query ->
      let reference =
        Eval.run_exn (Eval.session ~strategy:(List.hd strategies) d) query
      in
      check_bool (query ^ " yields results") true (Nodeseq.length reference > 0);
      List.iter
        (fun strategy ->
          let r = Eval.run_exn (Eval.session ~strategy d) query in
          Alcotest.check nodeseq
            (Printf.sprintf "%s via %s" query (Eval.strategy_to_string strategy))
            reference r)
        (List.tl strategies))
    [ q1; q2; "/descendant::bidder[descendant::increase]" ]

let test_q2_rewrite_equivalence () =
  (* the §4.4 manual rewrite: Q2 = /descendant::bidder[descendant::increase] *)
  let d = Lazy.force xmark_doc in
  let session = Eval.session d in
  Alcotest.check nodeseq "symmetric rewrite"
    (Eval.run_exn session q2)
    (Eval.run_exn session "/descendant::bidder[descendant::increase]")

let test_pushdown_reduces_touches () =
  let d = Lazy.force xmark_doc in
  let run pushdown =
    let stats = Stats.create () in
    let strategy = { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown } in
    let r = Eval.run_exn ~exec:(Exec.make ~stats ()) (Eval.session ~strategy d) q1 in
    (r, Stats.touched stats)
  in
  let r_never, t_never = run `Never in
  let r_always, t_always = run `Always in
  let r_cost, t_cost = run `Cost_based in
  Alcotest.check nodeseq "same result (always)" r_never r_always;
  Alcotest.check nodeseq "same result (cost)" r_never r_cost;
  check_bool (Printf.sprintf "pushdown touches fewer nodes (%d < %d)" t_always t_never) true
    (t_always < t_never);
  check_bool "cost-based no worse than never" true (t_cost <= t_never)

let string_contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_explain () =
  let d = Lazy.force xmark_doc in
  let session = Eval.session d in
  let report =
    Eval.explain session (parse_ok "/descendant::increase/ancestor::bidder")
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "report mentions %S" fragment)
        true
        (string_contains ~needle:fragment report))
    [
      "staircase join"; "pushdown"; "tag fragment 'increase'"; "est: in=";
      "rejected:"; "SELECT DISTINCT v2.pre"; "v2.tag = 'bidder'";
    ];
  (* predicates and non-partitioning axes are reported too: the chosen
     predicate form with its fragment sizes and the rejected cost *)
  let report2 = Eval.explain session (parse_ok "//open_auction[bidder]/seller") in
  List.iter
    (fun fragment ->
      Alcotest.(check bool)
        (Printf.sprintf "predicate report mentions %S" fragment)
        true
        (string_contains ~needle:fragment report2))
    [ "predicates: 1 (semijoin)"; "fragments child::bidder="; "vs. per-node cost=" ];
  Alcotest.(check bool) "structural note" true
    (string_contains ~needle:"structural size/parent arithmetic" report2)

let test_cost_model_decisions () =
  let d = Lazy.force xmark_doc in
  let session = Eval.session d in
  (* selective tag below the root: pushdown pays off, and the plan says so *)
  (match Eval.path_plan session (parse_ok q1) with
  | Plan.P_step (_, { Plan.impl = Plan.Join { push = Plan.Push_tag "education"; _ }; _ }) -> ()
  | p -> Alcotest.failf "expected a pushed name test, got:\n%s" (Plan.physical_to_string p));
  (* estimated touches of a root descendant step = whole document *)
  (match Eval.path_plan session (parse_ok "/descendant::node()") with
  | Plan.P_step (_, { Plan.est; _ }) -> check_int "root estimate" (Doc.size d 0) est.Plan.touches
  | p -> Alcotest.failf "unexpected plan shape:\n%s" (Plan.physical_to_string p))

(* ------------------------------------------------------------------ *)
(* property: strategies agree on random documents and simple paths     *)
(* ------------------------------------------------------------------ *)

let random_path_gen =
  let open QCheck.Gen in
  let axis =
    oneofl
      [
        Axis.Descendant; Axis.Ancestor; Axis.Following; Axis.Preceding; Axis.Child;
        Axis.Descendant_or_self; Axis.Ancestor_or_self; Axis.Parent; Axis.Self;
        Axis.Following_sibling; Axis.Preceding_sibling; Axis.Attribute;
      ]
  in
  let test =
    frequency
      [
        (3, return (Ast.Kind_test Ast.Any_node));
        (2, map (fun n -> Ast.Name_test n) (oneofl [ "a"; "b"; "item"; "x"; "k" ]));
        (1, return Ast.Wildcard);
        (1, return (Ast.Kind_test Ast.Text_node));
      ]
  in
  let predicate =
    frequency
      [
        ( 2,
          map
            (fun n ->
              Ast.Path_expr { Ast.absolute = false; steps = [ Ast.step Axis.Child (Ast.Name_test n) ] })
            (oneofl [ "a"; "b"; "x" ]) );
        (1, map (fun i -> Ast.Number (float_of_int i)) (int_range 1 3));
        (1, return (Ast.Not (Ast.Path_expr { Ast.absolute = false; steps = [ Ast.step Axis.Child (Ast.Kind_test Ast.Any_node) ] })));
        (1, map (fun i -> Ast.Compare (Ast.Le, Ast.Position, Ast.Number (float_of_int i))) (int_range 1 3));
      ]
  in
  let step =
    map3
      (fun a t preds -> Ast.step ~predicates:preds a t)
      axis test
      (frequency [ (3, return []); (2, map (fun p -> [ p ]) predicate) ])
  in
  map2
    (fun steps absolute -> { Ast.absolute; steps })
    (list_size (int_range 1 3) step)
    bool

let prop_strategies_agree =
  QCheck.Test.make ~count:200 ~name:"all strategies produce identical results"
    (QCheck.make
       ~print:(fun (doc, p) -> Test_support.doc_print doc ^ "\n" ^ Ast.path_to_string p)
       (QCheck.Gen.pair (Test_support.doc_gen ~max_nodes:40 ()) random_path_gen))
    (fun (d, p) ->
      let reference = Eval.eval_path (Eval.session ~strategy:(List.hd strategies) d) p in
      List.for_all
        (fun strategy ->
          let r = Eval.eval_path (Eval.session ~strategy d) p in
          if Nodeseq.equal r reference then true
          else
            QCheck.Test.fail_reportf "%s: %a <> %a" (Eval.strategy_to_string strategy) Nodeseq.pp
              r Nodeseq.pp reference)
        (List.tl strategies))

(* first-step-is-spec property: single steps equal the region spec *)
let prop_step_equals_spec =
  QCheck.Test.make ~count:200 ~name:"evaluator single step = axis specification"
    (QCheck.make
       ~print:(fun ((doc, ctx), a) ->
         Printf.sprintf "%s\ncontext=%s axis=%s" (Test_support.doc_print doc)
           (Format.asprintf "%a" Nodeseq.pp ctx)
           (Axis.to_string a))
       (QCheck.Gen.pair
          (Test_support.doc_with_context_gen ())
          (QCheck.Gen.oneofl
             [ Axis.Descendant; Axis.Ancestor; Axis.Following; Axis.Preceding; Axis.Child;
               Axis.Parent; Axis.Attribute; Axis.Self; Axis.Following_sibling;
               Axis.Preceding_sibling; Axis.Descendant_or_self; Axis.Ancestor_or_self ])))
    (fun ((d, ctx), axis) ->
      let session = Eval.session d in
      let actual = Eval.step session ctx (Ast.step axis (Ast.Kind_test Ast.Any_node)) in
      let expected = Test_support.spec_step d axis ctx in
      if Nodeseq.equal actual expected then true
      else
        QCheck.Test.fail_reportf "axis %s: got %a, want %a" (Axis.to_string axis) Nodeseq.pp
          actual Nodeseq.pp expected)

(* printing a parsed path and re-parsing it must be the identity *)
let prop_pp_parse_roundtrip =
  let query_strings =
    [
      "/descendant::profile/descendant::education";
      "//book[@lang = 'en']/title";
      "a//b[c][2]/following-sibling::*[last()]";
      "//item[contains(name, 'gold') and price > 10]";
      "section/book[substring(@id, 2, 1) = '2']";
      "//*[name() = 'x' or local-name(a/b) = 'y']";
      "//a[not(count(b) >= 2)][position() < last()]";
      "//p[normalize-space() = 'x']/ancestor-or-self::node()";
      "//q[sum(x) = floor(3.7)]";
      "//r[string-length(concat('a', 'b', name())) = 3]";
    ]
  in
  QCheck.Test.make ~count:(List.length query_strings) ~name:"pp then parse is identity"
    (QCheck.make (QCheck.Gen.oneofl query_strings))
    (fun input ->
      match Parse.path input with
      | Error e -> QCheck.Test.fail_reportf "cannot parse %S: %s" input e
      | Ok p1 -> (
        let printed = Ast.path_to_string p1 in
        match Parse.path printed with
        | Error e -> QCheck.Test.fail_reportf "cannot re-parse %S: %s" printed e
        | Ok p2 ->
          if Ast.path_to_string p2 = printed then true
          else QCheck.Test.fail_reportf "not a fixpoint: %S vs %S" printed (Ast.path_to_string p2)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_strategies_agree; prop_step_equals_spec; prop_pp_parse_roundtrip ]

let () =
  Alcotest.run "scj_xpath"
    [
      ( "parser",
        [
          Alcotest.test_case "abbreviations" `Quick test_parse_abbreviations;
          Alcotest.test_case "axes" `Quick test_parse_axes;
          Alcotest.test_case "node tests" `Quick test_parse_node_tests;
          Alcotest.test_case "predicates" `Quick test_parse_predicates;
          Alcotest.test_case "union" `Quick test_parse_union;
          Alcotest.test_case "root" `Quick test_parse_root;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "paper document",
        [
          Alcotest.test_case "basic paths" `Quick test_eval_basic_paths;
          Alcotest.test_case "following/preceding/siblings" `Quick test_eval_following_preceding;
          Alcotest.test_case "positional predicates" `Quick test_eval_positional;
          Alcotest.test_case "positional classification" `Quick test_positional_classification;
          Alcotest.test_case "number-valued predicate" `Quick test_number_valued_predicate;
          Alcotest.test_case "predicates" `Quick test_eval_predicates;
        ] );
      ( "bookstore",
        [
          Alcotest.test_case "attributes" `Quick test_eval_attributes;
          Alcotest.test_case "value comparisons" `Quick test_eval_values;
          Alcotest.test_case "kind tests" `Quick test_eval_kind_tests;
          Alcotest.test_case "union" `Quick test_eval_union;
        ] );
      ( "functions",
        [
          Alcotest.test_case "string functions" `Quick test_fn_string_ops;
          Alcotest.test_case "name()/local-name()" `Quick test_fn_name;
          Alcotest.test_case "numeric functions" `Quick test_fn_numeric;
          Alcotest.test_case "boolean conversions" `Quick test_fn_boolean_conversions;
          Alcotest.test_case "arity errors" `Quick test_fn_parse_errors;
        ] );
      ( "strategies",
        [
          Alcotest.test_case "agree on xmark Q1/Q2" `Quick test_strategies_agree_on_xmark;
          Alcotest.test_case "Q2 symmetric rewrite" `Quick test_q2_rewrite_equivalence;
          Alcotest.test_case "pushdown reduces touches" `Quick test_pushdown_reduces_touches;
          Alcotest.test_case "cost model" `Quick test_cost_model_decisions;
          Alcotest.test_case "explain report" `Quick test_explain;
        ] );
      ("properties", qsuite);
    ]
