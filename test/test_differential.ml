(* Differential fuzzing across every axis implementation in the tree.

   A (shape, seed) pair deterministically generates a document and a
   context (Test_support.Fuzz); every axis step is then evaluated by all
   the implementations that claim to agree and held against the
   O(n·|ctx|) specification oracle:

   - results: blit Staircase = Staircase.Reference = Parallel = Morsel =
     Paged_doc = Sql_plan index plan = spec_step, for every skip mode,
     and the following/preceding view kernels = spec_step restricted to
     the view;
   - counters: the blit joins, the per-node Reference, the
     partition-parallel join and the morsel-driven join must produce
     identical work-counter totals per mode (the morsel run at a tiny
     morsel size, so chunk boundaries actually cut through partitions),
     and Paged_doc must match the in-memory Estimation run.

   Failures print the (shape, seed) pair — rerun with exactly those to
   reproduce. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Sj = Scj_core.Staircase
module Parallel = Scj_frag.Parallel
module Morsel = Scj_frag.Morsel
module Sql_plan = Scj_engine.Sql_plan
module Paged_doc = Scj_pager.Paged_doc
module Fuzz = Test_support.Fuzz

let seeds = Fuzz.seeds 25

let all_modes = [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ]

let fail_at shape seed fmt =
  Printf.ksprintf
    (fun msg ->
      Alcotest.failf "shape=%s seed=%d: %s" (Fuzz.shape_to_string shape) seed msg)
    fmt

let check_result shape seed ~what expected actual =
  if not (Nodeseq.equal expected actual) then
    fail_at shape seed "%s: expected %s, got %s" what
      (Format.asprintf "%a" Nodeseq.pp expected)
      (Format.asprintf "%a" Nodeseq.pp actual)

let check_counters shape seed ~what expected actual =
  if Stats.all_assoc expected <> Stats.all_assoc actual then
    fail_at shape seed "%s: counters diverge: expected %s, got %s" what
      (Stats.to_json expected) (Stats.to_json actual)

let run_counted f =
  let stats = Stats.create () in
  let r = f stats in
  (r, stats)

(* One (shape, seed): every axis, every mode, every implementation. *)
let differential shape seed =
  let doc = Fuzz.doc shape seed in
  let ctx = Fuzz.context doc seed in
  let idx = Sql_plan.build_index doc in
  let oracle axis = Test_support.spec_step doc axis ctx in
  (* descendant / ancestor: blit vs reference vs parallel vs morsel vs
     oracle *)
  List.iter
    (fun (axis, blit, reference, par, morsel) ->
      let expected = oracle axis in
      List.iter
        (fun mode ->
          let r_blit, s_blit =
            run_counted (fun stats -> blit (Exec.make ~mode ~stats ()) doc ctx)
          in
          let r_ref, s_ref =
            run_counted (fun stats -> reference (Exec.make ~mode ~stats ()) doc ctx)
          in
          let r_par, s_par =
            run_counted (fun stats -> par (Exec.make ~mode ~stats ~domains:2 ()) doc ctx)
          in
          let r_mor, s_mor =
            run_counted (fun stats -> morsel (Exec.make ~mode ~stats ~domains:2 ()) doc ctx)
          in
          let m = Sj.skip_mode_to_string mode in
          check_result shape seed ~what:(m ^ " blit vs oracle") expected r_blit;
          check_result shape seed ~what:(m ^ " reference vs oracle") expected r_ref;
          check_result shape seed ~what:(m ^ " parallel vs oracle") expected r_par;
          check_result shape seed ~what:(m ^ " morsel vs oracle") expected r_mor;
          check_counters shape seed ~what:(m ^ " blit vs reference") s_blit s_ref;
          check_counters shape seed ~what:(m ^ " blit vs parallel") s_blit s_par;
          check_counters shape seed ~what:(m ^ " blit vs morsel") s_blit s_mor)
        all_modes)
    [
      ( Axis.Descendant,
        (fun e -> Sj.desc ~exec:e),
        (fun e -> Sj.Reference.desc ~exec:e),
        (fun e -> Parallel.desc ~exec:e),
        (* morsel_size 8: even the small fuzz documents split into many
           morsels, so the chunked copy/scan decomposition is exercised *)
        fun e doc ctx -> Morsel.desc ~morsel_size:8 ~exec:e doc ctx );
      ( Axis.Ancestor,
        (fun e -> Sj.anc ~exec:e),
        (fun e -> Sj.Reference.anc ~exec:e),
        (fun e -> Parallel.anc ~exec:e),
        fun e doc ctx -> Morsel.anc ~morsel_size:8 ~exec:e doc ctx );
    ];
  (* following / preceding: blit vs per-node reference vs oracle *)
  List.iter
    (fun (axis, blit, reference) ->
      let expected = oracle axis in
      List.iter
        (fun mode ->
          let r_blit, s_blit =
            run_counted (fun stats -> blit (Exec.make ~mode ~stats ()) doc ctx)
          in
          let r_ref, s_ref =
            run_counted (fun stats -> reference (Exec.make ~mode ~stats ()) doc ctx)
          in
          let m = Sj.skip_mode_to_string mode in
          check_result shape seed ~what:(m ^ " following/preceding blit") expected r_blit;
          check_result shape seed ~what:(m ^ " following/preceding reference") expected r_ref;
          check_counters shape seed ~what:(m ^ " following/preceding counters") s_blit s_ref)
        all_modes)
    [
      ( Axis.Following,
        (fun e -> Sj.following ~exec:e),
        fun e -> Sj.Reference.following ~exec:e );
      ( Axis.Preceding,
        (fun e -> Sj.preceding ~exec:e),
        fun e -> Sj.Reference.preceding ~exec:e );
    ];
  (* following / preceding over views (tag fragments, an attribute-only
     fragment, the whole document): the oracle restricted to the view *)
  List.iter
    (fun (what, view) ->
      let members = Sj.View.to_nodeseq view in
      List.iter
        (fun (axis, kernel) ->
          let expected = Nodeseq.inter (oracle axis) members in
          List.iter
            (fun mode ->
              check_result shape seed
                ~what:
                  (Printf.sprintf "%s %s view %s" (Sj.skip_mode_to_string mode)
                     (Axis.to_string axis) what)
                expected
                (kernel (Exec.make ~mode ()) doc view ctx))
            all_modes)
        [
          (Axis.Following, fun e -> Sj.following_view ~exec:e);
          (Axis.Preceding, fun e -> Sj.preceding_view ~exec:e);
        ])
    (("document", Sj.View.of_doc doc)
    :: ("@k0", Sj.View.of_tag doc "k0")
    :: List.map (fun name -> (name, Sj.View.of_tag doc name)) (Array.to_list Fuzz.names));
  (* the paged rendition under eviction pressure: results and counters
     must match the in-memory estimation-mode run *)
  let paged = Paged_doc.load ~page_ints:16 ~capacity:6 doc in
  let _, s_mem_d =
    run_counted (fun stats -> Sj.desc ~exec:(Exec.make ~mode:Sj.Estimation ~stats ()) doc ctx)
  in
  let r_paged_d, s_paged_d =
    run_counted (fun stats -> Paged_doc.desc ~exec:(Exec.make ~stats ()) paged ctx)
  in
  check_result shape seed ~what:"paged desc" (oracle Axis.Descendant) r_paged_d;
  check_counters shape seed ~what:"paged desc vs in-memory estimation" s_mem_d s_paged_d;
  let _, s_mem_a =
    run_counted (fun stats -> Sj.anc ~exec:(Exec.make ~mode:Sj.Estimation ~stats ()) doc ctx)
  in
  let r_paged_a, s_paged_a =
    run_counted (fun stats -> Paged_doc.anc ~exec:(Exec.make ~stats ()) paged ctx)
  in
  check_result shape seed ~what:"paged anc" (oracle Axis.Ancestor) r_paged_a;
  check_counters shape seed ~what:"paged anc vs in-memory estimation" s_mem_a s_paged_a;
  (* index plans: result agreement only (their work profile differs by
     design — that is the paper's point) *)
  check_result shape seed ~what:"paged index_desc" (oracle Axis.Descendant)
    (Paged_doc.index_desc paged ctx);
  check_result shape seed ~what:"paged index_anc" (oracle Axis.Ancestor)
    (Paged_doc.index_anc paged ctx);
  check_result shape seed ~what:"sql_plan desc" (oracle Axis.Descendant)
    (Sql_plan.step idx doc ctx `Descendant);
  check_result shape seed ~what:"sql_plan anc" (oracle Axis.Ancestor)
    (Sql_plan.step idx doc ctx `Ancestor)

let test_shape shape () = List.iter (differential shape) seeds

let shape_cases =
  List.map
    (fun shape ->
      Alcotest.test_case
        (Printf.sprintf "differential fuzz: %s" (Fuzz.shape_to_string shape))
        `Quick (test_shape shape))
    Fuzz.all_shapes

(* ------------------------------------------------------------------ *)
(* multi-step paths through the planner vs. the per-step oracle         *)
(* ------------------------------------------------------------------ *)

(* Random predicate-free multi-step paths are planned and executed by the
   cost-based planner (auto backend choice, cost-based pushdown — so the
   step-fusion and pushdown rewrites fire on real inputs) and held
   against the naive oracle: fold the specification step over the path,
   filtering each intermediate by an independent restatement of the node
   test.  Same (shape, seed) replayability as the axis matrix above. *)

module Ast = Scj_xpath.Ast
module Eval = Scj_xpath.Eval
module Plan = Scj_plan.Plan

let fuzz_axes =
  [|
    Axis.Descendant; Axis.Ancestor; Axis.Following; Axis.Preceding; Axis.Child;
    Axis.Parent; Axis.Attribute; Axis.Self; Axis.Following_sibling;
    Axis.Preceding_sibling; Axis.Descendant_or_self; Axis.Ancestor_or_self;
  |]

let fuzz_tests =
  [|
    Ast.Kind_test Ast.Any_node; Ast.Name_test "a"; Ast.Name_test "b";
    Ast.Name_test "item"; Ast.Wildcard; Ast.Kind_test Ast.Text_node;
    Ast.Kind_test Ast.Comment_node; Ast.Kind_test (Ast.Pi_node None);
    Ast.Kind_test (Ast.Pi_node (Some "pi"));
  |]

(* independent restatement of the node-test semantics for the oracle *)
let oracle_test doc axis test v =
  let principal =
    match axis with
    | Axis.Attribute -> Doc.kind doc v = Doc.Attribute
    | _ -> Doc.kind doc v = Doc.Element
  in
  match test with
  | Ast.Kind_test Ast.Any_node -> true
  | Ast.Kind_test Ast.Text_node -> Doc.kind doc v = Doc.Text
  | Ast.Kind_test Ast.Comment_node -> Doc.kind doc v = Doc.Comment
  | Ast.Kind_test (Ast.Pi_node None) -> Doc.kind doc v = Doc.Pi
  | Ast.Kind_test (Ast.Pi_node (Some target)) ->
    Doc.kind doc v = Doc.Pi && Doc.tag_name doc v = Some target
  | Ast.Wildcard -> principal
  | Ast.Name_test n -> principal && Doc.tag_name doc v = Some n

(* XPath string-value, restated: an element's is the concatenation of
   its text descendants, every other node's its own content *)
let oracle_string doc v =
  match Doc.kind doc v with
  | Doc.Element ->
    let buf = Buffer.create 16 in
    for u = v + 1 to v + Doc.size doc v do
      if Doc.kind doc u = Doc.Text then Buffer.add_string buf (Option.get (Doc.content doc u))
    done;
    Buffer.contents buf
  | Doc.Text | Doc.Comment | Doc.Attribute | Doc.Pi -> Option.value ~default:"" (Doc.content doc v)

let reverse_axis = function
  | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Preceding | Axis.Preceding_sibling | Axis.Parent
    ->
    true
  | _ -> false

(* Steps without predicates filter the whole step result; a step with
   predicates runs per context node, the axis result in proximity order,
   each predicate restated by [oracle_pred] over the survivors of the
   previous one. *)
let rec oracle_path doc ctx steps =
  List.fold_left
    (fun seq (s : Ast.step) ->
      let step ctx =
        Nodeseq.filter (oracle_test doc s.Ast.axis s.Ast.test)
          (Test_support.spec_step doc s.Ast.axis ctx)
      in
      match s.Ast.predicates with
      | [] -> step seq
      | preds ->
        Nodeseq.fold_left
          (fun acc c ->
            let nodes = Nodeseq.to_list (step (Nodeseq.of_unsorted [ c ])) in
            let ordered = if reverse_axis s.Ast.axis then List.rev nodes else nodes in
            let kept =
              List.fold_left
                (fun cands e ->
                  let last = List.length cands in
                  List.filteri (fun i v -> oracle_pred doc e ~node:v ~pos:(i + 1) ~last) cands)
                ordered preds
            in
            Nodeseq.union acc (Nodeseq.of_unsorted kept))
          (Nodeseq.of_unsorted []) seq)
    ctx steps

(* XPath 1.0 predicate truth over the fuzz templates' expressions: a
   number means position() = number, node-sets compare existentially —
   = and != on strings, numbers (NaN for non-numeric text) otherwise. *)
and oracle_pred doc e ~node ~pos ~last =
  let num s = match float_of_string_opt (String.trim s) with Some f -> f | None -> Float.nan in
  let holds op x y =
    match op with
    | Ast.Eq -> x = y
    | Ast.Neq -> x <> y
    | Ast.Lt -> x < y
    | Ast.Le -> x <= y
    | Ast.Gt -> x > y
    | Ast.Ge -> x >= y
  in
  let strings (p : Ast.path) =
    List.map (oracle_string doc)
      (Nodeseq.to_list (oracle_path doc (Nodeseq.of_unsorted [ node ]) p.Ast.steps))
  in
  let compare_strings op a b =
    match op with Ast.Eq -> a = b | Ast.Neq -> a <> b | _ -> holds op (num a) (num b)
  in
  let rec truth = function
    | Ast.Path_expr p -> strings p <> []
    | Ast.Not e -> not (truth e)
    | Ast.And (a, b) -> truth a && truth b
    | Ast.Or (a, b) -> truth a || truth b
    | Ast.Compare (op, Ast.Path_expr p, Ast.Path_expr q) ->
      let qs = strings q in
      List.exists (fun a -> List.exists (compare_strings op a) qs) (strings p)
    | Ast.Compare (op, Ast.Path_expr p, Ast.Literal l) ->
      List.exists (fun a -> compare_strings op a l) (strings p)
    | Ast.Compare (op, Ast.Literal l, Ast.Path_expr p) ->
      List.exists (fun a -> compare_strings op l a) (strings p)
    | Ast.Compare (op, Ast.Path_expr p, Ast.Number f) ->
      List.exists (fun a -> holds op (num a) f) (strings p)
    | Ast.Compare (op, Ast.Number f, Ast.Path_expr p) ->
      List.exists (fun a -> holds op f (num a)) (strings p)
    | Ast.Compare (op, Ast.Position, Ast.Number f) -> holds op (float_of_int pos) f
    | Ast.Compare (op, Ast.Last, Ast.Number f) -> holds op (float_of_int last) f
    | e -> Alcotest.failf "oracle: unsupported predicate %a" Ast.pp_expr e
  in
  match e with
  | Ast.Number f -> float_of_int pos = f
  | Ast.Last -> pos = last
  | e -> truth e

let rec plan_steps = function
  | Plan.P_source _ -> []
  | Plan.P_step (input, ps) -> plan_steps input @ [ ps ]
  | Plan.P_union ps -> List.concat_map plan_steps ps

let planner_paths shape seed =
  let doc = Fuzz.doc shape seed in
  let ctx = Fuzz.context doc seed in
  let session = Eval.session doc in
  let st = Random.State.make [| 0xbead; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  for _ = 1 to 4 do
    let len = 1 + Random.State.int st 3 in
    let steps =
      List.init len (fun _ ->
          Ast.step
            fuzz_axes.(Random.State.int st (Array.length fuzz_axes))
            fuzz_tests.(Random.State.int st (Array.length fuzz_tests)))
    in
    let path = { Ast.absolute = false; steps } in
    let expected = oracle_path doc ctx steps in
    let actual = Eval.eval_path ~context:ctx session path in
    if not (Nodeseq.equal expected actual) then
      fail_at shape seed "planner path %s: expected %s, got %s"
        (Ast.path_to_string path)
        (Format.asprintf "%a" Nodeseq.pp expected)
        (Format.asprintf "%a" Nodeseq.pp actual);
    (* Auto runs one kernel: every descendant/ancestor join, relative or
       absolute, is the serial staircase in estimation mode *)
    List.iter
      (fun (path, card) ->
        List.iter
          (fun (ps : Plan.phys_step) ->
            match ps.Plan.impl with
            | Plan.Join { dir = Plan.Desc | Plan.Anc; backend; _ }
              when backend <> Plan.Serial Exec.Estimation ->
              fail_at shape seed "planner path %s: %s planned as %s" (Ast.path_to_string path)
                (Plan.step_to_string ps.Plan.step) (Plan.backend_to_string backend)
            | Plan.Join _ | Plan.Structural | Plan.Select_self | Plan.Empty_result -> ())
          (plan_steps (Eval.path_plan ~context_card:card session path)))
      [ (path, Nodeseq.length ctx); ({ path with Ast.absolute = true }, 1) ]
  done

let test_planner_shape shape () = List.iter (planner_paths shape) seeds

(* Predicate templates over the fuzz names: existence of 1-3-step child,
   attribute, descendant(-or-self) and self paths; =, !=, <, > against
   string and numeric literals on either side (the attributes hold
   "07"/"7.0"-style spellings); and/or/not; and the fallbacks the
   planner keeps per node — positional predicates, path-vs-path
   comparisons, upward paths and kind tests.  Auto (where semijoins and
   following/preceding pushdown run) must be bit-identical to the forced
   no-skipping staircase, forced naive and the oracle. *)
let pred_axes = [| Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Self |]

let gen_pred_path st =
  let len = 1 + Random.State.int st 3 in
  let steps =
    List.init len (fun i ->
        if i = len - 1 && Random.State.int st 3 = 0 then
          Ast.step Axis.Attribute (Ast.Name_test (Printf.sprintf "k%d" (Random.State.int st 4)))
        else
          Ast.step
            pred_axes.(Random.State.int st (Array.length pred_axes))
            (if Random.State.int st 8 = 0 then Ast.Kind_test Ast.Text_node
             else Ast.Name_test (Fuzz.pick_name st)))
  in
  { Ast.absolute = false; steps }

let gen_literal st =
  match Random.State.int st 6 with
  | 0 -> Ast.Literal "7"
  | 1 -> Ast.Literal "07"
  | 2 -> Ast.Literal "7.0"
  | 3 -> Ast.Literal "t"
  | 4 -> Ast.Number 7.
  | _ -> Ast.Number (float_of_int (Random.State.int st 100))

let pred_ops = [| Ast.Eq; Ast.Neq; Ast.Lt; Ast.Gt |]

let rec gen_pred st depth =
  let path () = Ast.Path_expr (gen_pred_path st) in
  let op () = pred_ops.(Random.State.int st (Array.length pred_ops)) in
  match Random.State.int st (if depth > 0 then 5 else 9) with
  | 0 | 1 -> path ()
  | 2 -> Ast.Compare (op (), path (), gen_literal st)
  | 3 -> Ast.Compare (op (), gen_literal st, path ())
  | 4 -> Ast.Compare (op (), Ast.Path_expr { Ast.absolute = false; steps = [] }, gen_literal st)
  | 5 -> Ast.And (gen_pred st (depth + 1), gen_pred st (depth + 1))
  | 6 -> Ast.Or (gen_pred st (depth + 1), gen_pred st (depth + 1))
  | 7 -> Ast.Not (gen_pred st (depth + 1))
  | _ -> (
    match Random.State.int st 4 with
    | 0 -> Ast.Number (float_of_int (1 + Random.State.int st 3))
    | 1 -> Ast.Compare (Ast.Lt, Ast.Position, Ast.Number 3.)
    | 2 -> Ast.Compare (op (), path (), path ())
    | _ ->
      Ast.Path_expr
        {
          Ast.absolute = false;
          steps = [ Ast.step Axis.Ancestor (Ast.Name_test (Fuzz.pick_name st)) ];
        })

let pred_strategies =
  List.map
    (fun name -> (name, Option.get (Eval.strategy_of_string name)))
    [ "auto"; "staircase-noskip"; "naive" ]

let rec plan_has_semijoin = function
  | Scj_plan.Plan.P_source _ -> false
  | Scj_plan.Plan.P_step (input, ps) -> ps.Scj_plan.Plan.semijoin || plan_has_semijoin input
  | Scj_plan.Plan.P_union ps -> List.exists plan_has_semijoin ps

let predicate_paths semijoins shape seed =
  let doc = Fuzz.doc shape seed in
  let ctx = Fuzz.context doc seed in
  let sessions = List.map (fun (n, s) -> (n, Eval.session ~strategy:s doc)) pred_strategies in
  let st = Random.State.make [| 0x9ed; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  for _ = 1 to 6 do
    let absolute = Random.State.bool st in
    let first =
      Ast.step
        ~predicates:[ gen_pred st 0 ]
        (if Random.State.bool st then Axis.Descendant else Axis.Child)
        (Ast.Name_test (Fuzz.pick_name st))
    in
    let steps =
      if Random.State.int st 3 > 0 then [ first ]
      else
        [
          first;
          Ast.step
            [| Axis.Following; Axis.Preceding; Axis.Child |].(Random.State.int st 3)
            (Ast.Name_test (Fuzz.pick_name st));
        ]
    in
    let path = { Ast.absolute; steps } in
    let expected =
      if absolute then
        (* absolute paths start at the document node above pre 0 *)
        match steps with
        | [] -> assert false
        | s :: rest ->
          let seed_seq =
            match s.Ast.axis with
            | Axis.Child -> Nodeseq.of_unsorted [ 0 ]
            | _ -> Test_support.spec_step doc Axis.Descendant_or_self (Nodeseq.of_unsorted [ 0 ])
          in
          let kept =
            List.fold_left
              (fun cands e ->
                let last = List.length cands in
                List.filteri (fun i v -> oracle_pred doc e ~node:v ~pos:(i + 1) ~last) cands)
              (Nodeseq.to_list (Nodeseq.filter (oracle_test doc s.Ast.axis s.Ast.test) seed_seq))
              s.Ast.predicates
          in
          oracle_path doc (Nodeseq.of_unsorted kept) rest
      else oracle_path doc ctx steps
    in
    List.iter
      (fun (what, session) ->
        let actual =
          if absolute then Eval.eval_path session path else Eval.eval_path ~context:ctx session path
        in
        if not (Nodeseq.equal expected actual) then
          fail_at shape seed "%s under %s: expected %s, got %s" (Ast.path_to_string path) what
            (Format.asprintf "%a" Nodeseq.pp expected)
            (Format.asprintf "%a" Nodeseq.pp actual);
        if what = "auto" then begin
          let card = if absolute then 1 else Nodeseq.length ctx in
          if plan_has_semijoin (Eval.path_plan ~context_card:card session path) then incr semijoins
        end)
      sessions
  done

let predicate_cases =
  List.map
    (fun shape ->
      Alcotest.test_case
        (Printf.sprintf "planner predicates: %s" (Fuzz.shape_to_string shape))
        `Quick
        (fun () ->
          let semijoins = ref 0 in
          List.iter (predicate_paths semijoins shape) seeds;
          if !semijoins = 0 then
            Alcotest.failf "shape=%s: no template planned a semijoin" (Fuzz.shape_to_string shape)))
    Fuzz.all_shapes

let planner_cases =
  List.map
    (fun shape ->
      Alcotest.test_case
        (Printf.sprintf "planner paths: %s" (Fuzz.shape_to_string shape))
        `Quick (test_planner_shape shape))
    Fuzz.all_shapes

(* ------------------------------------------------------------------ *)
(* guide-enabled planning vs flat statistics vs the oracle              *)
(* ------------------------------------------------------------------ *)

(* Random absolute structural paths (the region where the dataguide
   drives cardinalities and path partitions) evaluated three ways —
   auto with the guide, auto restricted to flat statistics, and auto
   with every fragment pushed, so partition scans run wherever a
   partition is smaller than the tag fragment — must all be
   bit-identical to the spec oracle folded from the root. *)

module Guide = Scj_guide.Guide

let guide_axes = [| Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Ancestor |]

let guide_strategies =
  ("auto, pushdown=always", { Eval.default_strategy with Eval.pushdown = `Always })
  :: List.filter_map
       (fun name -> Option.map (fun s -> (name, s)) (Eval.strategy_of_string name))
       [ "auto"; "auto-flat" ]

(* Absolute paths start at a virtual document node above the root
   element: its one child is pre 0, its descendants are the whole tree,
   and it has no ancestors — restate that for the oracle's first step. *)
let oracle_absolute doc steps =
  match steps with
  | [] -> Nodeseq.of_unsorted []
  | (first : Ast.step) :: rest ->
    let root = Nodeseq.of_unsorted [ 0 ] in
    let seed_seq =
      match first.Ast.axis with
      | Axis.Child -> root
      | Axis.Descendant | Axis.Descendant_or_self ->
        Test_support.spec_step doc Axis.Descendant_or_self root
      | _ -> Nodeseq.of_unsorted []
    in
    oracle_path doc
      (Nodeseq.filter (oracle_test doc first.Ast.axis first.Ast.test) seed_seq)
      rest

let guide_paths shape seed =
  let doc = Fuzz.doc shape seed in
  let sessions = List.map (fun (n, s) -> (n, Eval.session ~strategy:s doc)) guide_strategies in
  let st = Random.State.make [| 0x6d1e; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  for _ = 1 to 4 do
    let len = 1 + Random.State.int st 3 in
    let steps =
      List.init len (fun _ ->
          Ast.step
            guide_axes.(Random.State.int st (Array.length guide_axes))
            (Ast.Name_test (Fuzz.pick_name st)))
    in
    let path = { Ast.absolute = true; steps } in
    let expected = oracle_absolute doc steps in
    List.iter
      (fun (what, session) ->
        let actual = Eval.eval_path session path in
        if not (Nodeseq.equal expected actual) then
          fail_at shape seed "%s under %s: expected %s, got %s" (Ast.path_to_string path) what
            (Format.asprintf "%a" Nodeseq.pp expected)
            (Format.asprintf "%a" Nodeseq.pp actual))
      sessions
  done

(* Structural downward prefixes are where the guide promises {e exact}
   cardinalities: a single-step absolute descendant probe must execute
   with estimated = actual (q-error 1.00) on every span that reports
   one. *)
let guide_exactness shape seed =
  let doc = Fuzz.doc shape seed in
  let session = Eval.session doc in
  Array.iter
    (fun name ->
      let path =
        { Ast.absolute = true; steps = [ Ast.step Axis.Descendant (Ast.Name_test name) ] }
      in
      let _, trace = Eval.analyze session path in
      let rec walk (s : Scj_trace.Trace.span) =
        (match List.assoc_opt "q_error" s.Scj_trace.Trace.attrs with
        | Some q when q <> "1.00" ->
          fail_at shape seed "//%s: span %s drifted (q-error %s)" name s.Scj_trace.Trace.name q
        | Some _ | None -> ());
        List.iter walk s.Scj_trace.Trace.children
      in
      List.iter walk (Scj_trace.Trace.roots trace))
    Fuzz.names

let guide_cases =
  List.map
    (fun shape ->
      Alcotest.test_case
        (Printf.sprintf "guide-planned paths: %s" (Fuzz.shape_to_string shape))
        `Quick
        (fun () ->
          List.iter (guide_paths shape) seeds;
          List.iter (guide_exactness shape) seeds))
    Fuzz.all_shapes

(* ------------------------------------------------------------------ *)
(* multi-document scatter-gather vs the per-document serial oracle      *)
(* ------------------------------------------------------------------ *)

(* A fuzzed corpus of 2-4 documents behind one shared 2Q pool
   (Catalog + Shard): the cross-corpus wildcard [Shard.run_all] must
   equal evaluating the same query on each document through its own
   isolated single-worker server, concatenated in document order — the
   results node for node and the per-query work counters bit for bit
   (the shared pool changes fault timing, never the join's work). *)

module Catalog = Scj_db.Catalog
module Db = Scj_db.Db
module Server = Scj_server.Server
module Shard = Scj_server.Shard

let corpus_queries = [ "/descendant::item"; "/descendant::a/ancestor::b"; "//x" ]

let reply_of shape seed ~what = function
  | Server.Done r -> r
  | Server.Timed_out -> fail_at shape seed "%s: timed out" what
  | Server.Failed e -> fail_at shape seed "%s: failed: %s" what (Scj_error.Error.to_string e)
  | Server.Dropped -> fail_at shape seed "%s: dropped" what

let corpus_differential shape seed =
  let entries = Fuzz.corpus shape seed in
  let catalog =
    Catalog.of_docs ~policy:Scj_pager.Buffer_pool.Two_q ~page_ints:16 ~capacity:8 entries
  in
  let shard = Shard.create ~workers:2 catalog in
  let oracles =
    List.map (fun (id, doc) -> (id, Server.create ~workers:1 (Db.of_doc doc))) entries
  in
  List.iter
    (fun q ->
      let outcomes = Shard.run_all shard (Server.Path q) in
      if List.map fst outcomes <> List.map fst entries then
        fail_at shape seed "query %s: wildcard order %s, document order %s" q
          (String.concat "," (List.map fst outcomes))
          (String.concat "," (List.map fst entries));
      List.iter2
        (fun (id, outcome) (id', oracle) ->
          assert (id = id');
          let r = reply_of shape seed ~what:(q ^ " scatter-gather " ^ id) outcome in
          let r' =
            reply_of shape seed ~what:(q ^ " serial oracle " ^ id)
              (Server.run oracle (Server.Path q))
          in
          check_result shape seed
            ~what:(q ^ " " ^ id ^ " scatter-gather vs serial")
            r'.Server.result r.Server.result;
          check_counters shape seed
            ~what:(q ^ " " ^ id ^ " work counters")
            r'.Server.work r.Server.work)
        outcomes oracles)
    corpus_queries;
  List.iter (fun (_, s) -> Server.shutdown s) oracles;
  Shard.shutdown shard;
  Catalog.close catalog

let corpus_seeds = Fuzz.seeds 8

let corpus_cases =
  List.map
    (fun shape ->
      Alcotest.test_case
        (Printf.sprintf "corpus scatter-gather: %s" (Fuzz.shape_to_string shape))
        `Quick
        (fun () -> List.iter (corpus_differential shape) corpus_seeds))
    Fuzz.all_shapes

(* ------------------------------------------------------------------ *)
(* FLWOR: compiled operator programs vs the tuple-at-a-time oracle      *)
(* ------------------------------------------------------------------ *)

(* Random FLWOR programs over the fuzz documents' vocabulary (element
   names a/b/item/x/y, attributes k0..k3 holding numeric strings in
   mixed spellings — "7", "07", "7.0").  The
   compiled pipeline (Xq_compile: loop-lifting, embedded planned paths,
   value-join isolation) must agree with the retained tuple-at-a-time
   interpreter on the serialized result for every query, and — whenever
   the compiled plan contains no isolated value join — on every work
   counter bit for bit: that is the counter-parity invariant EXPLAIN
   ANALYZE is built on.  An isolated join may change how much work is
   done, never the answer.  Same (shape, seed) replayability and
   SCJ_FUZZ_SEED narrowing as the suites above. *)

module Xq_parse = Scj_xquery.Xq_parse
module Xq_compile = Scj_xquery.Xq_compile
module Xq_eval = Scj_xquery.Xq_eval

let flwor_names = [| "a"; "b"; "item"; "x"; "y" |]

let gen_flwor st =
  let name () = flwor_names.(Random.State.int st (Array.length flwor_names)) in
  let attr () = Printf.sprintf "k%d" (Random.State.int st 4) in
  let src () =
    match Random.State.int st 3 with
    | 0 -> "//" ^ name ()
    | 1 -> "/descendant::" ^ name ()
    | _ -> "/descendant-or-self::node()/child::" ^ name ()
  in
  match Random.State.int st 10 with
  | 0 -> Printf.sprintf "for $v in %s return $v" (src ())
  | 1 ->
    Printf.sprintf "for $v in %s where exists($v/child::%s) return $v" (src ()) (name ())
  | 2 ->
    Printf.sprintf "for $v in %s let $k := $v/attribute::%s where $k = '%d' return $v"
      (src ()) (attr ())
      (Random.State.int st 100)
  | 3 ->
    Printf.sprintf
      "for $v in %s order by string($v/attribute::%s) descending return element row { $v }"
      (src ()) (attr ())
  | 4 ->
    Printf.sprintf "for $v at $p in %s where $p <= %d return $p" (src ())
      (1 + Random.State.int st 5)
  | 5 -> Printf.sprintf "for $v in %s return count($v/child::%s)" (src ()) (name ())
  | 6 ->
    (* div by 3..9: non-integral quotients exercise the shortest
       round-trip float serialization through both pipelines *)
    Printf.sprintf "for $v in %s let $n := count($v/child::node()) return ($n div %d)"
      (src ())
      (3 + Random.State.int st 7)
  | 7 ->
    (* numeric outer key: a position variable is a Num, so the general
       comparison is numeric against the attribute's string — "07" and
       "7.0" spellings must pair with $p = 7 even through an isolated
       merge join *)
    Printf.sprintf
      "for $o at $p in //%s for $i in //%s where $p = $i/attribute::%s return $i"
      (name ()) (name ()) (attr ())
  | 8 ->
    (* let-bound arithmetic key: also a Num on the outer side *)
    Printf.sprintf
      "for $o in //%s let $n := count($o/child::node()) + %d for $i in //%s where $n = \
       $i/attribute::%s return ($o, $i)"
      (name ())
      (Random.State.int st 3)
      (name ()) (attr ())
  | _ ->
    (* a value-join candidate: isolated or rejected depending on what
       the cost model sees in this document — both must be right *)
    Printf.sprintf
      "for $o in //%s for $i in //%s where $i/attribute::%s = $o/attribute::%s return $o"
      (name ()) (name ()) (attr ()) (attr ())

let flwor_differential shape seed =
  let doc = Fuzz.doc shape seed in
  let session = Eval.session doc in
  let st = Random.State.make [| 0xf10; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  let check q =
    let ast =
      match Xq_parse.parse q with
      | Ok ast -> ast
      | Error e -> fail_at shape seed "%s: parse error: %s" q e
    in
    let compiled =
      match Xq_compile.compile session ast with
      | c -> c
      | exception Scj_plan.Flwor.Error e -> fail_at shape seed "%s: compile error: %s" q e
    in
    let r_c, s_c =
      run_counted (fun stats -> Xq_compile.eval ~exec:(Exec.make ~stats ()) session ast)
    in
    let r_i, s_i =
      run_counted (fun stats -> Xq_eval.interpret ~exec:(Exec.make ~stats ()) session ast)
    in
    match (r_c, r_i) with
    | Ok vc, Ok vi ->
      let sc = Xq_eval.serialize session vc and si = Xq_eval.serialize session vi in
      if sc <> si then fail_at shape seed "%s: compiled %S, interpreter %S" q sc si;
      if
        (not (Xq_compile.has_value_join compiled))
        && Stats.all_assoc s_c <> Stats.all_assoc s_i
      then
        fail_at shape seed "%s: join-free counters diverge: compiled %s, interpreter %s" q
          (Stats.to_json s_c) (Stats.to_json s_i)
    | Error ec, Error ei ->
      if ec <> ei then
        fail_at shape seed "%s: error messages diverge: compiled %S, interpreter %S" q ec ei
    | Ok _, Error e -> fail_at shape seed "%s: interpreter failed (%s), compiled succeeded" q e
    | Error e, Ok _ -> fail_at shape seed "%s: compiled failed (%s), interpreter succeeded" q e
  in
  (* guaranteed join candidates — one string-keyed, one numeric-keyed
     (a position variable binds Num atoms) — then the random mix *)
  check "for $o in //a for $i in //b where $i/attribute::k0 = $o/attribute::k0 return ($o, $i)";
  check "for $x at $i in //a for $b in //b where $i = $b/attribute::k0 return $b";
  for _ = 1 to 8 do
    check (gen_flwor st)
  done

let flwor_seeds = Fuzz.seeds 15

let flwor_cases =
  List.map
    (fun shape ->
      Alcotest.test_case
        (Printf.sprintf "flwor compiled vs interpreter: %s" (Fuzz.shape_to_string shape))
        `Quick
        (fun () -> List.iter (flwor_differential shape) flwor_seeds))
    Fuzz.all_shapes

let () =
  Alcotest.run "differential"
    [
      ("axes x implementations x modes", shape_cases);
      ("multi-step paths through the planner", planner_cases);
      ("predicates through the planner", predicate_cases);
      ("guide-enabled planning", guide_cases);
      ("multi-document scatter-gather", corpus_cases);
      ("flwor compiled vs interpreter", flwor_cases);
    ]
