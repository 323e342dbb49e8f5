module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Trace = Scj_trace.Trace
module Exec = Scj_trace.Exec
module Plan = Scj_plan.Plan
module Planner = Scj_plan.Planner

type strategy = {
  backend : [ `Auto | `Auto_flat | `Force of Plan.backend ];
  pushdown : [ `Never | `Always | `Cost_based ];
}

let default_strategy = { backend = `Auto; pushdown = `Cost_based }

let policy_of_strategy s =
  {
    Planner.choice =
      (match s.backend with
      | `Auto | `Auto_flat -> Planner.Auto
      | `Force b -> Planner.Force b);
    pushdown = s.pushdown;
    guide = (match s.backend with `Auto_flat -> false | `Auto | `Force _ -> true);
  }

let strategy_to_string s = Planner.policy_to_string (policy_of_strategy s)

(* The CLI / bench spellings of the forced backends. *)
let strategy_names =
  [
    "auto";
    "auto-flat";
    "staircase";
    "staircase-noskip";
    "staircase-skip";
    "staircase-estimate";
    "staircase-exact";
    "morsel";
    "paged";
    "sql";
    "sql-nodelimiter";
    "mpmgjn";
    "structjoin";
    "naive";
  ]

let strategy_of_string name =
  let forced b = Some { default_strategy with backend = `Force b } in
  match name with
  | "auto" -> Some default_strategy
  | "auto-flat" -> Some { default_strategy with backend = `Auto_flat }
  | "staircase" | "staircase-estimate" -> forced (Plan.Serial Exec.Estimation)
  | "staircase-noskip" -> forced (Plan.Serial Exec.No_skipping)
  | "staircase-skip" -> forced (Plan.Serial Exec.Skipping)
  | "staircase-exact" -> forced (Plan.Serial Exec.Exact_size)
  | "morsel" -> forced (Plan.Morsel Exec.Estimation)
  | "paged" -> forced Plan.Paged
  | "sql" -> forced (Plan.Btree { delimiter = true })
  | "sql-nodelimiter" -> forced (Plan.Btree { delimiter = false })
  | "mpmgjn" -> forced Plan.Mpmgjn
  | "structjoin" -> forced Plan.Structjoin
  | "naive" -> forced Plan.Naive
  | _ -> None

type session = {
  doc : Doc.t;
  strategy : strategy;
  catalog : Planner.t;
  plans : (Ast.path * int, Plan.physical) Hashtbl.t;
      (* planned-once cache, keyed by path and context cardinality *)
}

let session ?(strategy = default_strategy) ?paged ?guide doc =
  { doc; strategy; catalog = Planner.catalog ?paged ?guide doc; plans = Hashtbl.create 16 }

let doc_of_session s = s.doc

let catalog_of_session s = s.catalog

let strategy_of_session s = s.strategy

(* ------------------------------------------------------------------ *)
(* predicate expressions (XPath 1.0 value model)                        *)
(* ------------------------------------------------------------------ *)

type value = Nodes of Nodeseq.t | Bool of bool | Num of float | Str of string

let to_bool = function
  | Bool b -> b
  | Nodes s -> not (Nodeseq.is_empty s)
  | Num f -> f <> 0.0 && not (Float.is_nan f)
  | Str s -> String.length s > 0

let number_of_string s = match float_of_string_opt (String.trim s) with Some f -> f | None -> Float.nan

let to_num doc = function
  | Num f -> f
  | Bool b -> if b then 1.0 else 0.0
  | Str s -> number_of_string s
  | Nodes s -> (
    match Nodeseq.first s with None -> Float.nan | Some v -> number_of_string (Doc.string_value doc v))

(* XPath 1.0 string() conversion. *)
let to_str doc = function
  | Str s -> s
  | Bool b -> if b then "true" else "false"
  | Num f ->
    if Float.is_nan f then "NaN"
    else if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
    else string_of_float f
  | Nodes s -> (
    match Nodeseq.first s with None -> "" | Some v -> Doc.string_value doc v)

let is_xml_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let normalize_space s =
  let buf = Buffer.create (String.length s) in
  let pending = ref false in
  String.iter
    (fun c ->
      if is_xml_space c then begin
        if Buffer.length buf > 0 then pending := true
      end
      else begin
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        Buffer.add_char buf c
      end)
    s;
  Buffer.contents buf

(* substring(s, start, len?) with the XPath 1.0 rounding rules: positions
   are 1-based, both arguments are round()-ed, NaN bounds yield "".
   Positions are bytes, not code points — documented in the README. *)
let xpath_substring s start len =
  let n = String.length s in
  let round_half_up f = Float.round f in
  if Float.is_nan start then ""
  else begin
    let first = round_half_up start in
    let limit =
      match len with
      | None -> Float.of_int (n + 1)
      | Some l -> if Float.is_nan l then Float.neg_infinity else first +. round_half_up l
    in
    let buf = Buffer.create n in
    for p = 1 to n do
      let fp = Float.of_int p in
      if fp >= first && fp < limit then Buffer.add_char buf s.[p - 1]
    done;
    Buffer.contents buf
  end

let string_contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let starts_with ~prefix s =
  String.length prefix <= String.length s
  && String.sub s 0 (String.length prefix) = prefix

(* first occurrence of [sep] in [s], or None *)
let find_sub s sep =
  let n = String.length sep and h = String.length s in
  if n = 0 then None
  else
    let rec at i = if i + n > h then None else if String.sub s i n = sep then Some i else at (i + 1) in
    at 0

let substring_before s sep =
  match find_sub s sep with None -> "" | Some i -> String.sub s 0 i

let substring_after s sep =
  match find_sub s sep with
  | None -> ""
  | Some i -> String.sub s (i + String.length sep) (String.length s - i - String.length sep)

(* translate(s, from, into): map the i-th character of [from] to the i-th
   of [into]; characters of [from] without a counterpart are deleted *)
let translate s ~from ~into =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match String.index_opt from c with
      | None -> Buffer.add_char buf c
      | Some i -> if i < String.length into then Buffer.add_char buf into.[i])
    s;
  Buffer.contents buf

let local_name name =
  match String.rindex_opt name ':' with
  | None -> name
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)

let cmp_num op a b =
  match op with
  | Ast.Eq -> a = b
  | Ast.Neq -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b

let cmp_str op a b =
  match op with
  | Ast.Eq -> String.equal a b
  | Ast.Neq -> not (String.equal a b)
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> cmp_num op (number_of_string a) (number_of_string b)

(* XPath 1.0 comparison: node-sets compare existentially. *)
let rec compare_values doc op left right =
  match (left, right) with
  | Nodes ls, Nodes rs ->
    let values s = List.map (Doc.string_value doc) (Nodeseq.to_list s) in
    let rvals = values rs in
    List.exists (fun l -> List.exists (fun r -> cmp_str op l r) rvals) (values ls)
  | Nodes ls, other ->
    List.exists
      (fun v -> compare_values doc op (Str (Doc.string_value doc v)) other)
      (Nodeseq.to_list ls)
  | other, Nodes rs ->
    List.exists
      (fun v -> compare_values doc op other (Str (Doc.string_value doc v)))
      (Nodeseq.to_list rs)
  | (Bool _, _ | _, Bool _) when op = Ast.Eq || op = Ast.Neq ->
    cmp_num op (to_num doc left) (to_num doc right)
  | (Num _, _ | _, Num _) -> cmp_num op (to_num doc left) (to_num doc right)
  | Str a, Str b -> cmp_str op a b
  | (Bool _ | Str _), (Bool _ | Str _) -> cmp_num op (to_num doc left) (to_num doc right)

(* ------------------------------------------------------------------ *)
(* compilation: Ast → logical plan                                      *)
(* ------------------------------------------------------------------ *)

let compile_test = function
  | Ast.Name_test n -> Plan.Name n
  | Ast.Wildcard -> Plan.Wildcard
  | Ast.Kind_test Ast.Any_node -> Plan.Any_node
  | Ast.Kind_test Ast.Text_node -> Plan.Text_node
  | Ast.Kind_test Ast.Comment_node -> Plan.Comment_node
  | Ast.Kind_test (Ast.Pi_node t) -> Plan.Pi_node t

(* Predicate reordering key: embedded path steps dominate the cost of a
   predicate, everything else is cheap value arithmetic. *)
let rec expr_rank = function
  | Ast.Path_expr p | Ast.Count p | Ast.Fn_sum p -> List.length p.Ast.steps
  | Ast.Fn_name (Some p) | Ast.Fn_local_name (Some p) -> List.length p.Ast.steps
  | Ast.Fn_name None | Ast.Fn_local_name None -> 0
  | Ast.Literal _ | Ast.Number _ | Ast.Position | Ast.Last | Ast.Fn_true | Ast.Fn_false -> 0
  | Ast.Not e | Ast.Fn_boolean e | Ast.Fn_floor e | Ast.Fn_ceiling e | Ast.Fn_round e ->
    expr_rank e
  | Ast.Fn_string e | Ast.Fn_number e | Ast.Fn_string_length e | Ast.Fn_normalize_space e -> (
    match e with None -> 0 | Some e -> expr_rank e)
  | Ast.And (a, b)
  | Ast.Or (a, b)
  | Ast.Compare (_, a, b)
  | Ast.Fn_contains (a, b)
  | Ast.Fn_starts_with (a, b)
  | Ast.Fn_substring_before (a, b)
  | Ast.Fn_substring_after (a, b) ->
    expr_rank a + expr_rank b
  | Ast.Fn_concat es -> List.fold_left (fun acc e -> acc + expr_rank e) 0 es
  | Ast.Fn_substring (a, b, c) ->
    expr_rank a + expr_rank b + (match c with None -> 0 | Some c -> expr_rank c)
  | Ast.Fn_translate (a, b, c) -> expr_rank a + expr_rank b + expr_rank c

(* ------------------------------------------------------------------ *)
(* evaluation                                                           *)
(* ------------------------------------------------------------------ *)

let rec eval_expr session exec ~node ~pos ~last = function
  | Ast.Literal s -> Str s
  | Ast.Number f -> Num f
  | Ast.Position -> Num (float_of_int pos)
  | Ast.Last -> Num (float_of_int last)
  | Ast.Path_expr p -> Nodes (eval_path_inner session exec (Nodeseq.singleton node) p)
  | Ast.Count p -> Num (float_of_int (Nodeseq.length (eval_path_inner session exec (Nodeseq.singleton node) p)))
  | Ast.Not e -> Bool (not (to_bool (eval_expr session exec ~node ~pos ~last e)))
  | Ast.And (a, b) ->
    Bool
      (to_bool (eval_expr session exec ~node ~pos ~last a)
      && to_bool (eval_expr session exec ~node ~pos ~last b))
  | Ast.Or (a, b) ->
    Bool
      (to_bool (eval_expr session exec ~node ~pos ~last a)
      || to_bool (eval_expr session exec ~node ~pos ~last b))
  | Ast.Compare (op, a, b) ->
    let va = eval_expr session exec ~node ~pos ~last a in
    let vb = eval_expr session exec ~node ~pos ~last b in
    Bool (compare_values session.doc op va vb)
  | Ast.Fn_true -> Bool true
  | Ast.Fn_false -> Bool false
  | Ast.Fn_boolean e -> Bool (to_bool (eval_expr session exec ~node ~pos ~last e))
  | Ast.Fn_string e -> (
    match e with
    | None -> Str (Doc.string_value session.doc node)
    | Some e -> Str (to_str session.doc (eval_expr session exec ~node ~pos ~last e)))
  | Ast.Fn_number e -> (
    match e with
    | None -> Num (number_of_string (Doc.string_value session.doc node))
    | Some e -> Num (to_num session.doc (eval_expr session exec ~node ~pos ~last e)))
  | Ast.Fn_name p -> Str (name_of_path session exec ~node p ~local:false)
  | Ast.Fn_local_name p -> Str (name_of_path session exec ~node p ~local:true)
  | Ast.Fn_concat es ->
    Str
      (String.concat ""
         (List.map (fun e -> to_str session.doc (eval_expr session exec ~node ~pos ~last e)) es))
  | Ast.Fn_contains (a, b) ->
    let ha = to_str session.doc (eval_expr session exec ~node ~pos ~last a) in
    let ne = to_str session.doc (eval_expr session exec ~node ~pos ~last b) in
    Bool (string_contains ~needle:ne ha)
  | Ast.Fn_starts_with (a, b) ->
    let s = to_str session.doc (eval_expr session exec ~node ~pos ~last a) in
    let prefix = to_str session.doc (eval_expr session exec ~node ~pos ~last b) in
    Bool (starts_with ~prefix s)
  | Ast.Fn_substring (a, b, c) ->
    let s = to_str session.doc (eval_expr session exec ~node ~pos ~last a) in
    let start = to_num session.doc (eval_expr session exec ~node ~pos ~last b) in
    let len =
      Option.map (fun e -> to_num session.doc (eval_expr session exec ~node ~pos ~last e)) c
    in
    Str (xpath_substring s start len)
  | Ast.Fn_substring_before (a, b) ->
    let s = to_str session.doc (eval_expr session exec ~node ~pos ~last a) in
    let sep = to_str session.doc (eval_expr session exec ~node ~pos ~last b) in
    Str (substring_before s sep)
  | Ast.Fn_substring_after (a, b) ->
    let s = to_str session.doc (eval_expr session exec ~node ~pos ~last a) in
    let sep = to_str session.doc (eval_expr session exec ~node ~pos ~last b) in
    Str (substring_after s sep)
  | Ast.Fn_translate (a, b, c) ->
    let s = to_str session.doc (eval_expr session exec ~node ~pos ~last a) in
    let from = to_str session.doc (eval_expr session exec ~node ~pos ~last b) in
    let into = to_str session.doc (eval_expr session exec ~node ~pos ~last c) in
    Str (translate s ~from ~into)
  | Ast.Fn_string_length e ->
    let s =
      match e with
      | None -> Doc.string_value session.doc node
      | Some e -> to_str session.doc (eval_expr session exec ~node ~pos ~last e)
    in
    Num (float_of_int (String.length s))
  | Ast.Fn_normalize_space e ->
    let s =
      match e with
      | None -> Doc.string_value session.doc node
      | Some e -> to_str session.doc (eval_expr session exec ~node ~pos ~last e)
    in
    Str (normalize_space s)
  | Ast.Fn_sum p ->
    let nodes = eval_path_inner session exec (Nodeseq.singleton node) p in
    Num
      (Nodeseq.fold_left
         (fun acc v -> acc +. number_of_string (Doc.string_value session.doc v))
         0.0 nodes)
  | Ast.Fn_floor e -> Num (Float.floor (to_num session.doc (eval_expr session exec ~node ~pos ~last e)))
  | Ast.Fn_ceiling e ->
    Num (Float.ceil (to_num session.doc (eval_expr session exec ~node ~pos ~last e)))
  | Ast.Fn_round e ->
    (* XPath round(): half goes toward positive infinity *)
    Num (Float.floor (to_num session.doc (eval_expr session exec ~node ~pos ~last e) +. 0.5))

and name_of_path session exec ~node p ~local =
  let target =
    match p with
    | None -> Some node
    | Some p -> Nodeseq.first (eval_path_inner session exec (Nodeseq.singleton node) p)
  in
  match target with
  | None -> ""
  | Some v -> (
    match Doc.tag_name session.doc v with
    | None -> ""
    | Some name -> if local then local_name name else name)

(* Predicate truth: a numeric predicate value means position() = value. *)
and predicate_holds session exec ~node ~pos ~last expr =
  match eval_expr session exec ~node ~pos ~last expr with
  | Num f -> float_of_int pos = f
  | (Bool _ | Str _ | Nodes _) as v -> to_bool v

and compile_predicate session e =
  let positional = Ast.positional e in
  {
    Plan.label = Format.asprintf "%a" Ast.pp_expr e;
    positional;
    rank = expr_rank e;
    form = (if positional then None else transparent_form session e);
    eval = (fun exec ~node ~pos ~last -> predicate_holds session exec ~node ~pos ~last e);
  }

(* The planner-visible form of a predicate over relative downward paths
   (see {!Plan.form}).  A comparison with a literal becomes a node filter
   built from [compare_values] itself: a node-set compares existentially,
   node by node, so keeping the path's nodes that pass the filter keeps
   the XPath value semantics in this module. *)
and transparent_form session e =
  let downward (p : Ast.path) =
    (not p.Ast.absolute)
    && List.for_all
         (fun (s : Ast.step) ->
           s.Ast.predicates = []
           &&
           match s.Ast.axis with
           | Axis.Child | Axis.Attribute | Axis.Descendant | Axis.Descendant_or_self
           | Axis.Self ->
             true
           | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Following | Axis.Following_sibling
           | Axis.Namespace | Axis.Parent | Axis.Preceding | Axis.Preceding_sibling ->
             false)
         p.Ast.steps
  in
  let steps (p : Ast.path) = List.map (compile_step session) p.Ast.steps in
  let literal = function
    | Ast.Literal s -> Some (Str s)
    | Ast.Number f -> Some (Num f)
    | _ -> None
  in
  let string_of v = Str (Doc.string_value session.doc v) in
  let both a b f =
    match (transparent_form session a, transparent_form session b) with
    | Some a, Some b -> Some (f a b)
    | (None | Some _), _ -> None
  in
  match e with
  | Ast.Path_expr p when downward p -> Some (Plan.Exists (steps p))
  | Ast.Compare (op, Ast.Path_expr p, lit) when downward p -> (
    match literal lit with
    | Some lit ->
      Some (Plan.Value (steps p, fun v -> compare_values session.doc op (string_of v) lit))
    | None -> None)
  | Ast.Compare (op, lit, Ast.Path_expr p) when downward p -> (
    match literal lit with
    | Some lit ->
      Some (Plan.Value (steps p, fun v -> compare_values session.doc op lit (string_of v)))
    | None -> None)
  | Ast.And (a, b) -> both a b (fun a b -> Plan.And (a, b))
  | Ast.Or (a, b) -> both a b (fun a b -> Plan.Or (a, b))
  | Ast.Not a -> Option.map (fun a -> Plan.Not a) (transparent_form session a)
  | _ -> None

and compile_step session (s : Ast.step) =
  {
    Plan.axis = s.Ast.axis;
    test = compile_test s.Ast.test;
    predicates = List.map (compile_predicate session) s.Ast.predicates;
  }

and compile_path session (p : Ast.path) =
  let base = if p.Ast.absolute then Plan.L_source Plan.Document else Plan.L_source Plan.Context in
  List.fold_left (fun acc s -> Plan.L_step (acc, compile_step session s)) base p.Ast.steps

(* compile → rewrite → plan, cached per (path, context cardinality) *)
and plan_of_path session (p : Ast.path) ~context_card =
  let context_card = if p.Ast.absolute then 1 else context_card in
  let key = (p, context_card) in
  match Hashtbl.find_opt session.plans key with
  | Some phys -> phys
  | None ->
    let logical = Planner.rewrite (compile_path session p) in
    let phys =
      Planner.plan session.catalog (policy_of_strategy session.strategy) ~context_card logical
    in
    Hashtbl.add session.plans key phys;
    phys

and eval_path_inner session exec context (p : Ast.path) =
  let phys = plan_of_path session p ~context_card:(Nodeseq.length context) in
  Planner.execute session.catalog exec ~context phys

let ensure_exec = function None -> Exec.make () | Some e -> e

(* One axis step (node test and predicates included) — planned like a
   single-step relative path, without the chain rewrites. *)
let step ?exec session context (s : Ast.step) =
  let exec = ensure_exec exec in
  let logical = Plan.L_step (Plan.L_source Plan.Context, compile_step session s) in
  let phys =
    Planner.plan session.catalog
      (policy_of_strategy session.strategy)
      ~context_card:(Nodeseq.length context) logical
  in
  Planner.execute session.catalog exec ~context phys

let default_context session = Nodeseq.singleton (Doc.root session.doc)

let eval_path ?exec ?context session p =
  let context = match context with Some c -> c | None -> default_context session in
  eval_path_inner session (ensure_exec exec) context p

let eval_query ?exec ?context session q =
  let exec = ensure_exec exec in
  let context = match context with Some c -> c | None -> default_context session in
  List.fold_left
    (fun acc p -> Nodeseq.union acc (eval_path_inner session exec context p))
    Nodeseq.empty q

(* ------------------------------------------------------------------ *)
(* plan rendering                                                       *)
(* ------------------------------------------------------------------ *)

let path_plan ?(context_card = 1) session p = plan_of_path session p ~context_card

(* The logical chain, when the plan is one (for the SQL appendix). *)
let rec logical_chain = function
  | Plan.L_source src -> Some (src, [])
  | Plan.L_step (input, s) -> (
    match logical_chain input with
    | Some (src, steps) -> Some (src, steps @ [ s ])
    | None -> None)
  | Plan.L_union _ -> None

(* the pure-SQL rendition of §2.1, when the (rewritten) path consists of
   predicate-free partitioning steps *)
let sql_appendix rewritten =
  match logical_chain rewritten with
  | None | Some (_, []) -> None
  | Some (_, steps) ->
    let sql_steps =
      List.map
        (fun (s : Plan.step) ->
          let name_test =
            match s.Plan.test with
            | Plan.Name tag -> Some (Some tag)
            | Plan.Any_node -> Some None
            | Plan.Wildcard | Plan.Text_node | Plan.Comment_node | Plan.Pi_node _ -> None
          in
          match (s.Plan.axis, name_test, s.Plan.predicates) with
          | Axis.Descendant, Some nt, [] -> Some { Scj_engine.Sqlgen.axis = `Descendant; name_test = nt }
          | Axis.Ancestor, Some nt, [] -> Some { Scj_engine.Sqlgen.axis = `Ancestor; name_test = nt }
          | Axis.Following, Some nt, [] -> Some { Scj_engine.Sqlgen.axis = `Following; name_test = nt }
          | Axis.Preceding, Some nt, [] -> Some { Scj_engine.Sqlgen.axis = `Preceding; name_test = nt }
          | _, _, _ -> None)
        steps
    in
    if List.for_all Option.is_some sql_steps then
      Some (Scj_engine.Sqlgen.of_steps (List.filter_map Fun.id sql_steps))
    else None

let plan_header ?context_card session p out =
  out (Printf.sprintf "path: %s\n" (Ast.path_to_string p));
  out (Printf.sprintf "strategy: %s\n" (strategy_to_string session.strategy));
  let logical = compile_path session p in
  let rewritten = Planner.rewrite logical in
  let before = Plan.logical_to_string logical in
  let after = Plan.logical_to_string rewritten in
  if not (String.equal before after) then out (Printf.sprintf "rewritten: %s\n" after);
  let context_card =
    if p.Ast.absolute then 1 else match context_card with Some c -> c | None -> 1
  in
  (rewritten, Planner.plan session.catalog (policy_of_strategy session.strategy) ~context_card rewritten)

let explain ?context session (p : Ast.path) =
  let buf = Buffer.create 512 in
  let out = Buffer.add_string buf in
  let context_card = Option.map Nodeseq.length context in
  let rewritten, phys = plan_header ?context_card session p out in
  out "plan:\n";
  String.split_on_char '\n' (Plan.physical_to_string phys)
  |> List.iter (fun line -> if line <> "" then out ("  " ^ line ^ "\n"));
  (match sql_appendix rewritten with
  | Some sql -> out (Printf.sprintf "\nequivalent pure-SQL translation (§2.1):\n%s\n" sql)
  | None -> ());
  Buffer.contents buf

let plan_json ?context_card session (p : Ast.path) =
  let phys =
    plan_of_path session p ~context_card:(match context_card with Some c -> c | None -> 1)
  in
  let guide_section =
    let enabled = match session.strategy.backend with `Auto_flat -> false | `Auto | `Force _ -> true in
    let notes =
      Plan.physical_guide_notes phys
      |> List.map (fun (step, note) ->
             Printf.sprintf "{\"step\":\"%s\",\"note\":\"%s\"}" (Trace.json_escape step)
               (Trace.json_escape note))
      |> String.concat ","
    in
    Printf.sprintf "{\"enabled\":%b,\"steps\":[%s]}" enabled notes
  in
  Printf.sprintf "{\"query\":\"%s\",\"strategy\":\"%s\",\"guide\":%s,\"plan\":%s}"
    (Trace.json_escape (Ast.path_to_string p))
    (Trace.json_escape (strategy_to_string session.strategy))
    guide_section (Plan.physical_to_json phys)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let analyze ?context session (p : Ast.path) =
  let exec = Exec.traced () in
  let trace = match exec.Exec.trace with Some tr -> tr | None -> assert false in
  let context = match context with Some c -> c | None -> default_context session in
  let result =
    Exec.span exec
      ("query: " ^ Ast.path_to_string p)
      (fun () ->
        Exec.annot exec "strategy" (strategy_to_string session.strategy);
        let logical = compile_path session p in
        let rewritten = Planner.rewrite logical in
        let before = Plan.logical_to_string logical in
        let after = Plan.logical_to_string rewritten in
        if not (String.equal before after) then Exec.annot exec "rewritten" after;
        let phys =
          Planner.plan session.catalog
            (policy_of_strategy session.strategy)
            ~context_card:(Nodeseq.length context) rewritten
        in
        Planner.execute session.catalog exec ~context phys)
  in
  (result, trace)

let run ?exec ?context session input =
  match Parse.query input with
  | Ok q -> Ok (eval_query ?exec ?context session q)
  | Error e -> Error (Scj_error.Error.Parse e)

let run_exn ?exec ?context session input =
  match run ?exec ?context session input with
  | Ok r -> r
  | Error e -> invalid_arg ("Eval.run_exn: " ^ Scj_error.Error.to_string e)

(* Carrying a session across a mutation: the catalog evolves (guide
   spliced, statistics and views dropped and refolded from it on first
   use, B+-tree index spliced — see Planner.evolve) and the plan cache
   drops, because cached physical plans hold predicate closures over the
   retired rendition.  The old session must not run queries afterwards —
   its catalog's index now describes the new rendition. *)
let evolve ?paged session (applied : Scj_encoding.Update.applied) =
  let doc = applied.Scj_encoding.Update.doc in
  {
    doc;
    strategy = session.strategy;
    catalog =
      Planner.evolve ?paged session.catalog ~doc ~splice:applied.Scj_encoding.Update.splice
        ~delta:applied.Scj_encoding.Update.delta;
    plans = Hashtbl.create 16;
  }
