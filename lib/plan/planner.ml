module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Exec = Scj_trace.Exec
module Doc_stats = Scj_guide.Doc_stats
module Sj = Scj_core.Staircase
module Axis = Scj_encoding.Axis
module Int_col = Scj_bat.Int_col
module Stats = Scj_stats.Stats
module Morsel_join = Scj_frag.Morsel
module Paged_doc = Scj_pager.Paged_doc
module Naive_join = Scj_engine.Naive
module Sql_plan = Scj_engine.Sql_plan
module Mpmgjn_join = Scj_engine.Mpmgjn
module Structjoin_join = Scj_engine.Structjoin
module Guide = Scj_guide.Guide
open Plan

(* ------------------------------------------------------------------ *)
(* catalog                                                              *)
(* ------------------------------------------------------------------ *)

type t = {
  cat_doc : Doc.t;
  paged : Paged_doc.t option;
  views : (int list, Sj.View.t) Hashtbl.t;
  mutable dstats : Doc_stats.t option;
  mutable cat_guide : Guide.t option;
  mutable index : Sql_plan.index option;
}

let catalog ?paged ?guide doc =
  {
    cat_doc = doc;
    paged;
    views = Hashtbl.create 16;
    dstats = None;
    cat_guide = guide;
    index = None;
  }

let doc t = t.cat_doc

(* Carry a catalog across a mutation (see Update.applied): the guide is
   splice-maintained, the B+-tree index is spliced key-by-key instead of
   rebuilt, and the statistics and partition views — derived from the
   guide — are dropped for lazy rebuild.  Ownership of the mutable index
   transfers to the new catalog: the old one must not serve queries
   afterwards. *)
let evolve ?paged t ~doc ~splice ~delta =
  let cat_guide =
    Option.map (fun g -> Guide.update g ~old_doc:t.cat_doc ~doc ~splice ~delta) t.cat_guide
  in
  let index =
    match t.index with
    | None -> None
    | Some idx ->
      Sql_plan.maintain idx ~old_doc:t.cat_doc ~doc ~splice ~delta;
      Some idx
  in
  { cat_doc = doc; paged; views = Hashtbl.create 16; dstats = None; cat_guide; index }

let guide t =
  match t.cat_guide with
  | Some g -> g
  | None ->
    let g = Guide.build t.cat_doc in
    t.cat_guide <- Some g;
    g

let doc_stats t =
  match t.dstats with
  | Some s -> s
  | None ->
    let s = Doc_stats.of_guide (guide t) t.cat_doc in
    t.dstats <- Some s;
    s

(* The partition of sorted summary ids — a tag's or attribute name's
   fragment, or a guide cursor's paths — as a staircase-join view, built
   on first use. *)
let view t ids =
  match Hashtbl.find_opt t.views ids with
  | Some v -> v
  | None ->
    let v = Sj.View.of_nodeseq t.cat_doc (Guide.members (guide t) ids) in
    Hashtbl.add t.views ids v;
    v

let sql_index t =
  match t.index with
  | Some idx -> idx
  | None ->
    let idx = Sql_plan.build_index t.cat_doc in
    t.index <- Some idx;
    idx

(* ------------------------------------------------------------------ *)
(* policy                                                               *)
(* ------------------------------------------------------------------ *)

type choice = Auto | Force of Plan.backend

type pushdown = [ `Never | `Always | `Cost_based ]

type policy = { choice : choice; pushdown : pushdown; guide : bool }

let default_policy = { choice = Auto; pushdown = `Cost_based; guide = true }

(* The guide participates only where it cannot destabilize a forced
   choice: cost-based planning, when the policy enables it. *)
let guide_active p = p.choice = Auto && p.guide

let policy_to_string p =
  let alg =
    match p.choice with
    | Auto -> if p.guide then "auto" else "auto-flat"
    | Force (Serial mode) -> "staircase/" ^ Exec.skip_mode_to_string mode
    | Force (Morsel mode) -> "morsel/" ^ Exec.skip_mode_to_string mode
    | Force Paged -> "paged"
    | Force (Btree { delimiter }) -> if delimiter then "sql+delimiter" else "sql"
    | Force Mpmgjn -> "mpmgjn"
    | Force Structjoin -> "structjoin"
    | Force Naive -> "naive"
  in
  let pd =
    match p.pushdown with `Never -> "never" | `Always -> "always" | `Cost_based -> "cost"
  in
  Printf.sprintf "%s(pushdown=%s)" alg pd

(* ------------------------------------------------------------------ *)
(* logical rewrites                                                     *)
(* ------------------------------------------------------------------ *)

let rec unchain = function
  | L_step (input, s) ->
    let base, steps = unchain input in
    (base, steps @ [ s ])
  | (L_source _ | L_union _) as base -> (base, [])

let rechain base steps = List.fold_left (fun acc s -> L_step (acc, s)) base steps

(* the '//' abbreviation inserts this bridge step *)
let is_bridge s = s.axis = Axis.Descendant_or_self && s.test = Any_node && s.predicates = []

let is_self_noop s = s.axis = Axis.Self && s.test = Any_node && s.predicates = []

let positional_step s = List.exists (fun p -> p.positional) s.predicates

(* Step fusion and prune hoisting over one step chain.  Both rules need
   the step after the bridge to be position-free: proximity positions in
   the original are relative to each expanded context node, in the fused
   form to the whole descendant set. *)
let rec fuse steps =
  match steps with
  | [] -> []
  | s :: rest when is_self_noop s -> fuse rest
  | b :: rest when is_bridge b -> (
    match fuse rest with
    | next :: tail when next.axis = Axis.Child && not (positional_step next) ->
      (* descendant-or-self::node()/child::T = descendant::T *)
      { next with axis = Axis.Descendant } :: tail
    | next :: tail
      when (next.axis = Axis.Descendant || next.axis = Axis.Descendant_or_self)
           && not (positional_step next) ->
      (* Algorithm-1 pruning of the expanded context recovers the original
         staircase: desc(ctx ∪ desc ctx) = desc ctx — drop the bridge *)
      next :: tail
    | fused -> b :: fused)
  | s :: rest -> s :: fuse rest

(* Cheapest predicate first; sound only when no predicate is positional
   (positions are recomputed after each positional filter). *)
let reorder_predicates s =
  match s.predicates with
  | [] | [ _ ] -> s
  | preds when List.exists (fun p -> p.positional) preds -> s
  | preds -> { s with predicates = List.stable_sort (fun a b -> compare a.rank b.rank) preds }

(* The paths of a transparent predicate get the chain's step fusion. *)
let rec fuse_form = function
  | Exists steps -> Exists (fuse steps)
  | Value (steps, keep) -> Value (fuse steps, keep)
  | And (a, b) -> And (fuse_form a, fuse_form b)
  | Or (a, b) -> Or (fuse_form a, fuse_form b)
  | Not a -> Not (fuse_form a)

let fuse_predicate_forms s =
  {
    s with
    predicates = List.map (fun p -> { p with form = Option.map fuse_form p.form }) s.predicates;
  }

let rewrite l =
  let rec go l =
    match l with
    | L_source _ -> l
    | L_union ls -> L_union (List.map go ls)
    | L_step _ -> (
      let base, steps = unchain l in
      let base = match base with L_union ls -> L_union (List.map go ls) | b -> b in
      let steps = List.map (fun s -> reorder_predicates (fuse_predicate_forms s)) (fuse steps) in
      match (base, steps) with
      | L_source Document, bridge :: next :: rest when is_bridge bridge && next.axis = Axis.Child
        ->
        (* absolute '//x' with positional predicates (the position-free form
           fused above): the root element is a child of the document node,
           so it joins the result via an explicit union branch *)
        let via_children = L_step (L_step (base, bridge), next) in
        let via_root = L_step (L_source Root, { next with axis = Axis.Self }) in
        rechain (L_union [ via_children; via_root ]) rest
      | _ -> rechain base steps)
  in
  go l

(* ------------------------------------------------------------------ *)
(* cost model                                                           *)
(* ------------------------------------------------------------------ *)

(* What the planner knows about a context sequence before running it.
   [gcur] is the dataguide cursor covering the context (every context
   node's root path is a cursor path — a superset invariant the steps
   preserve); [gexact] additionally promises the context is {e exactly}
   the cursor's member set, which makes downstream downward-step
   cardinalities exact.  [gcur = None] means the guide is off or the
   chain passed through a step it cannot match. *)
type summary = {
  card : int;
  tag : string option;
  at_root : bool;
  gcur : Guide.cursor option;
  gexact : bool;
}

let scaled total part whole =
  if whole <= 0 then 0 else if part >= whole then total else total * part / whole

(* Estimated nodes the un-pushed join touches — the Equation-(1) sum the
   old dynamic estimator computed by actually pruning the context, here
   derived from the per-tag fragment statistics instead. *)
let est_touches (st : Doc_stats.t) sum dir =
  match dir with
  | Desc -> (
    if sum.at_root then st.root_size
    else
      match sum.tag with
      | Some t ->
        let ts = Doc_stats.tag st t in
        scaled ts.subtree_sum sum.card ts.count
      | None ->
        let per = if st.n_elements = 0 then 0 else st.element_subtree_sum / st.n_elements in
        min st.n_nodes (sum.card * max 1 per))
  | Anc -> (
    if sum.at_root then 0
    else
      match sum.tag with
      | Some t ->
        let ts = Doc_stats.tag st t in
        scaled ts.level_sum sum.card ts.count
      | None ->
        let per =
          if st.n_elements = 0 then max 1 st.height
          else max 1 (st.element_level_sum / st.n_elements)
        in
        min st.n_nodes (sum.card * per))
  | Following | Preceding -> st.root_size

(* How many document nodes can possibly satisfy the node test. *)
let test_cap (st : Doc_stats.t) axis test =
  match test with
  | Name n -> if axis = Axis.Attribute then st.n_attributes else (Doc_stats.tag st n).count
  | Wildcard -> if axis = Axis.Attribute then st.n_attributes else st.n_elements
  | Any_node -> st.n_nodes
  | Text_node -> st.n_texts
  | Comment_node -> st.n_comments
  | Pi_node _ -> st.n_pis

let out_tag sum (s : step) =
  match s.test with
  | Name n when s.axis <> Axis.Attribute -> Some n
  | Any_node when s.axis = Axis.Self -> sum.tag
  | Name _ | Wildcard | Any_node | Text_node | Comment_node | Pi_node _ -> None

let log2 x = log (max 2. x) /. log 2.

(* ------------------------------------------------------------------ *)
(* physical planning                                                    *)
(* ------------------------------------------------------------------ *)

let empty_step sum s ~per_node =
  {
    step = s;
    impl = Empty_result;
    est = { card_in = sum.card; touches = 0; card_out = 0; cost = 0. };
    alternatives = [];
    push_note = None;
    guide_note = None;
    per_node;
    semijoin = false;
    pred_note = None;
  }

(* Where the kernel can apply the step's node test itself (Auto only):
   the descendant, following and preceding kernels take any test but
   node(), which their joins already are; every node the ancestor join
   emits is an element, so [*] needs no filter there. *)
let kernel_note dir test =
  match (dir, test) with
  | (Desc | Following | Preceding), Any_node -> None
  | (Desc | Following | Preceding), (Name _ | Wildcard | Text_node | Comment_node | Pi_node _) ->
    Some "node test in the join kernel"
  | Anc, Wildcard -> Some "every ancestor is an element"
  | Anc, (Name _ | Any_node | Text_node | Comment_node | Pi_node _) -> None

(* Pushdown: a partition of [size] nodes cheaper than the estimated scan
   replaces the post-join filter.  Where the kernel can test ([kernel]),
   the test runs inside the document join instead of after it, unless
   pushdown is disabled. *)
let push_decision policy ~kernel ~touches candidate =
  let in_kernel = Option.map (fun note -> "yes (" ^ note ^ ")") kernel in
  match (candidate, policy.pushdown, in_kernel) with
  | None, (`Always | `Cost_based), Some note -> (Push_test, Some note)
  | None, _, _ -> (No_push, None)
  | Some (push, size, what), pushdown, _ -> (
    let cmp =
      Printf.sprintf "%s: %d node(s) vs. estimated scan of %d node(s)" what size touches
    in
    match pushdown with
    | `Never -> (No_push, Some "no (disabled)")
    | `Cost_based when size >= touches -> (
      match in_kernel with
      | Some note -> (Push_test, Some (note ^ " -- " ^ cmp))
      | None -> (No_push, Some ("no (filter after the join) -- " ^ cmp)))
    | `Always | `Cost_based -> (push, Some ("yes (join over the fragment) -- " ^ cmp)))

(* The step's partition: the guide cursor's paths when the guide tracks
   the context ([gpart]), else every path of the step's tag — its tag
   fragment, of which a cursor's partition is a subset. *)
let partition cat (s : step) ~gpart =
  match (gpart, s.test) with
  | Some cur, _ ->
    Some (Push_paths (Guide.cursor_ids cur), Guide.card (guide cat) cur, "guide partition")
  | None, Name tag ->
    let ts = Doc_stats.tag (doc_stats cat) tag in
    Some (Push_paths ts.paths, ts.count, Printf.sprintf "tag fragment '%s'" tag)
  | None, (Wildcard | Any_node | Text_node | Comment_node | Pi_node _) -> None

(* Plans the step's join; the returned cardinality is the candidate
   count, before the step's predicates. *)
let plan_join cat policy sum (s : step) ~dir ~or_self ~per_node ~cap ~gpart =
  let st = doc_stats cat in
  let candidate = partition cat s ~gpart in
  let size = match candidate with Some (_, size, _) -> size | None -> 0 in
  match dir with
  | Following | Preceding ->
    (* the context prunes to a single region query (§3.1); the §4.4
       baselines are descendant/ancestor algorithms, so only the naive
       per-context-node scan is a meaningful alternative.  Under Auto a
       tag fragment smaller than the region replaces the region scan;
       forced backends keep it, and so stay oracles of the view kernels *)
    let touches = st.root_size in
    let backend = match policy.choice with Force Naive -> Naive | Force _ | Auto -> Serial Exec.Estimation in
    let push, push_note =
      match policy.choice with
      | Auto -> push_decision policy ~kernel:(kernel_note dir s.test) ~touches candidate
      | Force _ -> (No_push, None)
    in
    let cost =
      match (backend, push) with
      | Naive, _ -> float_of_int sum.card *. float_of_int st.n_nodes
      | _, Push_paths _ -> float_of_int size
      | (Serial _ | Morsel _ | Paged | Btree _ | Mpmgjn | Structjoin), (No_push | Push_test) ->
        float_of_int touches
    in
    let out = min cap touches in
    ( {
        step = s;
        impl = Join { dir; or_self; backend; push };
        est = { card_in = sum.card; touches; card_out = out; cost };
        alternatives = [];
        push_note;
        guide_note = None;
        per_node;
        semijoin = false;
        pred_note = None;
      },
      out )
  | Desc | Anc ->
    let touches = est_touches st sum dir in
    let n = float_of_int st.n_nodes in
    let kf = float_of_int sum.card in
    let tf = float_of_int touches in
    let tail = kf *. float_of_int (max 1 st.height) in
    let scan mode = (match mode with Exec.No_skipping -> n | _ -> tf) +. tail in
    let push, push_note =
      push_decision policy
        ~kernel:(if policy.choice = Auto then kernel_note dir s.test else None)
        ~touches candidate
    in
    let serial_cost mode =
      match push with Push_paths _ -> float_of_int size +. tail | No_push | Push_test -> scan mode
    in
    let backend, cost, alternatives, push, push_note =
      match policy.choice with
      | Force b ->
        let cost =
          match b with
          | Serial mode -> serial_cost mode
          | Morsel mode -> scan mode
          | Paged -> 4. *. serial_cost Exec.Estimation
          | Btree _ -> (kf *. log2 n) +. (2. *. tf) +. (tf *. log2 tf)
          | Mpmgjn | Structjoin -> n +. tf
          | Naive -> kf *. n
        in
        let push, push_note =
          match b with Serial _ -> (push, push_note) | _ -> (No_push, None)
        in
        (b, cost, [], push, push_note)
      | Auto ->
        (* One kernel, the serial staircase in estimation mode; only its
           extent is chosen — the document or the step's partition
           (DESIGN.md, Planning). *)
        let rejected =
          match (push, candidate) with
          | Push_paths _, _ -> [ ("document", scan Exec.Estimation) ]
          | (No_push | Push_test), Some (_, _, what) when policy.pushdown <> `Never ->
            [ (what, float_of_int size +. tail) ]
          | (No_push | Push_test), (Some _ | None) -> []
        in
        (Serial Exec.Estimation, serial_cost Exec.Estimation, rejected, push, push_note)
    in
    let out =
      let join_out = min cap touches in
      let self_out = if or_self then min sum.card cap else 0 in
      min cap (join_out + self_out)
    in
    ( {
        step = s;
        impl = Join { dir; or_self; backend; push };
        est = { card_in = sum.card; touches; card_out = out; cost };
        alternatives;
        push_note;
        guide_note = None;
        per_node;
        semijoin = false;
        pred_note = None;
      },
      out )

let plan_structural (st : Doc_stats.t) sum (s : step) ~per_node ~cap =
  let fanout =
    if st.n_elements = 0 then 1 else max 1 ((st.n_nodes - st.n_attributes) / st.n_elements)
  in
  let touches, out_bound =
    match s.axis with
    | Axis.Child | Axis.Following_sibling | Axis.Preceding_sibling ->
      (sum.card * fanout, sum.card * fanout)
    | Axis.Attribute ->
      let per = if st.n_elements = 0 then 0 else max 1 (st.n_attributes / st.n_elements) in
      (sum.card * (per + 1), sum.card * per)
    | Axis.Parent -> (sum.card, min sum.card (st.n_elements + 1))
    | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Descendant | Axis.Descendant_or_self
    | Axis.Following | Axis.Namespace | Axis.Preceding | Axis.Self ->
      (sum.card, sum.card)
  in
  let touches = min st.n_nodes touches in
  let out = min cap (min st.n_nodes out_bound) in
  ( {
      step = s;
      impl = Structural;
      est = { card_in = sum.card; touches; card_out = out; cost = float_of_int touches };
      alternatives = [];
      push_note = None;
      guide_note = None;
      per_node;
      semijoin = false;
      pred_note = None;
    },
    out )

(* Advance the dataguide cursor through one step.  [None] = the step is
   outside the guide's vocabulary (wildcards, node-kind residue, the
   sibling/following axes) — the chain falls back to flat statistics
   from here on. *)
let guide_advance g cur (s : step) =
  match (s.axis, s.test) with
  | Axis.Self, Any_node -> Some cur
  | Axis.Self, Name n -> Some (Guide.self_step g cur ~kind:Doc.Element ~name:n)
  | Axis.Child, Name n -> Some (Guide.child_step g cur ~kind:Doc.Element ~name:n)
  | Axis.Child, Text_node -> Some (Guide.child_step g cur ~kind:Doc.Text ~name:"")
  | Axis.Attribute, Name n -> Some (Guide.child_step g cur ~kind:Doc.Attribute ~name:n)
  | (Axis.Descendant | Axis.Descendant_or_self), Name n ->
    Some (Guide.descendant_step g ~or_self:(s.axis = Axis.Descendant_or_self) cur ~name:n)
  | (Axis.Ancestor | Axis.Ancestor_or_self), Name n ->
    Some (Guide.ancestor_step g ~or_self:(s.axis = Axis.Ancestor_or_self) cur ~name:n)
  | _ -> None

(* Steps whose guide image is the exact result path set (given an exact
   context): the downward axes.  Ancestor steps only bound from above —
   a prefix-path node need not have a descendant on the full path. *)
let guide_step_exact (s : step) =
  match s.axis with
  | Axis.Self | Axis.Child | Axis.Attribute | Axis.Descendant | Axis.Descendant_or_self -> true
  | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Following | Axis.Following_sibling
  | Axis.Namespace | Axis.Parent | Axis.Preceding | Axis.Preceding_sibling ->
    false

(* ------------------------------------------------------------------ *)
(* predicates: semijoin or per-node evaluation                          *)
(* ------------------------------------------------------------------ *)

(* What one per-node predicate evaluation costs beyond its path's own
   join, in units of a semijoin's per-node work: the plan-cache lookup,
   the singleton context, operator dispatch and the closure call.  A
   value filter reads each fragment node's string value, which costs
   [value_filter_cost] units a node.  DESIGN.md (Planning) records the
   measurement behind both. *)
let per_eval_cost = 70.

let value_filter_cost = 8.

let rec leaves = function
  | (Exists _ | Value _) as leaf -> [ leaf ]
  | And (a, b) | Or (a, b) -> leaves a @ leaves b
  | Not a -> leaves a

(* A semijoin reads one fragment per step — the elements of the step's
   name, or its attributes on the attribute axis — so every step must
   carry a name test. *)
let semijoinable form =
  List.for_all
    (function
      | Exists steps | Value (steps, _) ->
        List.for_all (fun (s : step) -> match s.test with Name _ -> true | _ -> false) steps
      | And _ | Or _ | Not _ -> true)
    (leaves form)

(* The statistics of a named step's fragment: the attributes of that
   name on the attribute axis, the elements elsewhere. *)
let name_stats cat (s : step) name =
  let st = doc_stats cat in
  if s.axis = Axis.Attribute then Doc_stats.attribute st name else Doc_stats.tag st name

let fragment_size cat (s : step) =
  match s.test with
  | Name n -> Some (name_stats cat s n).count
  | Wildcard | Any_node | Text_node | Comment_node | Pi_node _ -> None

(* Candidates the form can keep: one with a match needs a node of the
   path's first fragment below it. *)
let rec form_card cat cands = function
  | Exists [] | Value ([], _) -> cands
  | Exists (s :: _) | Value (s :: _, _) -> (
    match fragment_size cat s with Some n -> min cands n | None -> cands)
  | And (a, b) -> min (form_card cat cands a) (form_card cat cands b)
  | Or (a, b) -> min cands (form_card cat cands a + form_card cat cands b)
  | Not _ -> cands

let rec plan_step cat policy ~semijoins sum (s : step) ~forced_empty =
  let st = doc_stats cat in
  let per_node = List.exists (fun p -> p.positional) s.predicates in
  let cap = test_cap st s.axis s.test in
  (* dataguide: advance the cursor, derive the cardinality bound *)
  let gnext =
    match sum.gcur with
    | None -> None
    | Some cur -> guide_advance (guide cat) cur s
  in
  let gexact_cands = sum.gexact && guide_step_exact s in
  let gexact_out = gexact_cands && s.predicates = [] in
  let gcard = match gnext with Some cur -> Some (Guide.card (guide cat) cur) | None -> None in
  let cap = match gcard with Some c -> min cap c | None -> cap in
  let statically_empty =
    match gnext with Some cur -> Guide.is_empty cur | None -> false
  in
  let guide_note =
    if forced_empty || s.axis = Axis.Namespace then None
    else
      match (sum.gcur, gnext) with
      | None, _ -> None
      | Some _, None -> Some "fallback to flat statistics (step outside the path summary)"
      | Some _, Some cur when Guide.is_empty cur ->
        Some "statically empty -- no document path matches"
      | Some _, Some cur ->
        let g = guide cat in
        let c = Guide.card g cur in
        let np = Guide.cursor_size cur in
        if gexact_out then Some (Printf.sprintf "exact card=%d over %d path(s)" c np)
        else Some (Printf.sprintf "upper bound card<=%d over %d path(s)" c np)
  in
  (* Under Auto, a kind test no element passes leaves an ancestor step
     nothing (every node the ancestor join emits is an element) and an
     ancestor-or-self step its self part. *)
  let no_ancestor_passes =
    policy.choice = Auto
    && (s.axis = Axis.Ancestor || s.axis = Axis.Ancestor_or_self)
    &&
    match s.test with
    | Text_node | Comment_node | Pi_node _ -> true
    | Name _ | Wildcard | Any_node -> false
  in
  let select_self () =
    let out = min sum.card cap in
    ( {
        step = s;
        impl = Select_self;
        est =
          { card_in = sum.card; touches = sum.card; card_out = out; cost = float_of_int sum.card };
        alternatives = [];
        push_note = None;
        guide_note = None;
        per_node;
        semijoin = false;
        pred_note = None;
      },
      out )
  in
  let ps, cands =
    if
      forced_empty || s.axis = Axis.Namespace || statically_empty
      || (no_ancestor_passes && s.axis = Axis.Ancestor)
    then (empty_step sum s ~per_node, 0)
    else
      match s.axis with
      | Axis.Self -> select_self ()
      | Axis.Ancestor_or_self when no_ancestor_passes -> select_self ()
      | Axis.Child | Axis.Attribute | Axis.Parent | Axis.Following_sibling
      | Axis.Preceding_sibling ->
        plan_structural st sum s ~per_node ~cap
      | Axis.Descendant ->
        plan_join cat policy sum s ~dir:Desc ~or_self:false ~per_node ~cap ~gpart:gnext
      | Axis.Descendant_or_self ->
        plan_join cat policy sum s ~dir:Desc ~or_self:true ~per_node ~cap ~gpart:gnext
      | Axis.Ancestor ->
        plan_join cat policy sum s ~dir:Anc ~or_self:false ~per_node ~cap ~gpart:gnext
      | Axis.Ancestor_or_self ->
        plan_join cat policy sum s ~dir:Anc ~or_self:true ~per_node ~cap ~gpart:gnext
      | Axis.Following ->
        plan_join cat policy sum s ~dir:Following ~or_self:false ~per_node ~cap ~gpart:None
      | Axis.Preceding ->
        plan_join cat policy sum s ~dir:Preceding ~or_self:false ~per_node ~cap ~gpart:None
      | Axis.Namespace -> assert false
  in
  let tag = out_tag sum s in
  let ps, out =
    match (ps.impl, gcard) with
    | Empty_result, _ -> (ps, cands)
    | (Join _ | Structural | Select_self), _ when s.predicates <> [] ->
      (* under Auto an exact cursor pins the candidates, too *)
      let cands =
        match gcard with
        | Some c when gexact_cands && policy.choice = Auto -> c
        | Some _ | None -> cands
      in
      plan_predicates cat policy ~semijoins ~tag ps cands
    (* an exact cursor pins the output cardinality to the member count *)
    | (Join _ | Structural | Select_self), Some c when gexact_out ->
      ({ ps with est = { ps.est with card_out = c } }, c)
    | (Join _ | Structural | Select_self), (Some _ | None) -> (ps, cands)
  in
  let ps = { ps with guide_note } in
  let at_root = sum.at_root && s.axis = Axis.Self && s.test = Any_node in
  (ps, { card = out; tag; at_root; gcur = gnext; gexact = gexact_out })

(* The planned cost of a predicate path from one candidate node. *)
and path_cost cat policy ~tag steps =
  let one = { card = 1; tag; at_root = false; gcur = None; gexact = false } in
  fst
    (List.fold_left
       (fun (cost, sum) s ->
         let ps, sum = plan_step cat policy ~semijoins:false sum s ~forced_empty:false in
         (cost +. ps.est.cost, sum))
       (0., one) steps)

(* Under Auto a transparent predicate keeps at most as many candidates as
   its path's first fragment can witness; elsewhere a predicate halves
   the candidates.  With [semijoins], the transparent predicates whose
   every step has a fragment run as semijoins when reading the fragments
   (and probing every candidate once per path) undercuts evaluating
   their paths once per candidate. *)
and plan_predicates cat policy ~semijoins ~tag (ps : phys_step) cands =
  let preds = ps.step.predicates in
  let auto = policy.choice = Auto && not ps.per_node in
  let out =
    if auto && List.for_all (fun p -> p.form <> None) preds then
      List.fold_left (fun n p -> Option.fold ~none:n ~some:(form_card cat n) p.form) cands preds
    else if cands <= 1 then cands
    else max 1 (cands / 2)
  in
  let forms =
    if auto && semijoins then
      List.filter_map
        (fun p -> match p.form with Some f when semijoinable f -> Some f | Some _ | None -> None)
        preds
    else []
  in
  let semijoin, pred_note =
    match List.concat_map leaves forms with
    | [] -> (false, None)
    | leaves ->
      let c = float_of_int cands in
      let size s = Option.value ~default:0 (fragment_size cat s) in
      let path = function Exists steps | Value (steps, _) -> steps | And _ | Or _ | Not _ -> [] in
      (* each leaf reads its path's fragments and probes every candidate;
         a value leaf filters its last fragment (the candidates, for an
         empty path) *)
      let semi_cost =
        List.fold_left
          (fun acc leaf ->
            let sizes = List.map (fun s -> float_of_int (size s)) (path leaf) in
            let filtered = match List.rev sizes with [] -> c | last :: _ -> last in
            let weight = match leaf with Value _ -> value_filter_cost -. 1. | _ -> 0. in
            acc +. c +. List.fold_left ( +. ) 0. sizes +. (weight *. filtered))
          0. leaves
      in
      let node_cost =
        c
        *. List.fold_left
             (fun acc leaf -> acc +. per_eval_cost +. path_cost cat policy ~tag (path leaf))
             0. leaves
      in
      let fragments =
        String.concat ", "
          (List.concat_map
             (fun leaf ->
               List.map (fun s -> Printf.sprintf "%s=%d" (step_to_string s) (size s)) (path leaf))
             leaves)
      in
      let verdict = if semi_cost < node_cost then "yes" else "no (per-node filter)" in
      ( semi_cost < node_cost,
        Some
          (Printf.sprintf "%s -- fragments %s; cost=%.0f vs. per-node cost=%.0f" verdict
             (if fragments = "" then "none" else fragments)
             semi_cost node_cost) )
  in
  ({ ps with est = { ps.est with card_out = out }; semijoin; pred_note }, out)

(* An absolute path starts at the (virtual) document node, which the
   encoding does not materialize; the first step off it is remapped onto
   the root element at plan time (child::T of the document node selects
   the root element itself, descendant(-or-self)::T its or-self closure;
   the remaining axes are statically empty there). *)
let document_remap (s : step) =
  match s.axis with
  | Axis.Child | Axis.Self -> ({ s with axis = Axis.Self }, false)
  | Axis.Descendant | Axis.Descendant_or_self -> ({ s with axis = Axis.Descendant_or_self }, false)
  | Axis.Ancestor_or_self -> ({ s with axis = Axis.Self }, false)
  | Axis.Ancestor | Axis.Attribute | Axis.Following | Axis.Following_sibling | Axis.Namespace
  | Axis.Parent | Axis.Preceding | Axis.Preceding_sibling ->
    (s, true)

let plan cat policy ?(context_card = 1) l =
  let policy =
    match (policy.choice, cat.paged) with
    | Force Paged, None -> { policy with choice = Force (Serial Exec.Estimation) }
    | _ -> policy
  in
  let groot =
    lazy (if guide_active policy then Some (Guide.root_cursor (guide cat)) else None)
  in
  (* A relative path planned for one context node is evaluated once per
     FLWOR row or per candidate of an enclosing predicate: a semijoin
     would read its fragments again on every evaluation. *)
  let rec relative = function
    | L_source Context -> true
    | L_source (Root | Document) -> false
    | L_step (input, _) -> relative input
    | L_union ls -> List.exists relative ls
  in
  let semijoins = not (context_card <= 1 && relative l) in
  let rec go l =
    match l with
    | L_source Root ->
      ( P_source (Root, 1),
        { card = 1; tag = None; at_root = true; gcur = Lazy.force groot; gexact = true } )
    | L_source Document ->
      ( P_source (Document, 1),
        { card = 1; tag = None; at_root = true; gcur = Lazy.force groot; gexact = true } )
    | L_source Context ->
      ( P_source (Context, context_card),
        { card = max 0 context_card; tag = None; at_root = false; gcur = None; gexact = false }
      )
    | L_step (input, s) ->
      let p_in, sum = go input in
      let s, forced_empty =
        match input with L_source Document -> document_remap s | _ -> (s, false)
      in
      let ps, sum' = plan_step cat policy ~semijoins sum s ~forced_empty in
      (P_step (p_in, ps), sum')
    | L_union branches ->
      let planned = List.map go branches in
      let st = doc_stats cat in
      let card =
        min st.n_nodes (List.fold_left (fun acc (_, s) -> acc + s.card) 0 planned)
      in
      let tag =
        match planned with
        | (_, s0) :: rest when List.for_all (fun (_, s) -> s.tag = s0.tag) rest -> s0.tag
        | _ -> None
      in
      (* member sets of distinct summary nodes are disjoint, so the
         cursor union is exact when every branch is *)
      let gcur =
        match planned with
        | [] -> None
        | (_, s0) :: rest ->
          List.fold_left
            (fun acc (_, si) ->
              match (acc, si.gcur) with
              | Some a, Some b -> Some (Guide.cursor_union a b)
              | (None | Some _), _ -> None)
            s0.gcur rest
      in
      let gexact = gcur <> None && List.for_all (fun (_, s) -> s.gexact) planned in
      (P_union (List.map fst planned), { card; tag; at_root = false; gcur; gexact })
  in
  fst (go l)

(* ------------------------------------------------------------------ *)
(* execution                                                            *)
(* ------------------------------------------------------------------ *)

let apply_node_test doc axis test nodes =
  let principal = if axis = Axis.Attribute then Doc.Attribute else Doc.Element in
  let kinds = Doc.kind_array doc in
  match test with
  | Any_node -> nodes
  | Wildcard -> Nodeseq.filter (fun v -> kinds.(v) = principal) nodes
  | Name name -> (
    match Doc.tag_symbol doc name with
    | None -> Nodeseq.empty
    | Some sym -> Nodeseq.filter (fun v -> kinds.(v) = principal && Doc.tag doc v = sym) nodes)
  | Text_node -> Nodeseq.filter (fun v -> kinds.(v) = Doc.Text) nodes
  | Comment_node -> Nodeseq.filter (fun v -> kinds.(v) = Doc.Comment) nodes
  | Pi_node target ->
    Nodeseq.filter
      (fun v ->
        kinds.(v) = Doc.Pi
        &&
        match target with
        | None -> true
        | Some t -> (
          match Doc.tag_name doc v with Some name -> String.equal name t | None -> false))
      nodes

let reverse_axis = function
  | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Preceding | Axis.Preceding_sibling | Axis.Parent
    ->
    true
  | Axis.Attribute | Axis.Child | Axis.Descendant | Axis.Descendant_or_self | Axis.Following
  | Axis.Following_sibling | Axis.Namespace | Axis.Self ->
    false

(* Walk the element children of [c] (attributes skipped) using subtree
   sizes: first child of c sits at c+1, siblings hop by size+1. *)
let iter_children doc stats c f =
  let sizes = Doc.size_array doc in
  let kinds = Doc.kind_array doc in
  let stop = c + sizes.(c) in
  let i = ref (c + 1) in
  while !i <= stop do
    stats.Stats.scanned <- stats.Stats.scanned + 1;
    if kinds.(!i) <> Doc.Attribute then f !i;
    i := !i + sizes.(!i) + 1
  done

let structural_axis cat exec context axis =
  let doc = cat.cat_doc in
  let stats = exec.Exec.stats in
  let sizes = Doc.size_array doc in
  let kinds = Doc.kind_array doc in
  let parents = Doc.parent_array doc in
  let hits = Int_col.create ~capacity:32 () in
  let collect c =
    match axis with
    | Axis.Child -> iter_children doc stats c (Int_col.append_unit hits)
    | Axis.Attribute ->
      let i = ref (c + 1) in
      while !i < Doc.n_nodes doc && kinds.(!i) = Doc.Attribute && parents.(!i) = c do
        stats.Stats.scanned <- stats.Stats.scanned + 1;
        Int_col.append_unit hits !i;
        incr i
      done
    | Axis.Parent -> if parents.(c) >= 0 then Int_col.append_unit hits parents.(c)
    | Axis.Following_sibling ->
      let p = parents.(c) in
      if p >= 0 then begin
        let stop = p + sizes.(p) in
        let i = ref (c + sizes.(c) + 1) in
        while !i <= stop do
          stats.Stats.scanned <- stats.Stats.scanned + 1;
          if kinds.(!i) <> Doc.Attribute then Int_col.append_unit hits !i;
          i := !i + sizes.(!i) + 1
        done
      end
    | Axis.Preceding_sibling ->
      let p = parents.(c) in
      if p >= 0 then iter_children doc stats p (fun v -> if v < c then Int_col.append_unit hits v)
    | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Descendant | Axis.Descendant_or_self
    | Axis.Following | Axis.Namespace | Axis.Preceding | Axis.Self ->
      assert false
  in
  Nodeseq.iter collect context;
  (* child sets of distinct context nodes are disjoint and in document
     order unless context nodes nest; parent and sibling sets may overlap
     — sorted and deduplicated only when out of order *)
  Nodeseq.of_array (Int_col.to_array hits)

(* Run one join; returns the node sequence plus a flag telling the caller
   that the node test was already applied (pushdown). *)
let run_join cat exec ~dir ~backend ~push context =
  let doc = cat.cat_doc in
  match dir with
  | Following -> (
    match (backend, push) with
    | Naive, _ -> (Naive_join.step ~exec doc context Axis.Following, false)
    | _, Push_paths ids -> (Sj.following_view ~exec doc (view cat ids) context, true)
    | (Serial _ | Morsel _ | Paged | Btree _ | Mpmgjn | Structjoin), (No_push | Push_test) ->
      (Sj.following ~exec doc context, false))
  | Preceding -> (
    match (backend, push) with
    | Naive, _ -> (Naive_join.step ~exec doc context Axis.Preceding, false)
    | _, Push_paths ids -> (Sj.preceding_view ~exec doc (view cat ids) context, true)
    | (Serial _ | Morsel _ | Paged | Btree _ | Mpmgjn | Structjoin), (No_push | Push_test) ->
      (Sj.preceding ~exec doc context, false))
  | (Desc | Anc) as dir -> (
    let descending = dir = Desc in
    match backend with
    | Serial mode -> (
      let exec = Exec.with_mode exec mode in
      match push with
      | Push_paths ids ->
        (* partition members all satisfy the step's node test by
           construction — the scan is pre-filtered *)
        ((if descending then Sj.desc_view else Sj.anc_view) ~exec doc (view cat ids) context, true)
      | No_push | Push_test -> ((if descending then Sj.desc else Sj.anc) ~exec doc context, false))
    | Morsel mode ->
      let exec = Exec.with_mode exec mode in
      ((if descending then Morsel_join.desc else Morsel_join.anc) ~exec doc context, false)
    | Paged -> (
      match cat.paged with
      | Some p -> ((if descending then Paged_doc.desc else Paged_doc.anc) ~exec p context, false)
      | None -> ((if descending then Sj.desc else Sj.anc) ~exec doc context, false))
    | Btree { delimiter } ->
      let options = { Sql_plan.delimiter; early_nametest = None } in
      ( Sql_plan.step ~exec ~options (sql_index cat) doc context
          (if descending then `Descendant else `Ancestor),
        false )
    | Mpmgjn -> ((if descending then Mpmgjn_join.desc else Mpmgjn_join.anc) ~exec doc context, false)
    | Structjoin ->
      ((if descending then Structjoin_join.desc else Structjoin_join.anc) ~exec doc context, false)
    | Naive ->
      ( Naive_join.step ~exec doc context (if descending then Axis.Descendant else Axis.Ancestor),
        false ))

(* The node test as the staircase kernel applies it, on a non-attribute
   axis (a name no node carries matches nothing). *)
let kernel_test doc test =
  let named kind name = Sj.Named (kind, Option.value ~default:(-1) (Doc.tag_symbol doc name)) in
  match test with
  | Wildcard -> Sj.Kind Doc.Element
  | Text_node -> Sj.Kind Doc.Text
  | Comment_node -> Sj.Kind Doc.Comment
  | Pi_node None -> Sj.Kind Doc.Pi
  | Pi_node (Some target) -> named Doc.Pi target
  | Name name -> named Doc.Element name
  | Any_node -> invalid_arg "Planner.kernel_test: node() needs no test"

(* A join that applies its node test itself ([Push_test]): the kernels
   write each result once, with the or-self context nodes merged in;
   the ancestor join emits elements only, so [ancestor::*] runs plain. *)
let test_join cat exec ~dir ~or_self ~mode (s : step) context =
  let doc = cat.cat_doc in
  match dir with
  | Desc ->
    Sj.desc_test ~exec:(Exec.with_mode exec mode) ~or_self doc (kernel_test doc s.test) context
  | Following -> Sj.following_test ~exec doc (kernel_test doc s.test) context
  | Preceding -> Sj.preceding_test ~exec doc (kernel_test doc s.test) context
  | Anc ->
    let joined = Sj.anc ~exec:(Exec.with_mode exec mode) doc context in
    if or_self then Nodeseq.union joined (apply_node_test doc s.axis s.test context) else joined

let run_impl cat exec (ps : phys_step) context =
  match ps.impl with
  | Select_self -> (context, false)
  | Empty_result -> (Nodeseq.empty, true)
  | Structural -> (structural_axis cat exec context ps.step.axis, false)
  | Join { dir; or_self; backend = Serial mode; push = Push_test } ->
    (test_join cat exec ~dir ~or_self ~mode ps.step context, true)
  | Join { dir; or_self; backend; push } ->
    let joined, tested = run_join cat exec ~dir ~backend ~push context in
    if not or_self then (joined, tested)
    else
      (* axis-or-self = axis::T ∪ self::T; the join part may have the test
         pushed, the self part always filters the context *)
      let self =
        if tested then apply_node_test cat.cat_doc ps.step.axis ps.step.test context else context
      in
      (Nodeseq.union joined self, tested)

(* ------------------------------------------------------------------ *)
(* semijoins                                                            *)
(* ------------------------------------------------------------------ *)

(* [f], checking for cancellation every 4096 calls — for the filters a
   semijoin runs over whole fragments. *)
let polled exec f =
  let tick = Exec.poller exec in
  fun v ->
    tick ();
    f v

(* The nodes a named step selects anywhere in the document. *)
let fragment cat (s : step) =
  match s.test with
  | Name n -> Sj.View.to_nodeseq (view cat (name_stats cat s n).paths)
  | Wildcard | Any_node | Text_node | Comment_node | Pi_node _ ->
    invalid_arg "Planner.fragment: not a name test"

(* The nodes of [within] with an [axis] step into [targets]. *)
let origins cat exec axis ~within targets =
  let doc = cat.cat_doc and stats = exec.Exec.stats in
  match axis with
  | Axis.Child | Axis.Attribute ->
    let parents = Doc.parent_array doc in
    let t = Nodeseq.unsafe_array targets in
    stats.Stats.scanned <- stats.Stats.scanned + Array.length t;
    (* siblings are adjacent in [targets] unless their subtrees hold
       targets too: dropping repeats on the fly leaves the parents sorted
       in the common case *)
    let ps = Int_col.create ~capacity:(max 1 (Array.length t)) () in
    let last = ref (-1) in
    Array.iter
      (fun v ->
        let p = parents.(v) in
        if p >= 0 && p <> !last then begin
          Int_col.append_unit ps p;
          last := p
        end)
      t;
    Nodeseq.inter within (Nodeseq.of_array (Int_col.to_array ps))
  | Axis.Self -> Nodeseq.inter within targets
  | Axis.Descendant | Axis.Descendant_or_self ->
    (* one forward pre/post merge: u has a match exactly when the first
       target at or after u (after u, for the proper axis) lies in u's
       subtree *)
    let or_self = axis = Axis.Descendant_or_self in
    let sizes = Doc.size_array doc in
    let t = Nodeseq.unsafe_array targets in
    let nt = Array.length t in
    let j = ref 0 in
    Nodeseq.filter
      (polled exec (fun u ->
           stats.Stats.scanned <- stats.Stats.scanned + 1;
           let first = if or_self then u else u + 1 in
           while !j < nt && t.(!j) < first do
             incr j
           done;
           !j < nt && t.(!j) <= u + sizes.(u)))
      within
  | Axis.Ancestor | Axis.Ancestor_or_self | Axis.Following | Axis.Following_sibling
  | Axis.Namespace | Axis.Parent | Axis.Preceding | Axis.Preceding_sibling ->
    invalid_arg "Planner.origins: not a downward axis"

(* The candidates with a node of the path [steps] (passing [keep]): the
   last step's fragment, value-filtered, walked back one step at a time —
   each step keeps the previous step's fragment nodes (finally the
   candidates) with a step into the current set. *)
let semijoin_path cat exec steps keep candidates =
  let stats = exec.Exec.stats in
  let value_filter nodes =
    match keep with
    | None -> nodes
    | Some f ->
      Nodeseq.filter
        (polled exec (fun v ->
             stats.Stats.scanned <- stats.Stats.scanned + 1;
             f v))
        nodes
  in
  let rec walk targets (s : step) = function
    | [] -> origins cat exec s.axis ~within:candidates targets
    | prev :: earlier ->
      Exec.checkpoint exec;
      walk (origins cat exec s.axis ~within:(fragment cat prev) targets) prev earlier
  in
  match List.rev steps with
  | [] -> value_filter candidates
  | last :: earlier -> walk (value_filter (fragment cat last)) last earlier

let rec semijoin cat exec form candidates =
  match form with
  | Exists steps -> semijoin_path cat exec steps None candidates
  | Value (steps, keep) -> semijoin_path cat exec steps (Some keep) candidates
  | And (a, b) -> semijoin cat exec b (semijoin cat exec a candidates)
  | Or (a, b) -> Nodeseq.union (semijoin cat exec a candidates) (semijoin cat exec b candidates)
  | Not a -> Nodeseq.diff candidates (semijoin cat exec a candidates)

(* Per-node predicate closures run untraced under one span, with the same
   counters and cancellation hook: a span per candidate would dwarf the
   query it describes. *)
let per_node_filter exec predicates nodes =
  let evaluations = ref 0 in
  let run exec =
    Nodeseq.filter
      (fun node ->
        List.for_all
          (fun (p : predicate) ->
            incr evaluations;
            p.eval exec ~node ~pos:1 ~last:1)
          predicates)
      nodes
  in
  if not (Exec.tracing exec) then run exec
  else
    Exec.span exec "per-node predicates" (fun () ->
        let result = run { exec with Exec.trace = None } in
        Exec.annot exec "evaluations" (string_of_int !evaluations);
        Exec.annot exec "out" (string_of_int (Nodeseq.length result));
        result)

let filter_predicates cat exec (ps : phys_step) nodes =
  let semijoins, per_node =
    if ps.semijoin then
      List.partition
        (fun (p : predicate) ->
          match p.form with Some f -> semijoinable f | None -> false)
        ps.step.predicates
    else ([], ps.step.predicates)
  in
  let nodes =
    List.fold_left
      (fun nodes (p : predicate) ->
        let form = Option.get p.form in
        if not (Exec.tracing exec) then semijoin cat exec form nodes
        else
          Exec.span exec ("semijoin: [" ^ p.label ^ "]") (fun () ->
              Exec.annot exec "in" (string_of_int (Nodeseq.length nodes));
              let result = semijoin cat exec form nodes in
              Exec.annot exec "out" (string_of_int (Nodeseq.length result));
              result))
      nodes semijoins
  in
  match per_node with [] -> nodes | preds -> per_node_filter exec preds nodes

let exec_step cat exec context (ps : phys_step) =
  let doc = cat.cat_doc in
  let run () =
    if not ps.per_node then begin
      (* set-at-a-time: evaluate the axis for the whole context, filter *)
      let nodes, tested = run_impl cat exec ps context in
      let nodes = if tested then nodes else apply_node_test doc ps.step.axis ps.step.test nodes in
      match ps.step.predicates with [] -> nodes | _ -> filter_predicates cat exec ps nodes
    end
    else begin
      (* positional predicates: XPath proximity positions are relative to
         each context node's own axis result, so evaluate per context
         node; the closures run untraced, counted on the step's span *)
      let pred_exec = { exec with Exec.trace = None } in
      let evaluations = ref 0 in
      let results =
        Nodeseq.fold_left
          (fun acc c ->
            let single = Nodeseq.singleton c in
            let nodes, tested = run_impl cat exec ps single in
            let nodes =
              if tested then nodes else apply_node_test doc ps.step.axis ps.step.test nodes
            in
            let ordered =
              let l = Nodeseq.to_list nodes in
              if reverse_axis ps.step.axis then List.rev l else l
            in
            let kept =
              List.fold_left
                (fun candidates (p : predicate) ->
                  let last = List.length candidates in
                  List.filteri
                    (fun i node ->
                      incr evaluations;
                      p.eval pred_exec ~node ~pos:(i + 1) ~last)
                    candidates)
                ordered ps.step.predicates
            in
            Nodeseq.of_unsorted kept :: acc)
          [] context
      in
      Exec.annot exec "evaluations" (string_of_int !evaluations);
      List.fold_left Nodeseq.union Nodeseq.empty results
    end
  in
  Exec.checkpoint exec;
  if not (Exec.tracing exec) then run ()
  else
    Exec.span exec (step_to_string ps.step) (fun () ->
        Exec.annot exec "in" (string_of_int (Nodeseq.length context));
        (match ps.impl with
        | Join { dir = Following | Preceding; backend = Naive; _ } ->
          Exec.annot exec "algorithm" "naive"
        | Join { dir = Following | Preceding; _ } ->
          Exec.annot exec "algorithm" "pruned single region query (§3.1)"
        | Join { backend; _ } -> Exec.annot exec "algorithm" (backend_to_string backend)
        | Structural -> Exec.annot exec "algorithm" "structural size/parent arithmetic"
        | Select_self -> Exec.annot exec "algorithm" "context filter (self)"
        | Empty_result -> Exec.annot exec "algorithm" "statically empty");
        (match ps.impl with
        | Join { dir = (Desc | Anc) as dir; backend = Serial _ | Morsel _ | Paged; _ } ->
          let partitions =
            match dir with
            | Desc -> Sj.desc_partitions doc context
            | Anc | Following | Preceding -> Sj.anc_partitions doc context
          in
          Exec.annot exec "partitions" (string_of_int (List.length partitions))
        | Join _ | Structural | Select_self | Empty_result -> ());
        (match ps.push_note with
        | Some note -> Exec.annot exec "pushdown" note
        | None -> ());
        (match ps.guide_note with
        | Some note -> Exec.annot exec "guide" note
        | None -> ());
        if ps.step.predicates <> [] then
          Exec.annot exec "predicates"
            (Printf.sprintf "%d (%s)" (List.length ps.step.predicates) (predicate_mode ps));
        (match ps.pred_note with
        | Some note -> Exec.annot exec "semijoin" note
        | None -> ());
        Exec.annot exec "est"
          (Printf.sprintf "in=%d touches=%d out=%d cost=%.0f" ps.est.card_in ps.est.touches
             ps.est.card_out ps.est.cost);
        let result = run () in
        let actual = Nodeseq.length result in
        Exec.annot exec "out" (string_of_int actual);
        (* Q-error of the cardinality estimate: max(est/act, act/est),
           1-floored — the drift metric [scj analyze] aggregates *)
        let e = float_of_int (max 1 ps.est.card_out) in
        let a = float_of_int (max 1 actual) in
        Exec.annot exec "q_error" (Printf.sprintf "%.2f" (Float.max (e /. a) (a /. e)));
        result)

let rec execute cat exec ~context p =
  match p with
  | P_source (Context, _) -> context
  | P_source ((Root | Document), _) -> Nodeseq.singleton (Doc.root cat.cat_doc)
  | P_step (input, ps) ->
    let ctx = execute cat exec ~context input in
    exec_step cat exec ctx ps
  | P_union branches ->
    let run () =
      List.fold_left
        (fun acc b -> Nodeseq.union acc (execute cat exec ~context b))
        Nodeseq.empty branches
    in
    if not (Exec.tracing exec) then run ()
    else
      Exec.span exec "union (doc-order merge)" (fun () ->
          let result = run () in
          Exec.annot exec "out" (string_of_int (Nodeseq.length result));
          result)
