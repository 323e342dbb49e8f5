(** The XPath front-end of the planned evaluation stack.

    A path is compiled into the logical plan IR of {!Scj_plan.Plan},
    rewritten ({!Scj_plan.Planner.rewrite} — step fusion, prune hoisting,
    predicate reordering), and lowered by the cost-based planner into a
    physical operator tree that names the join backend and extent of
    every partitioning step (under Auto the serial staircase over the
    document, a tag fragment or a guide path partition; forced, the
    serial staircase in any skip mode, the morsel and paged staircase
    variants, the Fig.-3 B+-tree/SQL plan, MPMGJN, structural join, or
    naive region queries).  {!eval_path} executes
    that tree; {!explain}, {!plan_json} and {!analyze} render the very
    same tree, so EXPLAIN always shows what runs.

    This module keeps what is XPath-specific: the parser-facing API, the
    XPath 1.0 value model (node-set/boolean/number/string coercions and
    the core function library) that predicate closures evaluate — and
    that the value filters of transparent predicate forms
    ({!Scj_plan.Plan.form}) call — and the Ast → logical compiler.
    Everything strategy-like lives in the planner. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Plan = Scj_plan.Plan
module Planner = Scj_plan.Planner

(** How the planner picks the join backend: [`Auto] runs the serial
    staircase over the cheaper extent of each descendant and ancestor
    step, the document or the step's partition; [`Auto_flat] is
    [`Auto] without dataguide cursors — cardinalities come from flat
    {!Scj_guide.Doc_stats} alone (the ablation baseline for the path
    summary) and a step's partition is its tag fragment; [`Force b]
    pins one backend for all partitioning steps (the §4.4 ablation
    harness).  [pushdown] controls the partition rewrite: [`Cost_based]
    compares the partition's size against the estimated un-pushed
    scan. *)
type strategy = {
  backend : [ `Auto | `Auto_flat | `Force of Plan.backend ];
  pushdown : [ `Never | `Always | `Cost_based ];
}

(** Cost-based backend choice and pushdown. *)
val default_strategy : strategy

val strategy_to_string : strategy -> string

(** CLI spellings accepted by {!strategy_of_string}: [auto], [auto-flat],
    [staircase], [staircase-noskip]/[-skip]/[-estimate]/[-exact],
    [morsel], [paged], [sql], [sql-nodelimiter], [mpmgjn], [structjoin],
    [naive]. *)
val strategy_names : string list

val strategy_of_string : string -> strategy option

(** A session owns the planner catalog for one document: memoized
    statistics, tag and partition views, the B+-tree index, and the plan
    cache.  [paged] attaches a buffer-pool rendition so the paged
    staircase backend becomes plannable; [guide] seeds the catalog's
    dataguide (e.g. one a store deserialized) instead of the lazy
    first-use build. *)
type session

val session :
  ?strategy:strategy -> ?paged:Scj_pager.Paged_doc.t -> ?guide:Scj_guide.Guide.t -> Doc.t -> session

val doc_of_session : session -> Doc.t

(** The planner catalog behind the session, for direct planner access. *)
val catalog_of_session : session -> Planner.t

(** The strategy the session plans under — what front-end compilers
    (e.g. {!Scj_xquery.Xq_compile}) put in plan headers and cache
    keys. *)
val strategy_of_session : session -> strategy

(** [evolve ?paged session applied] carries the session across a
    mutation: the catalog evolves incrementally ({!Planner.evolve} —
    dataguide spliced, statistics and partition views dropped and
    refolded from it on first use, B+-tree index spliced) and the plan
    cache is discarded (cached plans close over the retired rendition).
    [paged] attaches the new rendition's pool.  Ownership transfer: the
    old session must not run queries after [evolve].  ({!Scj_db.Db.apply}
    evolves the handle's own session this way; the query service instead
    opens a fresh session over each committed rendition's shared
    guide.) *)
val evolve : ?paged:Scj_pager.Paged_doc.t -> session -> Scj_encoding.Update.applied -> session

(** [step ?exec session context s] evaluates one axis step (node test and
    predicates included) through the planner.  The {!Scj_trace.Exec.t}
    carries the work counters and the optional tracer; when tracing is
    on, the step's operator opens one span annotated with the chosen
    backend, the pushdown decision, the partition count, the estimates
    and the in/out cardinalities. *)
val step : ?exec:Scj_trace.Exec.t -> session -> Nodeseq.t -> Ast.step -> Nodeseq.t

(** [eval_path ?exec ?context session path] plans (once, cached) and
    executes a full path.  The default context is the document root (as a
    singleton sequence); an absolute path resets the context to the root
    regardless. *)
val eval_path :
  ?exec:Scj_trace.Exec.t -> ?context:Nodeseq.t -> session -> Ast.path -> Nodeseq.t

(** [eval_query] unions the member paths' results. *)
val eval_query :
  ?exec:Scj_trace.Exec.t -> ?context:Nodeseq.t -> session -> Ast.query -> Nodeseq.t

(** [run ?exec ?context session input] parses and evaluates [input].
    Syntax errors come back as {!Scj_error.Error.Parse}. *)
val run :
  ?exec:Scj_trace.Exec.t ->
  ?context:Nodeseq.t ->
  session ->
  string ->
  (Nodeseq.t, Scj_error.Error.t) result

(** [run_exn session input] is {!run}, raising [Invalid_argument] on a
    syntax error. *)
val run_exn :
  ?exec:Scj_trace.Exec.t -> ?context:Nodeseq.t -> session -> string -> Nodeseq.t

(** {1 Plans}

    The physical plan a path will execute — the exact tree
    {!eval_path} interprets (same cache). *)

val path_plan : ?context_card:int -> session -> Ast.path -> Plan.physical

(** [explain session path] — EXPLAIN without running: the path, the
    strategy, the rewritten form (when a rewrite fired), the physical
    plan tree with per-step backend choices, pushdown decisions, cost
    estimates and rejected alternatives, and — when the whole path is
    predicate-free partitioning steps — the equivalent §2.1 SQL
    translation. *)
val explain : ?context:Nodeseq.t -> session -> Ast.path -> string

(** [plan_json session path] — the same plan as one JSON object
    ([scj plan --json]). *)
val plan_json : ?context_card:int -> session -> Ast.path -> string

(** [analyze ?context session path] is EXPLAIN ANALYZE: the path is
    planned and executed once under a fresh tracing
    {!Scj_trace.Exec.t}, and the resulting node sequence is returned
    together with the trace — one span per plan operator (nested
    predicate paths included), each carrying wall-clock time, the
    {!Scj_stats.Stats} delta of the work done inside it, and the plan
    annotations (backend, pushdown, estimates).  The span tree mirrors
    {!path_plan} one-to-one.  Render with {!Scj_trace.Trace.pp_tree} or
    serialize with {!Scj_trace.Trace.to_json}. *)
val analyze : ?context:Nodeseq.t -> session -> Ast.path -> Nodeseq.t * Scj_trace.Trace.t
