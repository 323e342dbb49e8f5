(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4.4), plus the future-work and CPU-adaptation experiments.

   Usage:
     dune exec bench/main.exe                -- run everything
     dune exec bench/main.exe table1 fig11c  -- run selected experiments
     SCJ_BENCH_SCALES=0.004,0.016 dune exec bench/main.exe

   Experiments (paper artifact -> experiment id):
     Table 1      -> table1      intermediary result sizes of Q1/Q2
     Fig. 11 (a)  -> fig11a      duplicates avoided by the staircase join
     Fig. 11 (b)  -> fig11b      staircase join performance, linearity
     Fig. 11 (c)  -> fig11c      nodes scanned with/without skipping
     Fig. 11 (d)  -> fig11d      effect of skipping on execution time
     Fig. 11 (e)  -> fig11e      Q1: scj vs. early name test vs. SQL plan
     Fig. 11 (f)  -> fig11f      Q2: same comparison
     §6           -> frag        tag-name fragmentation of Q1
     §4.2/4.3     -> copyphase   copy/scan phase composition and bandwidth
     (cpu)        -> copykernel  blit copy kernels vs per-node, 1/2/4 domains
     §5           -> baselines   nodes touched: scj vs MPMGJN/structural/SQL
     (ablation)   -> ablation    skip modes x pushdown policies
     §3.2/§6      -> parallel    partition-parallel staircase join
     (morsel)     -> morsel      morsel scheduler vs serial/parallel, 1-8 workers
     (flwor)      -> flwor       compiled FLWOR value join vs interpreter oracle

   Absolute numbers differ from the paper (OCaml in a container vs. tuned
   C in MonetDB on a 2003 Xeon); the reproduced claims are the *shapes*:
   who wins, by what order of magnitude, and how work scales with document
   size.  See EXPERIMENTS.md for the side-by-side reading. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Axis = Scj_encoding.Axis
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Trace = Scj_trace.Trace
module Sj = Scj_core.Staircase
module Naive = Scj_engine.Naive
module Mpmgjn = Scj_engine.Mpmgjn
module Structjoin = Scj_engine.Structjoin
module Sql_plan = Scj_engine.Sql_plan
module Plan = Scj_plan.Plan
module Eval = Scj_xpath.Eval
module Xmark = Scj_xmlgen.Xmark
module Fragmented = Scj_frag.Fragmented
module Parallel = Scj_frag.Parallel
module Morsel = Scj_frag.Morsel

(* ------------------------------------------------------------------ *)
(* measurement helpers (bechamel)                                       *)
(* ------------------------------------------------------------------ *)

(* When set (--json / --smoke), every experiment and every measurement
   runs inside a span of this tracer; the span tree is emitted as JSON at
   the end — the same span data 'scj analyze' produces. *)
let tracer : Trace.t option ref = ref None

(* Execution context for the measured closures: counters go to the
   tracer's tracked stats, so measurement spans report real work. *)
let bench_exec ?mode ?domains () =
  match !tracer with
  | Some tr -> Exec.make ?mode ?domains ~stats:(Trace.stats tr) ()
  | None -> Exec.make ?mode ?domains ()

(* Estimated nanoseconds per run of [fn], via bechamel's OLS analysis. *)
let measure_ns ~name fn =
  Trace.span !tracer name (fun () ->
      let ns =
        let open Bechamel in
        let test = Test.make ~name (Staged.stage fn) in
        let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None () in
        let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
        let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
        let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
        match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
        | [ result ] -> (
          match Analyze.OLS.estimates result with
          | Some (t :: _) -> t
          | Some [] | None -> Float.nan)
        | _ -> Float.nan
      in
      Trace.annot !tracer "ns_per_run" (Printf.sprintf "%.1f" ns);
      ns)

let ms_of_ns ns = ns /. 1_000_000.0

(* ------------------------------------------------------------------ *)
(* the document sweep                                                   *)
(* ------------------------------------------------------------------ *)

let scale_override : float list option ref = ref None

let scales () =
  match !scale_override with
  | Some s -> s
  | None -> (
    match Sys.getenv_opt "SCJ_BENCH_SCALES" with
    | Some s -> List.map float_of_string (String.split_on_char ',' s)
    | None -> [ 0.004; 0.016; 0.064 ])

let doc_cache : (float, Doc.t) Hashtbl.t = Hashtbl.create 8

let doc_at scale =
  match Hashtbl.find_opt doc_cache scale with
  | Some doc -> doc
  | None ->
    let tree = Xmark.generate (Xmark.config ~scale ()) in
    let doc = Doc.of_tree tree in
    Hashtbl.replace doc_cache scale doc;
    doc

(* approximate serialized size, for paper-style "document size [MB]" *)
let mb_of doc = float_of_int (Doc.n_nodes doc) *. 22.0 /. 1_048_576.0

let tags doc name = Nodeseq.of_sorted_array (Doc.tag_positions doc name)

let root_seq doc = Nodeseq.singleton (Doc.root doc)

let header title = Printf.printf "\n=== %s ===\n" title

let row_format = format_of_string "%10s %12s %12s %12s %12s %12s\n"

(* Q1 steps: /descendant::profile/descendant::education *)
let q1_contexts doc = (root_seq doc, tags doc "profile")

(* Q2 steps: /descendant::increase/ancestor::bidder *)
let q2_contexts doc = (root_seq doc, tags doc "increase")

(* ------------------------------------------------------------------ *)
(* Table 1: intermediary result sizes                                   *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: number of nodes in intermediary results (per document scale)";
  Printf.printf "Q1: /descendant::profile/descendant::education\n";
  Printf.printf row_format "size[MB]" "step1" "profile" "step2" "education" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let root = root_seq doc in
      let step1 = Sj.desc ~exec:(bench_exec ()) doc root in
      let profiles = tags doc "profile" in
      let step2 = Sj.desc ~exec:(bench_exec ()) doc profiles in
      let educations = tags doc "education" in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (string_of_int (Nodeseq.length step1))
        (string_of_int (Nodeseq.length profiles))
        (string_of_int (Nodeseq.length step2))
        (string_of_int (Nodeseq.length educations))
        "")
    (scales ());
  Printf.printf "Q2: /descendant::increase/ancestor::bidder\n";
  Printf.printf row_format "size[MB]" "step1" "increase" "step2" "bidder" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let root = root_seq doc in
      let step1 = Sj.desc ~exec:(bench_exec ()) doc root in
      let increases = tags doc "increase" in
      let step2 = Sj.anc ~exec:(bench_exec ()) doc increases in
      let bidders =
        match Doc.tag_symbol doc "bidder" with
        | None -> Nodeseq.empty
        | Some sym -> Nodeseq.filter (fun v -> Doc.tag doc v = sym) step2
      in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (string_of_int (Nodeseq.length step1))
        (string_of_int (Nodeseq.length increases))
        (string_of_int (Nodeseq.length step2))
        (string_of_int (Nodeseq.length bidders))
        "")
    (scales ())

(* ------------------------------------------------------------------ *)
(* Fig. 11 (a): avoiding duplicates (Q2 ancestor step)                  *)
(* ------------------------------------------------------------------ *)

let fig11a () =
  header "Fig. 11 (a): duplicates avoided (Q2 ancestor step)";
  Printf.printf row_format "size[MB]" "naive" "staircase" "duplicates" "dup-ratio" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let _, increases = q2_contexts doc in
      let naive_tuples = Naive.count_with_duplicates doc increases Axis.Ancestor in
      let staircase = Nodeseq.length (Sj.anc ~exec:(bench_exec ()) doc increases) in
      let duplicates = naive_tuples - staircase in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (string_of_int naive_tuples) (string_of_int staircase) (string_of_int duplicates)
        (Printf.sprintf "%.0f%%" (100.0 *. float_of_int duplicates /. float_of_int naive_tuples))
        "")
    (scales ());
  print_endline "(paper: ~75% of the naive result tuples are duplicates)"

(* ------------------------------------------------------------------ *)
(* Fig. 11 (b): staircase join performance (Q2), linearity              *)
(* ------------------------------------------------------------------ *)

let fig11b () =
  header "Fig. 11 (b): staircase join performance on Q2 (time vs. document size)";
  Printf.printf row_format "size[MB]" "nodes" "time[ms]" "ns/node" "" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let session =
        Eval.session
          ~strategy:{ Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never }
          doc
      in
      let q2 = "/descendant::increase/ancestor::bidder" in
      let ns = measure_ns ~name:"fig11b" (fun () -> ignore (Eval.run_exn ~exec:(bench_exec ()) session q2)) in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (string_of_int (Doc.n_nodes doc))
        (Printf.sprintf "%.3f" (ms_of_ns ns))
        (Printf.sprintf "%.1f" (ns /. float_of_int (Doc.n_nodes doc)))
        "" "")
    (scales ());
  print_endline "(paper: execution time grows linearly with document size — ns/node ~ constant)"

(* ------------------------------------------------------------------ *)
(* Fig. 11 (c): effectiveness of skipping — nodes accessed              *)
(* ------------------------------------------------------------------ *)

let fig11c () =
  header "Fig. 11 (c): nodes scanned in Q1's second step (descendant from profiles)";
  Printf.printf row_format "size[MB]" "no-skip" "skipping" "result" "context" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let _, profiles = q1_contexts doc in
      let touched mode =
        let stats = Stats.create () in
        let (_ : Nodeseq.t) = Sj.desc ~exec:(Exec.make ~mode ~stats ()) doc profiles in
        Stats.touched stats
      in
      let result = Nodeseq.length (Sj.desc ~exec:(bench_exec ()) doc profiles) in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (string_of_int (touched Sj.No_skipping))
        (string_of_int (touched Sj.Skipping))
        (string_of_int result)
        (string_of_int (Nodeseq.length profiles))
        "")
    (scales ());
  print_endline
    "(paper: skipping accesses at most |result|+|context| nodes, independent of document size)"

(* ------------------------------------------------------------------ *)
(* Fig. 11 (d): effectiveness of skipping — execution time              *)
(* ------------------------------------------------------------------ *)

let fig11d () =
  header "Fig. 11 (d): time of Q1's second step under the skipping variants";
  Printf.printf row_format "size[MB]" "no-skip[ms]" "skip[ms]" "estim[ms]" "exact[ms]" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let _, profiles = q1_contexts doc in
      let time mode =
        ms_of_ns
          (measure_ns
             ~name:(Sj.skip_mode_to_string mode)
             (fun () -> ignore (Sj.desc ~exec:(bench_exec ~mode ()) doc profiles)))
      in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (Printf.sprintf "%.3f" (time Sj.No_skipping))
        (Printf.sprintf "%.3f" (time Sj.Skipping))
        (Printf.sprintf "%.3f" (time Sj.Estimation))
        (Printf.sprintf "%.3f" (time Sj.Exact_size))
        "")
    (scales ());
  print_endline "(paper: skipping about halves the time; estimation gains another ~20%)"

(* ------------------------------------------------------------------ *)
(* Fig. 11 (e)/(f): query times against the tree-unaware SQL plan       *)
(* ------------------------------------------------------------------ *)

let strategy_staircase = { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never }

let strategy_pushdown = { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Always }

let strategy_sql = { Eval.backend = `Force (Plan.Btree { delimiter = true }); pushdown = `Never }

let comparison ~fig ~query ~sql_query () =
  header
    (Printf.sprintf "Fig. 11 (%s): %s — staircase vs. early name test vs. SQL plan" fig query);
  Printf.printf row_format "size[MB]" "scj[ms]" "scj-push[ms]" "sql[ms]" "speedup" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let time strategy q =
        let session = Eval.session ~strategy doc in
        (* warm the session caches (B-tree index, tag views) outside of
           the timed region, as the paper builds its index at load time *)
        ignore (Eval.run_exn session q);
        ms_of_ns (measure_ns ~name:fig (fun () -> ignore (Eval.run_exn ~exec:(bench_exec ()) session q)))
      in
      let t_scj = time strategy_staircase query in
      let t_push = time strategy_pushdown query in
      let t_sql = time strategy_sql sql_query in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (Printf.sprintf "%.3f" t_scj)
        (Printf.sprintf "%.3f" t_push)
        (Printf.sprintf "%.3f" t_sql)
        (Printf.sprintf "%.0fx" (t_sql /. t_push))
        "")
    (scales ());
  print_endline
    "(paper: name-test pushdown ~3x faster; the SQL plan trails by orders of magnitude)"

let fig11e =
  comparison ~fig:"e" ~query:"/descendant::profile/descendant::education"
    ~sql_query:"/descendant::profile/descendant::education"

(* For Q2 the paper times the manually rewritten SQL query
   /descendant::bidder[descendant::increase] because DB2 chose a bad plan
   for the original formulation. *)
let fig11f =
  comparison ~fig:"f" ~query:"/descendant::increase/ancestor::bidder"
    ~sql_query:"/descendant::bidder[descendant::increase]"

(* ------------------------------------------------------------------ *)
(* §6: tag-name fragmentation                                           *)
(* ------------------------------------------------------------------ *)

let frag () =
  header "§6 future work: tag-name fragmentation (Q1)";
  Printf.printf row_format "size[MB]" "plain[ms]" "frag[ms]" "speedup" "touched" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let fragmented = Fragmented.build doc in
      let root = root_seq doc in
      let run_plain () =
        let session = Eval.session ~strategy:strategy_staircase doc in
        ignore (Eval.run_exn ~exec:(bench_exec ()) session "/descendant::profile/descendant::education")
      in
      let run_frag () =
        let profiles = Fragmented.desc_step fragmented root ~tag:"profile" in
        ignore (Fragmented.desc_step fragmented profiles ~tag:"education")
      in
      let t_plain = ms_of_ns (measure_ns ~name:"plain" run_plain) in
      let t_frag = ms_of_ns (measure_ns ~name:"frag" run_frag) in
      let exec = Exec.make () in
      let stats = exec.Exec.stats in
      let profiles = Fragmented.desc_step ~exec fragmented root ~tag:"profile" in
      ignore (Fragmented.desc_step ~exec fragmented profiles ~tag:"education");
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (Printf.sprintf "%.3f" t_plain)
        (Printf.sprintf "%.3f" t_frag)
        (Printf.sprintf "%.0fx" (t_plain /. t_frag))
        (string_of_int (Stats.touched stats))
        "")
    (scales ());
  print_endline "(paper: fragmentation brought Q1 from 345 ms down to 39 ms — about 9x)"

(* ------------------------------------------------------------------ *)
(* §4.2/4.3: copy phase composition and scan bandwidth                  *)
(* ------------------------------------------------------------------ *)

let copyphase () =
  header "§4.2/4.3: (root)/descendant — copy-phase composition and bandwidth";
  Printf.printf row_format "size[MB]" "copied" "scanned" "result" "MB/s" "";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let root = root_seq doc in
      let stats = Stats.create () in
      let result = Sj.desc ~exec:(Exec.make ~mode:Sj.Estimation ~stats ()) doc root in
      let ns =
        measure_ns ~name:"copyphase" (fun () ->
            ignore (Sj.desc ~exec:(bench_exec ~mode:Sj.Estimation ()) doc root))
      in
      (* read the post column + write the result, 8-byte ints (§4.3) *)
      let bytes = float_of_int ((Stats.touched stats + Nodeseq.length result) * 8) in
      let mbps = bytes /. (ns /. 1e9) /. 1_048_576.0 in
      Printf.printf row_format
        (Printf.sprintf "%.1f" (mb_of doc))
        (string_of_int stats.Stats.copied)
        (string_of_int stats.Stats.scanned)
        (string_of_int (Nodeseq.length result))
        (Printf.sprintf "%.0f" mbps)
        "")
    (scales ());
  print_endline
    "(paper: the experiment is almost entirely copy phase; comparisons are bounded by h)"

(* ------------------------------------------------------------------ *)
(* CPU adaptation: blit copy-phase kernel vs per-node reference         *)
(* ------------------------------------------------------------------ *)

(* The copy phase is comparison-free, so it is pure memory bandwidth —
   the blit kernels (range fills over the attribute prefix-sum column)
   should beat the per-node append/kind-test/counter-bump loop that
   Sj.Reference keeps.  Also checks bit-identical results and counter
   totals across every skip mode, and scales the parallel join over
   1/2/4 domains. *)
let copykernel () =
  header "CPU adaptation: blit copy-phase kernels ((root)/descendant, estimation)";
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let root = root_seq doc in
  (* parity gate: blit vs per-node reference, results and counters,
     all four skip modes *)
  let modes = [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ] in
  let parity =
    List.for_all
      (fun mode ->
        let s_blit = Stats.create () and s_ref = Stats.create () in
        let r_blit = Sj.desc ~exec:(Exec.make ~mode ~stats:s_blit ()) doc root in
        let r_ref = Sj.Reference.desc ~exec:(Exec.make ~mode ~stats:s_ref ()) doc root in
        Nodeseq.equal r_blit r_ref && Stats.all_assoc s_blit = Stats.all_assoc s_ref)
      modes
  in
  (* the node-test kernel against the per-node reference join followed by
     the test (and the or-self union), results and counters, over the
     root and the Q1 profile contexts *)
  let _, profiles = q1_contexts doc in
  let elements = Sj.Kind Doc.Element in
  let is_element v = Doc.kind doc v = Doc.Element in
  let kernel_parity =
    List.for_all
      (fun (ctx, mode, or_self) ->
        let s_kernel = Stats.create () and s_ref = Stats.create () in
        let r_kernel =
          Sj.desc_test ~exec:(Exec.make ~mode ~stats:s_kernel ()) ~or_self doc elements ctx
        in
        let r_ref =
          let joined =
            Nodeseq.filter is_element
              (Sj.Reference.desc ~exec:(Exec.make ~mode ~stats:s_ref ()) doc ctx)
          in
          if or_self then Nodeseq.union joined (Nodeseq.filter is_element ctx) else joined
        in
        Nodeseq.equal r_kernel r_ref && Stats.all_assoc s_kernel = Stats.all_assoc s_ref)
      (List.concat_map
         (fun ctx -> List.concat_map (fun mode -> [ (ctx, mode, false); (ctx, mode, true) ]) modes)
         [ root; profiles ])
  in
  Trace.annot !tracer "counter_parity" (string_of_bool (parity && kernel_parity));
  (* phase composition of the measured join *)
  let stats = Stats.create () in
  let (_ : Nodeseq.t) = Sj.desc ~exec:(Exec.make ~mode:Sj.Estimation ~stats ()) doc root in
  let work = stats.Stats.copied + stats.Stats.scanned in
  Printf.printf "%14s %12s %12s %12s\n" "impl" "time[ms]" "Mnodes/s" "speedup";
  let line ?(work = work) name ns base_ns =
    let mnps = float_of_int work /. (ns /. 1e9) /. 1e6 in
    Printf.printf "%14s %12.3f %12.1f %11.2fx\n" name (ms_of_ns ns) mnps (base_ns /. ns)
  in
  let ref_ns =
    measure_ns ~name:"pernode" (fun () ->
        ignore (Sj.Reference.desc ~exec:(bench_exec ~mode:Sj.Estimation ()) doc root))
  in
  line "per-node" ref_ns ref_ns;
  let blit_ns =
    measure_ns ~name:"blit" (fun () ->
        ignore (Sj.desc ~exec:(bench_exec ~mode:Sj.Estimation ()) doc root))
  in
  line "blit" blit_ns ref_ns;
  Trace.annot !tracer "blit_speedup" (Printf.sprintf "%.2f" (ref_ns /. blit_ns));
  (* (root)/descendant-or-self::*, the //* step: join, filter and union
     against the kernel that tests while it writes *)
  let filtered_ns =
    measure_ns ~name:"join-filter" (fun () ->
        let joined = Sj.desc ~exec:(bench_exec ~mode:Sj.Estimation ()) doc root in
        ignore (Nodeseq.union (Nodeseq.filter is_element joined) (Nodeseq.filter is_element root)))
  in
  line "join+filter *" filtered_ns filtered_ns;
  let kernel_ns =
    measure_ns ~name:"kind-kernel" (fun () ->
        ignore
          (Sj.desc_test ~exec:(bench_exec ~mode:Sj.Estimation ()) ~or_self:true doc elements root))
  in
  line "kernel *" kernel_ns filtered_ns;
  Trace.annot !tracer "speedup_info_kind_kernel" (Printf.sprintf "%.2f" (filtered_ns /. kernel_ns));
  (* the parallel rows need a multi-partition staircase: the Q1 profile
     context (one partition per surviving context node, weighted
     chunking balances the scan lengths) *)
  let ctx_stats = Stats.create () in
  let (_ : Nodeseq.t) =
    Sj.desc ~exec:(Exec.make ~mode:Sj.Estimation ~stats:ctx_stats ()) doc profiles
  in
  let ctx_work = ctx_stats.Stats.copied + ctx_stats.Stats.scanned in
  let par_ref_ns =
    measure_ns ~name:"par-pernode" (fun () ->
        ignore (Sj.Reference.desc ~exec:(bench_exec ~mode:Sj.Estimation ()) doc profiles))
  in
  line ~work:ctx_work "ctx per-node" par_ref_ns par_ref_ns;
  let ctx_blit_ns =
    measure_ns ~name:"ctx-blit" (fun () ->
        ignore (Sj.desc ~exec:(bench_exec ~mode:Sj.Estimation ()) doc profiles))
  in
  line ~work:ctx_work "ctx blit" ctx_blit_ns par_ref_ns;
  List.iter
    (fun domains ->
      let ns =
        measure_ns
          ~name:(Printf.sprintf "blit-par%d" domains)
          (fun () ->
            ignore
              (Parallel.desc ~exec:(bench_exec ~mode:Sj.Estimation ~domains ()) doc profiles))
      in
      line ~work:ctx_work (Printf.sprintf "ctx blit %dd" domains) ns par_ref_ns)
    [ 1; 2; 4 ];
  Printf.printf
    "copy/scan composition: %d copied, %d scanned (counter parity: blit %b, node-test kernel %b)\n"
    stats.Stats.copied stats.Stats.scanned parity kernel_parity;
  print_endline
    "(the copy phase is comparison-free -- Equation (1) turns it into bulk range fills;\n\
    \ parallel rows pay one Domain.spawn per worker per run, which dominates at small scales)"

(* ------------------------------------------------------------------ *)
(* morsel-driven execution: shared pool vs per-step domain spawns       *)
(* ------------------------------------------------------------------ *)

(* The morsel scheduler against the serial blit join and the per-step
   Parallel join at 1/2/4/8 workers over the multi-partition Q1 profile
   context.  Parity gate: at a morsel size small enough that every
   partition splits into many chunks, results and counters must stay
   bit-identical to the per-node Reference oracle for all four skip
   modes.  The speedup annotations are achieved/required ratios (>= 1.0
   means the target holds): at 4 workers on a host that really has >= 4
   cores they are emitted as gated speedup_floor_* keys (morsel >= 2x
   serial, morsel >= parallel); on smaller hosts the same ratios go out
   as informational speedup_info_* keys, because a single-core container
   cannot exhibit CPU parallelism at all. *)
let morsel_bench () =
  header "morsel-driven staircase join (Q1 step 2, estimation): serial vs parallel vs morsel";
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let _, profiles = q1_contexts doc in
  let parity =
    List.for_all
      (fun mode ->
        let s_mor = Stats.create () and s_ref = Stats.create () in
        let r_mor =
          Morsel.desc ~morsel_size:512
            ~exec:(Exec.make ~mode ~stats:s_mor ~domains:4 ())
            doc profiles
        in
        let r_ref = Sj.Reference.desc ~exec:(Exec.make ~mode ~stats:s_ref ()) doc profiles in
        Nodeseq.equal r_mor r_ref && Stats.all_assoc s_mor = Stats.all_assoc s_ref)
      [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ]
  in
  Trace.annot !tracer "counter_parity" (string_of_bool parity);
  let ctx_stats = Stats.create () in
  let (_ : Nodeseq.t) =
    Sj.desc ~exec:(Exec.make ~mode:Sj.Estimation ~stats:ctx_stats ()) doc profiles
  in
  let work = ctx_stats.Stats.copied + ctx_stats.Stats.scanned in
  Printf.printf "%14s %12s %12s %12s\n" "impl" "time[ms]" "Mnodes/s" "speedup";
  let line name ns base_ns =
    let mnps = float_of_int work /. (ns /. 1e9) /. 1e6 in
    Printf.printf "%14s %12.3f %12.1f %11.2fx\n" name (ms_of_ns ns) mnps (base_ns /. ns)
  in
  let serial_ns =
    measure_ns ~name:"serial" (fun () ->
        ignore (Sj.desc ~exec:(bench_exec ~mode:Sj.Estimation ()) doc profiles))
  in
  line "serial" serial_ns serial_ns;
  let cores = Domain.recommended_domain_count () in
  List.iter
    (fun workers ->
      let par_ns =
        measure_ns
          ~name:(Printf.sprintf "parallel%d" workers)
          (fun () ->
            ignore
              (Parallel.desc ~exec:(bench_exec ~mode:Sj.Estimation ~domains:workers ()) doc
                 profiles))
      in
      line (Printf.sprintf "parallel %dw" workers) par_ns serial_ns;
      let mor_ns =
        measure_ns
          ~name:(Printf.sprintf "morsel%d" workers)
          (fun () ->
            ignore
              (Morsel.desc ~exec:(bench_exec ~mode:Sj.Estimation ~domains:workers ()) doc
                 profiles))
      in
      line (Printf.sprintf "morsel %dw" workers) mor_ns serial_ns;
      let vs_serial = serial_ns /. mor_ns /. 2.0 in
      let vs_parallel = par_ns /. mor_ns in
      let tag = if workers = 4 && cores >= 4 then "floor" else "info" in
      Trace.annot !tracer
        (Printf.sprintf "speedup_%s_morsel2x_serial_w%d" tag workers)
        (Printf.sprintf "%.3f" vs_serial);
      Trace.annot !tracer
        (Printf.sprintf "speedup_%s_morsel_vs_parallel_w%d" tag workers)
        (Printf.sprintf "%.3f" vs_parallel))
    [ 1; 2; 4; 8 ];
  Printf.printf "counter parity vs per-node reference (all skip modes, morsel_size=512): %b\n"
    parity;
  print_endline
    "(one pool batch per join vs one Domain.spawn per worker per step; the speedup_*\n\
    \ annotations are achieved/required ratios -- bench-diff gates the floor keys)"

(* ------------------------------------------------------------------ *)
(* §5: nodes touched, staircase vs. related joins                       *)
(* ------------------------------------------------------------------ *)

let baselines () =
  header "§5: nodes touched per algorithm (Q1 step 2 desc / Q2 step 2 anc)";
  Printf.printf "%10s %8s %12s %12s %12s %12s %12s\n" "size[MB]" "step" "staircase" "mpmgjn"
    "structjoin" "sql-plan" "naive";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let idx = Sql_plan.build_index doc in
      let touches f =
        let stats = Stats.create () in
        let (_ : Nodeseq.t) = f stats in
        (* fold the isolated per-algorithm counters into the ambient span *)
        Stats.add (bench_exec ()).Exec.stats stats;
        Stats.touched stats
      in
      let _, profiles = q1_contexts doc in
      let _, increases = q2_contexts doc in
      let line step ctx sj mp stj sql =
        (* the naive strategy scans the whole document per context node *)
        let naive_touches = Doc.n_nodes doc * Nodeseq.length ctx in
        Printf.printf "%10s %8s %12d %12d %12d %12d %12d\n"
          (Printf.sprintf "%.1f" (mb_of doc))
          step (touches sj) (touches mp) (touches stj) (touches sql) naive_touches
      in
      line "Q1/desc" profiles
        (fun stats -> Sj.desc ~exec:(Exec.make ~mode:Sj.Skipping ~stats ()) doc profiles)
        (fun stats -> Mpmgjn.desc ~exec:(Exec.make ~stats ()) doc profiles)
        (fun stats -> Structjoin.desc ~exec:(Exec.make ~stats ()) doc profiles)
        (fun stats -> Sql_plan.step ~exec:(Exec.make ~stats ()) idx doc profiles `Descendant);
      line "Q2/anc" increases
        (fun stats -> Sj.anc ~exec:(Exec.make ~mode:Sj.Skipping ~stats ()) doc increases)
        (fun stats -> Mpmgjn.anc ~exec:(Exec.make ~stats ()) doc increases)
        (fun stats -> Structjoin.anc ~exec:(Exec.make ~stats ()) doc increases)
        (fun stats -> Sql_plan.step ~exec:(Exec.make ~stats ()) idx doc increases `Ancestor))
    (scales ());
  print_endline "(paper §5: staircase join touches and tests fewer nodes than MPMGJN et al.)"

(* ------------------------------------------------------------------ *)
(* ablation: skip modes x pushdown policies                             *)
(* ------------------------------------------------------------------ *)

let ablation () =
  header "Ablation: skip mode x name-test pushdown (Q1, largest sweep document)";
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let q1 = "/descendant::profile/descendant::education" in
  Printf.printf "%22s %12s %12s %12s\n" "skip-mode" "never[ms]" "always[ms]" "cost[ms]";
  List.iter
    (fun mode ->
      let time pushdown =
        let strategy = { Eval.backend = `Force (Plan.Serial mode); pushdown } in
        let session = Eval.session ~strategy doc in
        ignore (Eval.run_exn session q1);
        ms_of_ns (measure_ns ~name:"ablation" (fun () -> ignore (Eval.run_exn ~exec:(bench_exec ()) session q1)))
      in
      Printf.printf "%22s %12.3f %12.3f %12.3f\n"
        (Sj.skip_mode_to_string mode)
        (time `Never) (time `Always) (time `Cost_based))
    [ Sj.No_skipping; Sj.Skipping; Sj.Estimation; Sj.Exact_size ]

(* ------------------------------------------------------------------ *)
(* planner: cost-based auto choice vs. every forced backend             *)
(* ------------------------------------------------------------------ *)

(* Gates the planner on deterministic work counters, not wall-clock:
   for each query, auto (cost-based backend + pushdown) must return the
   same node sequence as every forced backend, must never do more work
   than the worst forced backend, and must beat the best forced backend
   on at least one query (the pushdown rewrite only the planner applies).
   The last three queries exercise what only auto plans: predicates as
   semijoins over tag fragments, and following/preceding over a tag
   fragment; the forced backends evaluate them per node and by region
   scan.  Work = scanned + copied + compared + index_nodes — the counters
   the cost model estimates. *)
let planner_bench () =
  header "planner: auto choice vs. forced backends (deterministic work counters)";
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let queries =
    [
      "/descendant::profile/descendant::education";
      "/descendant::increase/ancestor::bidder";
      "//keyword";
      "/descendant::bidder[descendant::increase]";
      "//open_auction[bidder]";
      "//closed_auction/preceding::person";
    ]
  in
  let forced =
    [ "staircase-noskip"; "staircase-estimate"; "sql"; "mpmgjn"; "structjoin"; "naive" ]
  in
  let work_of stats =
    stats.Stats.scanned + stats.Stats.copied + stats.Stats.compared + stats.Stats.index_nodes
  in
  let run strategy q =
    let session = Eval.session ~strategy doc in
    (* warm the session caches (B-tree index, tag views, plan cache)
       outside the counted run, as the paper builds its index at load *)
    ignore (Eval.run_exn session q);
    let stats = Stats.create () in
    let result = Eval.run_exn ~exec:(Exec.make ~stats ()) session q in
    Stats.add (bench_exec ()).Exec.stats stats;
    (Nodeseq.to_array result, work_of stats)
  in
  let rec chosen_backends = function
    | Plan.P_source _ -> []
    | Plan.P_step (inner, ps) ->
      chosen_backends inner
      @ [
          (match ps.Plan.impl with
          | Plan.Join { backend; _ } -> Plan.backend_to_string backend
          | Plan.Structural -> "structural"
          | Plan.Select_self -> "select"
          | Plan.Empty_result -> "empty")
          ^ if ps.Plan.semijoin then " + semijoin" else "";
        ]
    | Plan.P_union parts -> [ String.concat " | " (List.map chain parts) ]
  and chain p = String.concat " -> " (chosen_backends p) in
  let parity = ref true in
  let auto_beats_best = ref false in
  Printf.printf "%-44s %12s %12s %12s %8s\n" "query" "auto" "best-forced" "worst-forced"
    "parity";
  List.iteri
    (fun qi q ->
      let auto_session = Eval.session doc in
      let auto_plan = Eval.path_plan auto_session (Scj_xpath.Parse.path_exn q) in
      let auto_result, auto_work = run Eval.default_strategy q in
      let q_parity = ref true in
      let forced_work =
        List.map
          (fun name ->
            let s = Option.get (Eval.strategy_of_string name) in
            let result, work = run { s with Eval.pushdown = `Never } q in
            if result <> auto_result then begin
              q_parity := false;
              Printf.printf "  MISMATCH: %s returned %d node(s), auto %d\n" name
                (Array.length result) (Array.length auto_result)
            end;
            work)
          forced
      in
      let best = List.fold_left min max_int forced_work in
      let worst = List.fold_left max 0 forced_work in
      if auto_work > worst then q_parity := false;
      if auto_work < best then auto_beats_best := true;
      if not !q_parity then parity := false;
      Trace.annot !tracer (Printf.sprintf "plan_q%d" (qi + 1)) (chain auto_plan);
      Printf.printf "%-44s %12d %12d %12d %8b\n" q auto_work best worst !q_parity;
      Printf.printf "  auto plan: %s\n" (chain auto_plan))
    queries;
  let ok = !parity && !auto_beats_best in
  Trace.annot !tracer "counter_parity" (string_of_bool ok);
  Printf.printf
    "parity (results identical, auto <= worst forced, auto beats best forced >= once): %b\n" ok

(* ------------------------------------------------------------------ *)
(* guide: path-partitioned auto vs flat-statistics auto                 *)
(* ------------------------------------------------------------------ *)

(* Deep fully-qualified XMark paths whose trailing descendant step owns
   a path partition strictly smaller than its tag fragment (items under
   europe vs all items, keywords under closed auctions vs all keywords):
   the guide-enabled auto planner must return the same node sequence as
   the flat-statistics auto and every forced backend, must never do more
   deterministic work than the flat auto, and must do strictly less on
   at least one path — the partition scan the guide alone can justify. *)
let guide_bench () =
  header "guide: path-partitioned auto vs flat-statistics auto (deterministic work counters)";
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let queries =
    [
      "/site/regions/europe/descendant::item";
      "/site/people/person/profile/descendant::education";
      "/site/closed_auctions/closed_auction/descendant::keyword";
    ]
  in
  let forced = [ "staircase-noskip"; "staircase-estimate"; "structjoin"; "naive" ] in
  let work_of stats =
    stats.Stats.scanned + stats.Stats.copied + stats.Stats.compared + stats.Stats.index_nodes
  in
  let run strategy q =
    let session = Eval.session ~strategy doc in
    ignore (Eval.run_exn session q);
    let stats = Stats.create () in
    let result = Eval.run_exn ~exec:(Exec.make ~stats ()) session q in
    Stats.add (bench_exec ()).Exec.stats stats;
    (Nodeseq.to_array result, work_of stats)
  in
  let parity = ref true in
  let guide_beats_flat = ref false in
  Printf.printf "%-52s %12s %12s %8s\n" "query" "auto+guide" "auto-flat" "parity";
  List.iteri
    (fun qi q ->
      let auto_result, auto_work = run Eval.default_strategy q in
      let flat_result, flat_work =
        run (Option.get (Eval.strategy_of_string "auto-flat")) q
      in
      let q_parity = ref true in
      if flat_result <> auto_result then begin
        q_parity := false;
        Printf.printf "  MISMATCH: auto-flat returned %d node(s), auto+guide %d\n"
          (Array.length flat_result) (Array.length auto_result)
      end;
      List.iter
        (fun name ->
          let s = Option.get (Eval.strategy_of_string name) in
          let result, _ = run { s with Eval.pushdown = `Never } q in
          if result <> auto_result then begin
            q_parity := false;
            Printf.printf "  MISMATCH: %s returned %d node(s), auto+guide %d\n" name
              (Array.length result) (Array.length auto_result)
          end)
        forced;
      if auto_work > flat_work then q_parity := false;
      if auto_work < flat_work then guide_beats_flat := true;
      if not !q_parity then parity := false;
      Trace.annot !tracer
        (Printf.sprintf "count_guide_work_q%d" (qi + 1))
        (string_of_int auto_work);
      Trace.annot !tracer
        (Printf.sprintf "count_flat_work_q%d" (qi + 1))
        (string_of_int flat_work);
      Printf.printf "%-52s %12d %12d %8b\n" q auto_work flat_work !q_parity)
    queries;
  let ok = !parity && !guide_beats_flat in
  Trace.annot !tracer "counter_parity" (string_of_bool ok);
  Printf.printf
    "parity (results identical, guide-auto <= flat-auto everywhere, strictly less >= once): \
     %b\n"
    ok

(* ------------------------------------------------------------------ *)
(* §3.2/§6: partition-parallel staircase join                           *)
(* ------------------------------------------------------------------ *)

let parallel () =
  header "§3.2/§6: partition-parallel staircase join (Q2 ancestor step)";
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let _, increases = q2_contexts doc in
  Printf.printf "%10s %12s\n" "domains" "time[ms]";
  List.iter
    (fun domains ->
      let ns =
        measure_ns ~name:"parallel" (fun () ->
            ignore (Parallel.anc ~exec:(bench_exec ~domains ()) doc increases))
      in
      Printf.printf "%10d %12.3f\n" domains (ms_of_ns ns))
    [ 1; 2; 4 ];
  let seq_ns = measure_ns ~name:"seq" (fun () -> ignore (Sj.anc doc increases)) in
  Printf.printf "%10s %12.3f\n" "(seq)" (ms_of_ns seq_ns)

(* ------------------------------------------------------------------ *)
(* §6: disk-based operation — page faults under memory pressure         *)
(* ------------------------------------------------------------------ *)

let disk () =
  header "§6 future work: disk-based staircase join — buffer pool faults (Q2 ancestor step)";
  Printf.printf "%10s %10s %10s %14s %14s %10s\n" "size[MB]" "pages" "pool" "scj faults"
    "index faults" "ratio";
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      let _, increases = q2_contexts doc in
      let page_ints = 1024 in
      let n_pages = (3 * Doc.n_nodes doc / page_ints) + 1 in
      (* keep ~5% of the pages resident to model memory pressure *)
      let capacity = max 4 (n_pages / 20) in
      let faults step =
        let pd = Scj_pager.Paged_doc.load ~page_ints ~capacity doc in
        let (_ : Nodeseq.t) = step pd increases in
        let _, faults, _ = Scj_pager.Buffer_pool.stats (Scj_pager.Paged_doc.pool pd) in
        faults
      in
      let f_sj = faults Scj_pager.Paged_doc.anc in
      let f_ix = faults Scj_pager.Paged_doc.index_anc in
      Printf.printf "%10s %10d %10d %14d %14d %9.0fx\n"
        (Printf.sprintf "%.1f" (mb_of doc))
        n_pages capacity f_sj f_ix
        (float_of_int f_ix /. float_of_int f_sj))
    (scales ());
  print_endline
    "(the paper leaves disk-based operation to future work; the sequential access pattern\n\
    \ of the staircase join is exactly what makes it buffer-friendly there)"

(* ------------------------------------------------------------------ *)
(* concurrent query service: mixed read workload over one buffer pool   *)
(* ------------------------------------------------------------------ *)

let smoke_mode = ref false

(* Replay one mixed read workload (paged axis steps + in-memory XPath)
   through the query service at increasing client-domain counts, against
   a pool kept under memory pressure with a simulated per-fault device
   latency.  On a single core the scaling comes from overlapping fault
   latencies — the §6 disk-based story — so throughput, not CPU, is what
   the worker domains multiply.  Parity gate: every client count must
   reproduce the 1-client run's per-query results and work counters
   exactly, and the pool's global hit/fault totals must equal the summed
   per-query tallies. *)
let workload () =
  header "query service: mixed read workload vs. client domains (shared buffer pool)";
  let module Server = Scj_server.Server in
  let module Paged_doc = Scj_pager.Paged_doc in
  let module Buffer_pool = Scj_pager.Buffer_pool in
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let page_ints = 256 in
  let n_pages = (3 * Doc.n_nodes doc / page_ints) + 1 in
  (* ~10% of the pages resident: enough pressure that the pool keeps
     faulting, so the simulated device latency dominates *)
  let capacity = max 24 (n_pages / 10) in
  let fault_latency = if !smoke_mode then 0.0002 else 0.0005 in
  let _, profiles = q1_contexts doc in
  let _, increases = q2_contexts doc in
  let mix =
    [
      Server.Step (`Desc, profiles);
      Server.Step (`Anc, increases);
      Server.Path "/descendant::profile/descendant::education";
      Server.Step (`Desc, root_seq doc);
      Server.Path "/descendant::increase/ancestor::bidder";
      Server.Step (`Anc, profiles);
    ]
  in
  let rounds = if !smoke_mode then 4 else 8 in
  let queries = List.concat (List.init rounds (fun _ -> mix)) in
  let n_queries = List.length queries in
  let clients = if !smoke_mode then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let run_at workers =
    let paged = Paged_doc.load ~page_ints ~stripes:8 ~fault_latency ~capacity doc in
    let db = Scj_db.Db.of_doc doc in
    Scj_db.Db.attach_paged db paged;
    let server = Server.create ~workers ~queue_bound:n_queries db in
    let t0 = Unix.gettimeofday () in
    let handles =
      List.map
        (fun q ->
          match Server.submit server q with
          | Server.Accepted h -> h
          | Server.Overloaded | Server.Stopped -> failwith "server bench: submission refused")
        queries
    in
    let outcomes = List.map Server.await handles in
    let dt = Unix.gettimeofday () -. t0 in
    let stats = Server.stats server in
    let pool = Paged_doc.pool paged in
    let pinned = Buffer_pool.pinned pool in
    let pool_stats = Buffer_pool.stats pool in
    Server.shutdown server;
    (dt, outcomes, stats, pool_stats, pinned)
  in
  let fingerprint outcomes =
    List.map
      (function
        | Server.Done r -> Some (Nodeseq.to_array r.Server.result, Stats.all_assoc r.Server.work)
        | Server.Timed_out | Server.Failed _ | Server.Dropped -> None)
      outcomes
  in
  Printf.printf "%8s %10s %10s %9s %9s %10s %10s\n" "clients" "time[s]" "q/s" "speedup"
    "hit-rate" "hits" "faults";
  let parity = ref true in
  let baseline = ref None in
  let serial_qps = ref 0.0 in
  List.iter
    (fun workers ->
      let dt, outcomes, stats, (hits, faults, _), pinned = run_at workers in
      let fp = fingerprint outcomes in
      (match !baseline with
      | None ->
        baseline := Some fp;
        serial_qps := float_of_int n_queries /. dt;
        (* the merged per-query work counters are interleaving-independent;
           fold the serial run's into the ambient span so bench-diff gates
           on them *)
        Stats.add (bench_exec ()).Exec.stats stats.Server.work
      | Some base -> if fp <> base then parity := false);
      if pinned <> 0 then parity := false;
      if stats.Server.tally_hits <> hits || stats.Server.tally_misses <> faults then
        parity := false;
      if stats.Server.completed <> n_queries then parity := false;
      let qps = float_of_int n_queries /. dt in
      let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + faults)) in
      Trace.annot !tracer (Printf.sprintf "qps_c%d" workers) (Printf.sprintf "%.1f" qps);
      Trace.annot !tracer
        (Printf.sprintf "hit_rate_c%d" workers)
        (Printf.sprintf "%.3f" hit_rate);
      (* the same rate from the per-query tallies: equal to the pool's by
         the Σ-tallies invariant, gated separately so an attribution bug
         shows up as divergence between the two annotations *)
      let tally_rate =
        float_of_int stats.Server.tally_hits
        /. float_of_int (max 1 (stats.Server.tally_hits + stats.Server.tally_misses))
      in
      Trace.annot !tracer
        (Printf.sprintf "hit_rate_tally_c%d" workers)
        (Printf.sprintf "%.3f" tally_rate);
      Printf.printf "%8d %10.3f %10.1f %8.2fx %8.1f%% %10d %10d\n" workers dt qps
        (qps /. !serial_qps)
        (100.0 *. hit_rate)
        hits faults;
      Printf.printf "         latency: %s\n"
        (Format.asprintf "%a" Scj_stats.Histogram.pp stats.Server.latency))
    clients;
  Trace.annot !tracer "counter_parity" (string_of_bool !parity);
  Printf.printf "parity (results, counters, tally invariant, pins drained): %b\n" !parity;
  print_endline
    "(single-core container: the speedup is overlapped simulated fault latency,\n\
    \ not CPU parallelism -- the disk-based story of the paper's section 6)"

(* ------------------------------------------------------------------ *)
(* durable store: cold open vs in-memory rebuild                        *)
(* ------------------------------------------------------------------ *)

(* The payoff of the on-disk format: opening a store re-reads pages, not
   the XML.  Compare the one-time store build and a full XML re-encode
   against a cold open (superblock + faulted pages, every read
   checksum-verified) and a warm rerun over the already-resident pool.
   The fault and byte counts are deterministic and gated by bench-diff;
   the millisecond figures are informational. *)
let store_bench () =
  header "durable store: cold open vs in-memory rebuild (real page reads)";
  let module Store = Scj_store.Store in
  let module Paged_doc = Scj_pager.Paged_doc in
  let module Buffer_pool = Scj_pager.Buffer_pool in
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let xml = Scj_xml.Printer.to_string (Doc.to_tree doc (Doc.root doc)) in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scj_bench_store_%d" (Unix.getpid ()))
  in
  let wipe () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  wipe ();
  Fun.protect ~finally:wipe (fun () ->
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (r, (Unix.gettimeofday () -. t0) *. 1000.0)
      in
      let store, create_ms = time (fun () -> Store.create ~page_ints:256 ~path:dir doc) in
      Store.close store;
      let reencoded, reencode_ms = time (fun () -> Doc.of_string xml) in
      (match reencoded with
      | Ok d when Doc.n_nodes d = Doc.n_nodes doc -> ()
      | Ok _ | Error _ -> failwith "store bench: XML re-encode does not reproduce the document");
      let store, open_ms =
        time (fun () ->
            match Store.open_ dir with
            | Ok s -> s
            | Error e -> failwith ("store bench: reopen failed: " ^ Scj_error.Error.to_string e))
      in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          let _, profiles = q1_contexts doc in
          let _, increases = q2_contexts doc in
          (* capacity covers the whole file: the cold pass faults each
             touched page exactly once, the warm pass faults nothing *)
          let pool_pages = (3 * Doc.n_nodes doc / Store.page_ints store) + 4 in
          let paged = Store.paged ~capacity:pool_pages store in
          let pool = Store.pool store in
          let queries () =
            ignore (Paged_doc.desc paged profiles);
            ignore (Paged_doc.anc paged increases);
            ignore (Paged_doc.desc paged (root_seq doc))
          in
          let bytes0 = Store.bytes_read store in
          let (), cold_ms = time queries in
          let _, cold_faults, _ = Buffer_pool.stats pool in
          let cold_bytes = Store.bytes_read store - bytes0 in
          Buffer_pool.reset_stats pool;
          let (), warm_ms = time queries in
          let _, warm_faults, _ = Buffer_pool.stats pool in
          Printf.printf "%18s %12s %12s %12s\n" "" "time[ms]" "faults" "bytes read";
          Printf.printf "%18s %12.1f %12s %12s\n" "store build" create_ms "-" "-";
          Printf.printf "%18s %12.1f %12s %12s\n" "XML re-encode" reencode_ms "-" "-";
          Printf.printf "%18s %12.1f %12s %12s\n" "cold open" open_ms "-" "-";
          Printf.printf "%18s %12.1f %12d %12d\n" "cold queries" cold_ms cold_faults cold_bytes;
          Printf.printf "%18s %12.1f %12d %12s\n" "warm queries" warm_ms warm_faults "0";
          Trace.annot !tracer "create_ms" (Printf.sprintf "%.1f" create_ms);
          Trace.annot !tracer "reencode_ms" (Printf.sprintf "%.1f" reencode_ms);
          Trace.annot !tracer "open_ms" (Printf.sprintf "%.1f" open_ms);
          Trace.annot !tracer "count_cold_faults" (string_of_int cold_faults);
          Trace.annot !tracer "count_cold_bytes_read" (string_of_int cold_bytes);
          Trace.annot !tracer "count_warm_faults" (string_of_int warm_faults);
          print_endline
            "(cold-open queries pay checksum-verified preads once; the warm pool and a reopened\n\
            \ store both skip the XML parse and pre/post encode entirely)"))

(* ------------------------------------------------------------------ *)
(* mutate: WAL-logged commits and snapshot-pinned readers               *)
(* ------------------------------------------------------------------ *)

(* The writable engine, both layers: Store.apply (one WAL transaction
   per mutation, commit record fsynced before the acknowledgement) and
   the server's snapshot isolation (a single writer installs renditions
   while readers stay pinned to the epoch they started on).  The commit
   counts, node counts and reader-consistency flag are deterministic and
   gated by bench-diff; the throughput figures are informational. *)
let mutate_bench () =
  header "updates: WAL-logged commits and snapshot-pinned readers";
  let module Store = Scj_store.Store in
  let module Server = Scj_server.Server in
  let module Update = Scj_encoding.Update in
  let module Db = Scj_db.Db in
  let module Paged_doc = Scj_pager.Paged_doc in
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let fragment = Scj_xml.Tree.elem "hotspot" [ Scj_xml.Tree.elem "hotentry" [] ] in
  let root = Doc.root doc in
  (* --- durable commit path ------------------------------------------ *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scj_bench_mutate_%d" (Unix.getpid ()))
  in
  let wipe () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  wipe ();
  let parity = ref true in
  Fun.protect ~finally:wipe (fun () ->
      let store = Store.create ~page_ints:256 ~path:dir doc in
      let triples = if !smoke_mode then 8 else 32 in
      let apply op =
        match Store.apply store op with
        | Ok a -> a
        | Error e -> failwith ("mutate bench: " ^ Scj_error.Error.to_string e)
      in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to triples do
        let ins = apply (Update.Insert { parent = root; before = None; fragment }) in
        let pre = ins.Update.splice in
        ignore (apply (Update.Rename { pre; name = "hotspot2" }));
        ignore (apply (Update.Delete { pre }))
      done;
      let commit_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      let n_commits = 3 * triples in
      if Store.pending_mutations store <> n_commits then parity := false;
      if Store.n_nodes store <> Doc.n_nodes doc then parity := false;
      let t1 = Unix.gettimeofday () in
      Store.checkpoint store;
      let checkpoint_ms = (Unix.gettimeofday () -. t1) *. 1000.0 in
      if Store.pending_mutations store <> 0 then parity := false;
      (match Store.verify store with Ok () -> () | Error _ -> parity := false);
      Store.close store;
      Printf.printf "%-22s %6d commits in %8.1f ms (%.2f ms/commit, fsync-bound)\n"
        "WAL-logged Store.apply" n_commits commit_ms
        (commit_ms /. float_of_int n_commits);
      Printf.printf "%-22s %6s %10.1f ms (folds %d mutations, truncates the WAL)\n" "checkpoint"
        "" checkpoint_ms n_commits;
      Trace.annot !tracer "count_wal_commits" (string_of_int n_commits);
      Trace.annot !tracer "commit_ms_per_op"
        (Printf.sprintf "%.3f" (commit_ms /. float_of_int n_commits)));
  (* --- snapshot-pinned readers racing the writer -------------------- *)
  let db = Db.of_doc doc in
  Db.attach_paged db
    (Paged_doc.load ~page_ints:256 ~stripes:8 ~fault_latency:0.0002
       ~capacity:(max 24 (((3 * Doc.n_nodes doc / 256) + 1) / 10))
       doc);
  let server = Server.create ~workers:2 ~queue_bound:4096 db in
  let _, profiles = q1_contexts doc in
  let reader_queries =
    [ "/descendant::hotspot"; "/descendant::hotentry"; "/descendant::profile" ]
  in
  let n_profiles = Nodeseq.length profiles in
  let rounds = if !smoke_mode then 6 else 24 in
  let handles = ref [] in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    List.iter
      (fun q ->
        match Server.submit server (Server.Path q) with
        | Server.Accepted h -> handles := (q, h) :: !handles
        | Server.Overloaded | Server.Stopped -> parity := false)
      reader_queries;
    (match
       Server.run server
         (Server.Write { op = Update.Insert { parent = root; before = None; fragment }; expect = None })
     with
    | Server.Done r when Nodeseq.length r.Server.result = 1 ->
      let pre = Nodeseq.get r.Server.result 0 in
      (match
         Server.run server
           (Server.Write { op = Update.Rename { pre; name = "hotspot2" }; expect = None })
       with
      | Server.Done _ -> ()
      | _ -> parity := false);
      (match Server.run server (Server.Write { op = Update.Delete { pre }; expect = None }) with
      | Server.Done _ -> ()
      | _ -> parity := false)
    | _ -> parity := false)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (* every reader's answer must be fully explained by the epoch it
     pinned: snapshot isolation means no other outcome is possible *)
  List.iter
    (fun (q, h) ->
      match Server.await h with
      | Server.Done r ->
        let expect =
          match (q, r.Server.epoch mod 3) with
          | "/descendant::hotspot", 1 -> 1
          | "/descendant::hotspot", _ -> 0
          | "/descendant::hotentry", (1 | 2) -> 1
          | "/descendant::hotentry", _ -> 0
          | _ -> n_profiles
        in
        if Nodeseq.length r.Server.result <> expect then parity := false
      | Server.Timed_out | Server.Failed _ | Server.Dropped -> parity := false)
    (List.rev !handles);
  let stats = Server.stats server in
  if stats.Server.commits <> 3 * rounds then parity := false;
  if stats.Server.epoch <> 3 * rounds then parity := false;
  Server.shutdown server;
  Printf.printf "%-22s %6d commits, %d snapshot reads in %.3f s (%.0f commits/s)\n"
    "server single-writer" stats.Server.commits (3 * rounds) dt
    (float_of_int stats.Server.commits /. dt);
  Trace.annot !tracer "count_server_commits" (string_of_int stats.Server.commits);
  Trace.annot !tracer "commits_per_s"
    (Printf.sprintf "%.1f" (float_of_int stats.Server.commits /. dt));
  Trace.annot !tracer "counter_parity" (string_of_bool !parity);
  Printf.printf "parity (pending counts, verify, reader epoch-consistency): %b\n" !parity;
  print_endline
    "(every commit is one WAL transaction whose fsync precedes the acknowledgement;\n\
    \ readers answer from the rendition they pinned, however many commits land meanwhile)"

(* ------------------------------------------------------------------ *)
(* sharded serving: scan resistance of the shared buffer pool           *)
(* ------------------------------------------------------------------ *)

(* Three tenants behind one Catalog pool: a cold tenant sequentially
   scanning a document ~8x the hot working set, interleaved with a hot
   tenant replaying the same full-document step every round.  The rounds
   are serial and deterministic — the victim's hit rate is read off the
   shared pool's counters around its query alone — so LRU vs 2Q is an
   exact A/B: under LRU the scan churn evicts the victim's loop and it
   thrashes; under 2Q the scan never leaves the A1in probation queue and
   the victim's pages, promoted to Am via ghost hits, stay resident. *)
let shard_bench () =
  let module Catalog = Scj_db.Catalog in
  let module Paged_doc = Scj_pager.Paged_doc in
  let module Buffer_pool = Scj_pager.Buffer_pool in
  header "sharded serving: cold tenant scan vs hot tenant working set (shared pool, LRU vs 2Q)";
  let scale = List.fold_left min infinity (scales ()) in
  let hot = doc_at scale in
  let cold = doc_at (scale *. 8.) in
  let page_ints = 256 in
  let v_pages = ((Doc.n_nodes hot - 1) / page_ints) + 1 in
  let c_pages = ((Doc.n_nodes cold - 1) / page_ints) + 1 in
  (* the victim's loop plus a one-chunk probation queue, nothing spare *)
  let capacity = v_pages + 9 in
  let chunk = 10 in
  let root_ctx d = Nodeseq.singleton (Doc.root d) in
  let expect = Nodeseq.length (Sj.desc hot (root_ctx hot)) in
  let rounds = 10 and warmup = 2 in
  let parity = ref true in
  let run policy =
    let catalog =
      Catalog.of_docs ~policy ~page_ints ~capacity
        [ ("cold", cold); ("hot-a", hot); ("hot-b", hot) ]
    in
    let pool = Catalog.pool catalog in
    let pd_hot = Option.get (Catalog.paged catalog "hot-a") in
    let pd_cold = Option.get (Catalog.paged catalog "cold") in
    let cursor = ref 0 in
    (* one probe per page: the next [chunk] pages of the cold tenant's
       sequential sweep through its post array *)
    let scan_chunk () =
      for _ = 1 to chunk do
        ignore (Paged_doc.post pd_cold (!cursor * page_ints));
        cursor := (!cursor + 1) mod c_pages
      done
    in
    (* page-level hit rate: the victim touches the same page set every
       round (its round-1 cold faults count that set), so resident pages
       are exactly the accesses that do not refault *)
    let pages_touched = ref 0 and victim_faults = ref 0 in
    for r = 1 to rounds do
      scan_chunk ();
      let _, f0, _ = Buffer_pool.stats pool in
      let res = Paged_doc.desc pd_hot (root_ctx hot) in
      let _, f1, _ = Buffer_pool.stats pool in
      if Nodeseq.length res <> expect then parity := false;
      if r = 1 then pages_touched := f1 - f0
      else if r > warmup then victim_faults := !victim_faults + (f1 - f0)
    done;
    let _, faults, evictions = Buffer_pool.stats pool in
    let accesses = (rounds - warmup) * max 1 !pages_touched in
    let rate = 1.0 -. (float_of_int !victim_faults /. float_of_int accesses) in
    Printf.printf
      "%-6s victim: %d pages/round, refaults=%4d page-hit-rate=%5.3f   pool: faults=%6d \
       evictions=%6d\n"
      (Buffer_pool.policy_to_string policy)
      !pages_touched !victim_faults rate faults evictions;
    Catalog.close catalog;
    (rate, !victim_faults)
  in
  Printf.printf
    "corpus: cold=%d pages, hot=%d pages x2 tenants; shared pool %d frames, %d-page scan chunk \
     per round, victim measured over rounds %d..%d\n"
    c_pages v_pages capacity chunk (warmup + 1) rounds;
  let lru, lru_faults = run Buffer_pool.Lru in
  let twoq, twoq_faults = run Buffer_pool.Two_q in
  if twoq < lru || twoq_faults > lru_faults then parity := false;
  Trace.annot !tracer "hit_rate_victim_lru" (Printf.sprintf "%.6f" lru);
  Trace.annot !tracer "hit_rate_victim_2q" (Printf.sprintf "%.6f" twoq);
  Trace.annot !tracer "count_victim_nodes" (string_of_int expect);
  Trace.annot !tracer "counter_parity" (string_of_bool !parity);
  Printf.printf "parity (victim results identical every round, 2Q hit rate >= LRU): %b\n" !parity;
  print_endline
    "(one tenant's cold scan flows through the 2Q probation queue and never displaces the\n\
    \ other tenants' main-queue working sets; LRU gives the scan the whole pool)"

(* ------------------------------------------------------------------ *)
(* FLWOR compilation: isolated value join vs the interpreter oracle     *)
(* ------------------------------------------------------------------ *)

(* The loop-lifting compiler against the retained tuple-at-a-time
   interpreter on an XMark-style value join: the compiler isolates the
   where-conjunct into a sort-merge join (each side's path evaluated
   once, keys sorted, one merge pass) while the interpreter re-evaluates
   the inner path and the comparison for every outer row.  Two gates:
   results bit-identical on the join query, and — for a join-free FLWOR,
   where the compiled executor mirrors the interpreter's evaluation
   order exactly — bit-identical work counters too.  The work ratio
   (interpreter counters / compiled counters) is deterministic, so it is
   emitted as a gated speedup_floor_flwor key; wall-clock goes out
   informationally. *)
let flwor_bench () =
  let module Xq = Scj_xquery.Xq_eval in
  let module Xqc = Scj_xquery.Xq_compile in
  header "FLWOR compilation (XMark value join): compiled operator plan vs interpreter";
  let scale = List.fold_left max 0.0 (scales ()) in
  let doc = doc_at scale in
  let session = Eval.session doc in
  let join_query =
    "for $p in //person for $a in //closed_auction where $a/buyer/@person = $p/@id return \
     $p/name"
  in
  let simple_query =
    "for $p in //person let $n := $p/name order by string($n) descending return element row { \
     $n }"
  in
  let parse q =
    match Scj_xquery.Xq_parse.parse q with Ok e -> e | Error m -> failwith m
  in
  let interpret ~stats expr =
    match Xq.interpret ~exec:(Exec.make ~stats ()) session expr with
    | Ok v -> v
    | Error m -> failwith m
  in
  let total s = List.fold_left (fun acc (_, v) -> acc + v) 0 (Stats.all_assoc s) in
  let join_expr = parse join_query in
  let compiled = Xqc.compile session join_expr in
  if not (Xqc.has_value_join compiled) then
    failwith "flwor: the join query must compile to an isolated value join";
  let c_stats = Stats.create () in
  let c_val = Xqc.execute ~exec:(Exec.make ~stats:c_stats ()) compiled in
  let i_stats = Stats.create () in
  let i_val = interpret ~stats:i_stats join_expr in
  let join_parity = String.equal (Xq.serialize session c_val) (Xq.serialize session i_val) in
  (* the join-free gate: same results AND the same counters, bit for bit *)
  let simple_expr = parse simple_query in
  let sc_stats = Stats.create () in
  let sc_val =
    Xqc.execute ~exec:(Exec.make ~stats:sc_stats ()) (Xqc.compile session simple_expr)
  in
  let si_stats = Stats.create () in
  let si_val = interpret ~stats:si_stats simple_expr in
  let simple_parity =
    String.equal (Xq.serialize session sc_val) (Xq.serialize session si_val)
    && Stats.all_assoc sc_stats = Stats.all_assoc si_stats
  in
  let parity = join_parity && simple_parity in
  let c_work = total c_stats and i_work = total i_stats in
  let work_ratio = float_of_int i_work /. float_of_int (max 1 c_work) in
  Printf.printf "%14s %12s %12s %12s\n" "pipeline" "result" "work" "time[ms]";
  let c_ns =
    measure_ns ~name:"compiled" (fun () -> ignore (Xqc.execute ~exec:(bench_exec ()) compiled))
  in
  Printf.printf "%14s %12d %12d %12.3f\n" "compiled" (List.length c_val) c_work (ms_of_ns c_ns);
  let i_ns =
    measure_ns ~name:"interpreter" (fun () ->
        match Xq.interpret ~exec:(bench_exec ()) session join_expr with
        | Ok v -> ignore v
        | Error m -> failwith m)
  in
  Printf.printf "%14s %12d %12d %12.3f\n" "interpreter" (List.length i_val) i_work
    (ms_of_ns i_ns);
  Printf.printf
    "value join isolated: %b; results identical: %b; join-free counter parity: %b\n"
    (Xqc.has_value_join compiled) join_parity simple_parity;
  Printf.printf "work ratio (interpreter/compiled): %.1fx; wall clock: %.2fx\n" work_ratio
    (i_ns /. c_ns);
  Trace.annot !tracer "counter_parity" (string_of_bool parity);
  Trace.annot !tracer "count_flwor_result" (string_of_int (List.length c_val));
  Trace.annot !tracer "count_work_compiled" (string_of_int c_work);
  Trace.annot !tracer "count_work_interpreter" (string_of_int i_work);
  (* achieved/required: the isolated join must cut total work by >= 2x
     (deterministic counters, so this is a gated floor, not wall-clock) *)
  Trace.annot !tracer "speedup_floor_flwor" (Printf.sprintf "%.3f" (work_ratio /. 2.0));
  Trace.annot !tracer "speedup_info_flwor_wall" (Printf.sprintf "%.3f" (i_ns /. c_ns));
  print_endline
    "(the compiler evaluates each join side once and merges sorted keys; the interpreter\n\
    \ re-runs the inner path per outer row -- same answers, orders of magnitude less work)"

(* ------------------------------------------------------------------ *)
(* driver                                                               *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig11a", fig11a);
    ("fig11b", fig11b);
    ("fig11c", fig11c);
    ("fig11d", fig11d);
    ("fig11e", fig11e);
    ("fig11f", fig11f);
    ("frag", frag);
    ("copyphase", copyphase);
    ("copykernel", copykernel);
    ("baselines", baselines);
    ("planner", planner_bench);
    ("guide", guide_bench);
    ("ablation", ablation);
    ("parallel", parallel);
    ("morsel", morsel_bench);
    ("disk", disk);
    ("workload", workload);
    ("store", store_bench);
    ("mutate", mutate_bench);
    ("shard", shard_bench);
    ("flwor", flwor_bench);
  ]

(* quick non-bechamel subset, used as a CI smoke test *)
let smoke_experiments =
  [
    "table1"; "fig11a"; "fig11c"; "baselines"; "planner"; "guide"; "copykernel"; "morsel";
    "workload"; "store"; "mutate"; "shard"; "flwor";
  ]

(* The spans that report counter_parity=false, as experiment/span paths:
   a parity failure is a wrong answer, not a slow one, so it fails the
   run. *)
let parity_failures roots =
  let rec go path (sp : Trace.span) =
    (if List.mem ("counter_parity", "false") sp.Trace.attrs then [ path ] else [])
    @ List.concat_map (fun (c : Trace.span) -> go (path ^ "/" ^ c.Trace.name) c) sp.Trace.children
  in
  List.concat_map (fun (sp : Trace.span) -> go sp.Trace.name sp) roots

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let requested = List.filter (fun a -> a <> "--json" && a <> "--smoke") args in
  if smoke then begin
    scale_override := Some [ 0.002 ];
    smoke_mode := true
  end;
  if json || smoke then tracer := Some (Trace.create (Stats.create ()));
  let requested = if requested = [] && smoke then smoke_experiments else requested in
  let selected =
    match requested with
    | [] -> experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some fn -> (name, fn)
          | None ->
            Printf.eprintf "unknown experiment %S; available: %s\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        names
  in
  Printf.printf "document sweep scales: %s\n"
    (String.concat ", " (List.map string_of_float (scales ())));
  List.iter
    (fun scale ->
      let doc = doc_at scale in
      Printf.printf "  scale %g: %d nodes (%0.1f MB serialized equivalent)\n" scale
        (Doc.n_nodes doc) (mb_of doc))
    (scales ());
  List.iter (fun (name, fn) -> Trace.span !tracer name fn) selected;
  match !tracer with
  | Some tr -> (
    (* one span per experiment, measurements nested inside — the same
       span shape 'scj analyze --json' emits *)
    print_endline (Trace.to_json tr);
    match parity_failures (Trace.roots tr) with
    | [] -> ()
    | failed ->
      List.iter (Printf.eprintf "bench: counter parity failed in %s\n") failed;
      exit 1)
  | None -> ()
