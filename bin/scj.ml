(* scj — the staircase join command line.

   Subcommands:
     scj gen     generate an XMark-style auction document
     scj encode  parse an XML file into the pre/post encoding
     scj info    show statistics of an encoded or XML document
     scj table   print the doc table (Fig. 2 of the paper)
     scj query   evaluate an XPath query under a chosen strategy
     scj explain show the static evaluation plan with cost-model detail
     scj plan    print the planner's physical plan (text or --json)
     scj guide   print the strong dataguide (path summary) of a document
     scj analyze evaluate and print the traced plan (EXPLAIN ANALYZE)

   The binary's main module is also called Scj, so it links the component
   libraries directly instead of the scj umbrella. *)

module Doc = Scj_encoding.Doc
module Codec = Scj_encoding.Codec
module Nodeseq = Scj_encoding.Nodeseq
module Update = Scj_encoding.Update
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Trace = Scj_trace.Trace
module Eval = Scj_xpath.Eval
module Xmark = Scj_xmlgen.Xmark
module Store = Scj_store.Store
module Db = Scj_db.Db
module Guide = Scj_guide.Guide
module Doc_stats = Scj_guide.Doc_stats
module Error_ = Scj_error.Error

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* document loading: every subcommand goes through the unified handle   *)
(* ------------------------------------------------------------------ *)

(* Db.open_ dispatches on the path itself: a store directory (WAL
   recovery, pending-mutation replay), a codec file, or XML. *)
let load_db path =
  match Db.open_ path with
  | Ok db -> Ok db
  | Error e -> Error (Printf.sprintf "%s: %s" path (Error_.to_string e))

(* Read-only commands want the bare document; the handle can be closed
   immediately because Doc.t is fully materialized. *)
let load_document path =
  match load_db path with
  | Error e -> Error e
  | Ok db ->
    let doc = Db.doc db in
    Db.close db;
    Ok doc

let strategy_conv =
  let parse s =
    match Eval.strategy_of_string s with
    | Some strategy -> Ok strategy
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown strategy %S (expected one of: %s)" s
             (String.concat ", " Eval.strategy_names)))
  in
  let print ppf s = Format.pp_print_string ppf (Eval.strategy_to_string s) in
  Cmdliner.Arg.conv (parse, print)

let pushdown_conv =
  let parse = function
    | "cost" -> Ok `Cost_based
    | "always" -> Ok `Always
    | "never" -> Ok `Never
    | s -> Error (`Msg (Printf.sprintf "unknown pushdown policy %S (cost, always, never)" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with `Cost_based -> "cost" | `Always -> "always" | `Never -> "never")
  in
  Cmdliner.Arg.conv (parse, print)

let strategy_doc =
  "Join-backend strategy: auto (the serial staircase join over the document or the step's \
   partition -- its dataguide paths, or its tag fragment -- whichever is smaller), auto-flat \
   (auto without dataguide cursors: the partition is always the tag fragment), or one forced \
   backend: staircase, staircase-noskip, staircase-skip, \
   staircase-estimate, staircase-exact, morsel, paged, naive, sql, sql-nodelimiter, mpmgjn, \
   structjoin."

let strategy_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt strategy_conv Eval.default_strategy
    & info [ "strategy" ] ~docv:"S" ~doc:strategy_doc)

let pushdown_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt pushdown_conv `Cost_based
    & info [ "pushdown" ] ~docv:"P" ~doc:"Name-test pushdown policy: cost, always, never.")

let with_pushdown strategy pushdown = { strategy with Eval.pushdown }

(* Shared by query/explain/plan/analyze: route the query text through the
   compiled XQuery pipeline instead of the XPath parser. *)
let xquery_arg =
  let open Cmdliner in
  Arg.(
    value
    & flag
    & info [ "xquery" ]
        ~doc:
          "Treat the query as an XQuery-lite (FLWOR) expression: compile it into the plan IR \
           (loop-lifting, value-join isolation) and run the operator program.")

(* ------------------------------------------------------------------ *)
(* gen                                                                  *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let open Cmdliner in
  let scale =
    Arg.(value & opt float 0.01 & info [ "s"; "scale" ] ~docv:"F" ~doc:"XMark scale factor.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (stdout if omitted).")
  in
  let run scale seed output =
    let tree = Xmark.generate (Xmark.config ~seed:(Int64.of_int seed) ~scale ()) in
    let xml = Scj_xml.Printer.to_string ~decl:true tree in
    (match output with
    | None -> print_string xml
    | Some path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc xml);
      Printf.eprintf "wrote %d bytes (%d nodes) to %s\n" (String.length xml)
        (Scj_xml.Tree.node_count tree) path);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate an XMark-style auction document.")
    Term.(const run $ scale $ seed $ output)

(* ------------------------------------------------------------------ *)
(* encode                                                               *)
(* ------------------------------------------------------------------ *)

let encode_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"XML") in
  let output =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Encoded output file.")
  in
  let run input output =
    match
      let* doc = load_document input in
      Codec.write_file output doc;
      Ok doc
    with
    | Ok doc ->
      Printf.eprintf "encoded %d nodes (height %d) into %s\n" (Doc.n_nodes doc) (Doc.height doc)
        output;
      0
    | Error e ->
      prerr_endline e;
      1
  in
  Cmd.v
    (Cmd.info "encode" ~doc:"Encode an XML document into a pre/post doc table file.")
    Term.(const run $ input $ output)

(* ------------------------------------------------------------------ *)
(* info                                                                 *)
(* ------------------------------------------------------------------ *)

(* The planner's statistics, folded from the document's dataguide. *)
let doc_stats doc = Doc_stats.of_guide (Guide.build doc) doc

(* Element tags with their fragment statistics, largest fragment first
   (ties by name). *)
let largest_tags (st : Doc_stats.t) =
  Hashtbl.fold (fun tag ts acc -> (tag, ts) :: acc) st.Doc_stats.tags []
  |> List.sort (fun (a, (x : Doc_stats.tag_stats)) (b, (y : Doc_stats.tag_stats)) ->
         match Int.compare y.count x.count with 0 -> String.compare a b | c -> c)

let info_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show the N largest tag fragments.") in
  let run input top =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc ->
      let st = doc_stats doc in
      Printf.printf "nodes:    %d\n" st.Doc_stats.n_nodes;
      Printf.printf "height:   %d\n" st.Doc_stats.height;
      Printf.printf "elements: %d\nattributes: %d\ntexts: %d\ncomments: %d\npis: %d\n"
        st.Doc_stats.n_elements st.Doc_stats.n_attributes st.Doc_stats.n_texts
        st.Doc_stats.n_comments st.Doc_stats.n_pis;
      Printf.printf "distinct element tags: %d\n" (Hashtbl.length st.Doc_stats.tags);
      print_endline "largest fragments (element count, dataguide paths):";
      List.iteri
        (fun i (tag, (ts : Doc_stats.tag_stats)) ->
          if i < top then Printf.printf "  %-24s %8d %6d\n" tag ts.count (List.length ts.paths))
        (largest_tags st);
      0
  in
  Cmd.v (Cmd.info "info" ~doc:"Show document statistics.") Term.(const run $ input $ top)

(* ------------------------------------------------------------------ *)
(* table                                                                *)
(* ------------------------------------------------------------------ *)

let table_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let limit = Arg.(value & opt int 50 & info [ "n"; "limit" ] ~docv:"N" ~doc:"Rows to print.") in
  let run input limit =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc ->
      let shown = min limit (Doc.n_nodes doc) in
      Printf.printf "%4s %6s %5s %6s %6s %s\n" "pre" "post" "level" "size" "kind" "name";
      for pre = 0 to shown - 1 do
        Printf.printf "%4d %6d %5d %6d %6s %s\n" pre (Doc.post doc pre) (Doc.level doc pre)
          (Doc.size doc pre)
          (Doc.kind_to_string (Doc.kind doc pre))
          (match Doc.tag_name doc pre with
          | Some n -> n
          | None -> ( match Doc.content doc pre with Some s -> Printf.sprintf "%S" s | None -> ""))
      done;
      if shown < Doc.n_nodes doc then Printf.printf "... (%d more rows)\n" (Doc.n_nodes doc - shown);
      0
  in
  Cmd.v (Cmd.info "table" ~doc:"Print the pre/post doc table.") Term.(const run $ input $ limit)

(* ------------------------------------------------------------------ *)
(* query                                                                *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let xpath = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let show_stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print work counters.") in
  let as_xml =
    Arg.(value & flag & info [ "xml" ] ~doc:"Print each result node's subtree as XML.")
  in
  let limit = Arg.(value & opt int 20 & info [ "n"; "limit" ] ~docv:"N" ~doc:"Result rows to print.") in
  let run input xpath strategy pushdown show_stats as_xml limit xquery =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc ->
      let strategy = with_pushdown strategy pushdown in
      let session = Eval.session ~strategy doc in
      let exec = Exec.make () in
      let t0 = Unix.gettimeofday () in
      if xquery then (
        match Scj_xquery.Xq_eval.run ~exec session xpath with
        | Error e ->
          prerr_endline e;
          1
        | Ok value ->
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          let n = List.length value in
          Printf.printf "%d item(s) in %.2f ms (%s, compiled)\n" n ms
            (Eval.strategy_to_string strategy);
          let shown = min limit n in
          List.iteri
            (fun i item ->
              if i < shown then
                print_endline (Scj_xquery.Xq_eval.serialize session [ item ]))
            value;
          if shown < n then Printf.printf "  ... (%d more)\n" (n - shown);
          if show_stats then Format.printf "work:@.%a@." Stats.pp exec.Exec.stats;
          0)
      else (
        match Eval.run ~exec session xpath with
        | Error e ->
          prerr_endline (Scj_error.Error.to_string e);
          1
        | Ok result ->
          let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          Printf.printf "%d nodes in %.2f ms (%s)\n" (Nodeseq.length result) ms
            (Eval.strategy_to_string strategy);
          let shown = min limit (Nodeseq.length result) in
          for i = 0 to shown - 1 do
            let v = Nodeseq.get result i in
            if as_xml then
              print_endline (Scj_xml.Printer.to_string (Doc.to_tree doc v))
            else
              Printf.printf "  pre=%-8d %s %s\n" v
                (Doc.kind_to_string (Doc.kind doc v))
                (match Doc.tag_name doc v with
                | Some n -> n
                | None -> (
                  match Doc.content doc v with Some s -> Printf.sprintf "%S" s | None -> ""))
          done;
          if shown < Nodeseq.length result then
            Printf.printf "  ... (%d more)\n" (Nodeseq.length result - shown);
          if show_stats then Format.printf "work:@.%a@." Stats.pp exec.Exec.stats;
          0)
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Evaluate an XPath query (or, with --xquery, a FLWOR expression) against a document.")
    Term.(
      const run $ input $ xpath $ strategy_arg $ pushdown_arg $ show_stats $ as_xml $ limit
      $ xquery_arg)

(* ------------------------------------------------------------------ *)
(* explain                                                              *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let xpath = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let run input xpath strategy pushdown xquery =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc ->
      let strategy = with_pushdown strategy pushdown in
      let session = Eval.session ~strategy doc in
      if xquery then (
        match Scj_xquery.Xq_compile.compile_string session xpath with
        | Error e ->
          prerr_endline e;
          1
        | Ok compiled ->
          print_string (Scj_xquery.Xq_compile.explain compiled);
          0)
      else (
        match Scj_xpath.Parse.path xpath with
        | Error e ->
          prerr_endline e;
          1
        | Ok path ->
          print_string (Eval.explain session path);
          0)
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the evaluation plan for an XPath or FLWOR query, with cost-model detail.")
    Term.(const run $ input $ xpath $ strategy_arg $ pushdown_arg $ xquery_arg)

(* ------------------------------------------------------------------ *)
(* plan                                                                 *)
(* ------------------------------------------------------------------ *)

let plan_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let xpath = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the plan as one JSON object.") in
  let run input xpath strategy pushdown json xquery =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc ->
      let strategy = with_pushdown strategy pushdown in
      let session = Eval.session ~strategy doc in
      if xquery then (
        match Scj_xquery.Xq_compile.compile_string session xpath with
        | Error e ->
          prerr_endline e;
          1
        | Ok compiled ->
          if json then print_endline (Scj_xquery.Xq_compile.plan_json compiled)
          else print_string (Scj_xquery.Xq_compile.explain compiled);
          0)
      else (
        match Scj_xpath.Parse.path xpath with
        | Error e ->
          prerr_endline e;
          1
        | Ok path ->
          if json then print_endline (Eval.plan_json session path)
          else print_string (Eval.explain session path);
          0)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:
         "Print the physical plan the planner would execute for an XPath query (or, with \
          --xquery, the loop-lifted FLWOR operator program): per-step backend choice, \
          pushdown decision, cost estimates and rejected alternatives.")
    Term.(const run $ input $ xpath $ strategy_arg $ pushdown_arg $ json $ xquery_arg)

(* ------------------------------------------------------------------ *)
(* guide                                                                *)
(* ------------------------------------------------------------------ *)

let guide_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the dataguide as one JSON object.")
  in
  let run input json =
    match load_db input with
    | Error e ->
      prerr_endline e;
      1
    | Ok db ->
      let g = Db.guide db in
      if json then print_endline (Guide.to_json g) else Format.printf "%a@?" Guide.pp g;
      Db.close db;
      0
  in
  Cmd.v
    (Cmd.info "guide"
       ~doc:
         "Print the document's strong dataguide (path summary): one line per distinct root \
          path with its node count, pre extent and attribute children — the statistics the \
          cost-based planner uses for near-exact cardinalities and path-partitioned scans. \
          Store-backed documents read the persisted guide extent; pre-guide stores rebuild \
          it in memory.")
    Term.(const run $ input $ json)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

(* The planner annotates every traced step span with its estimated vs
   actual output cardinality ratio ("q_error"); surface the worst one as
   a summary line so estimation drift is visible without reading the
   whole tree. *)
let max_q_error trace =
  let worst = ref None in
  let rec walk (s : Trace.span) =
    (match List.assoc_opt "q_error" s.Trace.attrs with
    | Some v -> (
      match float_of_string_opt v with
      | Some q -> (
        match !worst with
        | Some (q0, _) when q0 >= q -> ()
        | _ -> worst := Some (q, s.Trace.name))
      | None -> ())
    | None -> ());
    List.iter walk s.Trace.children
  in
  List.iter walk (Trace.roots trace);
  !worst

let print_max_q_error trace =
  match max_q_error trace with
  | Some (q, name) -> Printf.printf "max q-error: %.2f (%s)\n" q name
  | None -> ()

let analyze_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let xpath = Arg.(required & pos 1 (some string) None & info [] ~docv:"XPATH") in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the trace as a JSON span tree.")
  in
  let run input xpath strategy pushdown json xquery =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc ->
      let strategy = with_pushdown strategy pushdown in
      let session = Eval.session ~strategy doc in
      if xquery then (
        match Scj_xquery.Xq_compile.compile_string session xpath with
        | Error e ->
          prerr_endline e;
          1
        | Ok compiled -> (
          match Scj_xquery.Xq_compile.analyze compiled with
          | exception Scj_plan.Flwor.Error e ->
            prerr_endline e;
            1
          | value, trace ->
            if json then print_endline (Trace.to_json trace)
            else begin
              Format.printf "%a@." Trace.pp_tree trace;
              Printf.printf "result: %d item(s)\n" (List.length value);
              print_max_q_error trace;
              Format.printf "totals:@.%a@." Stats.pp (Trace.stats trace)
            end;
            0))
      else (
        match Scj_xpath.Parse.path xpath with
        | Error e ->
          prerr_endline e;
          1
        | Ok path ->
          let result, trace = Eval.analyze session path in
          if json then print_endline (Trace.to_json trace)
          else begin
            Format.printf "%a@." Trace.pp_tree trace;
            Printf.printf "result: %d node(s)\n" (Nodeseq.length result);
            print_max_q_error trace;
            Format.printf "totals:@.%a@." Stats.pp (Trace.stats trace)
          end;
          0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Evaluate an XPath query (or, with --xquery, a compiled FLWOR program) and print the \
          traced execution plan: one span per step/operator with the algorithm chosen, the \
          pushdown decision, partitions, cardinalities, work counters and wall-clock timings \
          (EXPLAIN ANALYZE).")
    Term.(const run $ input $ xpath $ strategy_arg $ pushdown_arg $ json $ xquery_arg)

(* ------------------------------------------------------------------ *)
(* xquery                                                               *)
(* ------------------------------------------------------------------ *)

let xquery_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let query = Arg.(required & pos 1 (some string) None & info [] ~docv:"XQUERY") in
  let interpret =
    Arg.(
      value
      & flag
      & info [ "interpret" ]
          ~doc:
            "Use the tuple-at-a-time interpreter (the differential oracle) instead of the \
             compiled operator pipeline.")
  in
  let show_stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print work counters.") in
  let run input query strategy pushdown interpret show_stats =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc -> (
      let strategy = with_pushdown strategy pushdown in
      let session = Eval.session ~strategy doc in
      let exec = Exec.make () in
      let result =
        if interpret then
          match Scj_xquery.Xq_parse.parse query with
          | Error _ as e -> e
          | Ok expr -> Scj_xquery.Xq_eval.interpret ~exec session expr
        else Scj_xquery.Xq_eval.run ~exec session query
      in
      match result with
      | Error e ->
        prerr_endline e;
        1
      | Ok value ->
        print_endline (Scj_xquery.Xq_eval.serialize session value);
        if show_stats then Format.printf "work:@.%a@." Stats.pp exec.Exec.stats;
        0)
  in
  Cmd.v
    (Cmd.info "xquery"
       ~doc:
         "Evaluate an XQuery-lite (FLWOR) expression against a document through the compiled \
          plan-IR pipeline (or, with --interpret, the retained oracle interpreter).")
    Term.(const run $ input $ query $ strategy_arg $ pushdown_arg $ interpret $ show_stats)

(* ------------------------------------------------------------------ *)
(* validate                                                             *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let validate_store path =
    match Store.open_ path with
    | Error e ->
      Printf.printf "%s\n" (Scj_error.Error.to_string e);
      1
    | Ok s ->
      let r = Store.last_recovery s in
      if r.Scj_store.Wal.committed > 0 || r.Scj_store.Wal.discarded <> None then
        Printf.printf "recovery: %d transaction(s) replayed (%d page(s))%s\n"
          r.Scj_store.Wal.committed r.Scj_store.Wal.replayed_pages
          (match r.Scj_store.Wal.discarded with
          | None -> ""
          | Some d -> Printf.sprintf "; discarded: %s" d);
      (match Store.verify s with
      | Error e ->
        Printf.printf "%s\n" (Scj_error.Error.to_string e);
        1
      | Ok () -> (
        match Store.doc s with
        | exception Store.Corrupt e ->
          Printf.printf "CORRUPT: %s\n" e;
          1
        | doc -> (
          match Doc.validate doc with
          | Ok () ->
            Printf.printf
              "ok: store of %d nodes, height %d; every page checksum and Equation (1) hold\n"
              (Doc.n_nodes doc) (Doc.height doc);
            0
          | Error e ->
            Printf.printf "INVALID: %s\n" e;
            1)))
  in
  let run input =
    if Db.is_store_dir input then validate_store input
    else
      match load_document input with
      | Error e ->
        prerr_endline e;
        1
      | Ok doc -> (
        match Doc.validate doc with
        | Ok () ->
          Printf.printf "ok: %d nodes, height %d, Equation (1) holds everywhere\n"
            (Doc.n_nodes doc) (Doc.height doc);
          0
        | Error e ->
          Printf.printf "INVALID: %s\n" e;
          1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check the pre/post encoding invariants of a document, or (for a store directory) run \
          WAL recovery and verify every page checksum.")
    Term.(const run $ input)

(* ------------------------------------------------------------------ *)
(* load: build a durable store                                          *)
(* ------------------------------------------------------------------ *)

(* crash-testing hook: widen every fsync barrier so an external kill -9
   lands inside a well-defined window (tools/crash-smoke.sh) *)
let delayed_io delay =
  let open Scj_store in
  if delay <= 0.0 then Io.real
  else
    {
      Io.real with
      Io.openf =
        (fun ~path ~rw ~create ->
          let f = Io.real.Io.openf ~path ~rw ~create in
          {
            f with
            Io.fsync =
              (fun () ->
                Unix.sleepf delay;
                f.Io.fsync ());
          });
    }

let load_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Store directory to create.")
  in
  let page_ints =
    Arg.(
      value & opt int 1024
      & info [ "page-ints" ] ~docv:"N" ~doc:"Integers per page (default 1024 = 8 KB pages).")
  in
  let fsync_delay =
    Arg.(
      value & opt float 0.0
      & info [ "fsync-delay" ] ~docv:"MS"
          ~doc:"Sleep before every fsync barrier, in milliseconds (crash-testing hook).")
  in
  let run input output page_ints fsync_delay =
    match load_document input with
    | Error e ->
      prerr_endline e;
      1
    | Ok doc ->
      let io = delayed_io (fsync_delay /. 1000.0) in
      let store = Store.create ~io ~page_ints ~path:output doc in
      Printf.eprintf "stored %d nodes (height %d) in %s: %d-int pages, WAL checkpointed\n"
        (Store.n_nodes store) (Store.height store) output (Store.page_ints store);
      Store.close store;
      0
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Build a durable page-file store (write-ahead logged, checksummed) from an XML or .scj \
          document; serve it later with scj serve --store or query it directly by directory.")
    Term.(const run $ input $ output $ page_ints $ fsync_delay)

(* ------------------------------------------------------------------ *)
(* mutate: structural updates through the unified handle                *)
(* ------------------------------------------------------------------ *)

let mutate_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let insert =
    Arg.(
      value
      & opt (some string) None
      & info [ "insert" ] ~docv:"XML"
          ~doc:"Insert this XML fragment as a child of the node selected by --parent.")
  in
  let parent =
    Arg.(
      value & opt string "/"
      & info [ "parent" ] ~docv:"XPATH"
          ~doc:"Target element for --insert (first node of the result; default the root).")
  in
  let before =
    Arg.(
      value
      & opt (some string) None
      & info [ "before" ] ~docv:"XPATH"
          ~doc:"Sibling to insert in front of (default: append as last child).")
  in
  let delete =
    Arg.(
      value
      & opt (some string) None
      & info [ "delete" ] ~docv:"XPATH" ~doc:"Delete the subtree of the first matching node.")
  in
  let rename =
    Arg.(
      value
      & opt (some string) None
      & info [ "rename" ] ~docv:"XPATH" ~doc:"Rename the first matching node (see --to).")
  in
  let to_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "to" ] ~docv:"NAME" ~doc:"The new name for --rename.")
  in
  let checkpoint =
    Arg.(
      value & flag
      & info [ "checkpoint" ]
          ~doc:"After committing, fold the store's pending WAL mutations into its page file.")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "For non-store documents: write the mutated document here (.scj codec if the name \
             ends in .scj, XML otherwise).  Without it the mutation stays in memory only.")
  in
  (* resolve an XPath to the first node of its result *)
  let resolve db expr =
    match Db.query db expr with
    | Error e -> Error (Printf.sprintf "%s: %s" expr (Error_.to_string e))
    | Ok ns when Nodeseq.length ns = 0 -> Error (Printf.sprintf "%s: no matching node" expr)
    | Ok ns -> Ok (Nodeseq.get ns 0)
  in
  let build_op db ~insert ~parent ~before ~delete ~rename ~to_name =
    match (insert, delete, rename) with
    | Some xml, None, None ->
      let* fragment =
        Result.map_error Scj_xml.Parser.error_to_string (Scj_xml.Parser.parse_string xml)
      in
      let* parent = resolve db parent in
      let* before =
        match before with
        | None -> Ok None
        | Some expr -> Result.map (fun pre -> Some pre) (resolve db expr)
      in
      Ok (Update.Insert { parent; before; fragment })
    | None, Some expr, None ->
      let* pre = resolve db expr in
      Ok (Update.Delete { pre })
    | None, None, Some expr -> (
      match to_name with
      | None -> Error "mutate: --rename requires --to NAME"
      | Some name ->
        let* pre = resolve db expr in
        Ok (Update.Rename { pre; name }))
    | None, None, None -> Error "mutate: provide exactly one of --insert, --delete, --rename"
    | _ -> Error "mutate: provide exactly one of --insert, --delete, --rename"
  in
  let run input insert parent before delete rename to_name checkpoint output =
    match load_db input with
    | Error e ->
      prerr_endline e;
      1
    | Ok db -> (
      let result =
        let* op = build_op db ~insert ~parent ~before ~delete ~rename ~to_name in
        match Db.apply db op with
        | Error e -> Error (Error_.to_string e)
        | Ok applied -> Ok (op, applied)
      in
      match result with
      | Error e ->
        prerr_endline e;
        Db.close db;
        1
      | Ok (op, applied) ->
        Printf.printf "applied %s: splice at pre %d, %+d node(s); document now %d nodes\n"
          (Update.op_to_string op) applied.Update.splice applied.Update.delta
          (Doc.n_nodes (Db.doc db));
        (match Db.store db with
        | Some _ ->
          if checkpoint then begin
            Db.checkpoint db;
            print_endline "checkpointed: mutation folded into the page file, WAL truncated"
          end
          else
            Printf.printf "durable: %d mutation(s) pending in the WAL (replayed on reopen)\n"
              (Db.pending_mutations db)
        | None -> (
          match output with
          | Some path ->
            let doc = Db.doc db in
            if Filename.check_suffix path ".scj" then Codec.write_file path doc
            else
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc
                    (Scj_xml.Printer.to_string ~decl:true (Doc.to_tree doc (Doc.root doc))));
            Printf.printf "wrote mutated document to %s\n" path
          | None ->
            prerr_endline
              "note: in-memory document — the mutation is not persisted (use -o FILE, or a \
               store directory created by scj load)"));
        Db.close db;
        0)
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Apply a structural update (subtree insert, subtree delete, rename) to a document.  On \
          a durable store the mutation is WAL-logged before it is acknowledged and replayed by \
          recovery on the next open; --checkpoint folds it into the page file immediately.")
    Term.(
      const run $ input $ insert $ parent $ before $ delete $ rename $ to_name $ checkpoint
      $ output)

(* ------------------------------------------------------------------ *)
(* serve: a line-oriented front end to the concurrent query service     *)
(* ------------------------------------------------------------------ *)

module Server = Scj_server.Server
module Shard = Scj_server.Shard
module Catalog = Scj_db.Catalog
module Paged_doc = Scj_pager.Paged_doc
module Buffer_pool = Scj_pager.Buffer_pool

let load_paged ?fault_latency ~page_ints ~capacity doc =
  let n_pages = (3 * Doc.n_nodes doc / page_ints) + 1 in
  let capacity = if capacity > 0 then capacity else max 24 (n_pages / 10) in
  Paged_doc.load ~page_ints ~stripes:8 ?fault_latency ~capacity doc

let print_service_stats (s : Server.service_stats) =
  Printf.printf
    "completed=%d timed_out=%d failed=%d internal=%d rejected=%d dropped=%d commits=%d epoch=%d\n"
    s.Server.completed s.Server.timed_out s.Server.failed s.Server.internal s.Server.rejected
    s.Server.dropped s.Server.commits s.Server.epoch;
  Printf.printf "latency: %s\n" (Format.asprintf "%a" Scj_stats.Histogram.pp s.Server.latency);
  Printf.printf "pool traffic (per-query tallies): hits=%d misses=%d\n" s.Server.tally_hits
    s.Server.tally_misses;
  Format.printf "work:@.%a@." Stats.pp s.Server.work

let policy_conv =
  let parse s =
    match Buffer_pool.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown eviction policy %S (expected lru or 2q)" s))
  in
  let print ppf p = Format.pp_print_string ppf (Buffer_pool.policy_to_string p) in
  Cmdliner.Arg.conv (parse, print)

let policy_arg =
  let open Cmdliner in
  Arg.(
    value
    & opt policy_conv Buffer_pool.Two_q
    & info [ "policy" ] ~docv:"P"
        ~doc:
          "Eviction policy of the shared buffer pool in multi-document mode: 2q (scan-resistant \
           2Q, the default — one tenant's cold scan cannot evict another's working set) or lru \
           (classic LRU, for A/B comparison).")

let print_tenant_stats shard =
  let hits, faults, evictions = Shard.pool_stats shard in
  Printf.printf "shared pool: hits=%d faults=%d evictions=%d policy=%s\n" hits faults evictions
    (Buffer_pool.policy_to_string (Buffer_pool.policy (Catalog.pool (Shard.catalog shard))));
  List.iter
    (fun (id, s) ->
      let tally = s.Server.tally_hits + s.Server.tally_misses in
      Printf.printf
        "%-12s completed=%d failed=%d commits=%d epoch=%d hit_rate=%.3f latency: %s\n" id
        s.Server.completed s.Server.failed s.Server.commits s.Server.epoch
        (float_of_int s.Server.tally_hits /. float_of_int (max 1 tally))
        (Format.asprintf "%a" Scj_stats.Histogram.pp s.Server.latency))
    (Shard.stats shard)

(* A request line is XPath by default; an "xquery " prefix routes it
   through the compiled FLWOR pipeline instead. *)
let query_of_line line =
  let prefix = "xquery " in
  let plen = String.length prefix in
  if String.length line > plen && String.equal (String.sub line 0 plen) prefix then
    Server.Xquery (String.sub line plen (String.length line - plen))
  else Server.Path line

(* One request line in --docs mode: "DOC-ID QUERY" routes to one
   document, "* QUERY" scatter-gathers over the whole corpus. *)
let serve_docs_line shard line =
  match String.index_opt line ' ' with
  | None -> Printf.printf "error: expected 'DOC-ID QUERY' or '* QUERY' (got %S)\n%!" line
  | Some sp ->
    let target = String.sub line 0 sp in
    let query = String.sub line (sp + 1) (String.length line - sp - 1) in
    let print_outcome prefix = function
      | Server.Done r ->
        Printf.printf "%s%d node(s) in %.2f ms (epoch %d)\n%!" prefix
          (Nodeseq.length r.Server.result) r.Server.latency_ms r.Server.epoch
      | Server.Timed_out -> Printf.printf "%stimed out\n%!" prefix
      | Server.Failed e -> Printf.printf "%serror: %s\n%!" prefix (Error_.to_string e)
      | Server.Dropped -> Printf.printf "%sdropped at shutdown\n%!" prefix
    in
    if String.equal target "*" then begin
      let outcomes = Shard.run_all shard (query_of_line query) in
      let total =
        List.fold_left
          (fun acc (_, o) ->
            match o with Server.Done r -> acc + Nodeseq.length r.Server.result | _ -> acc)
          0 outcomes
      in
      List.iter (fun (id, o) -> print_outcome (Printf.sprintf "%-12s " id) o) outcomes;
      Printf.printf "* %d node(s) over %d document(s)\n%!" total (List.length outcomes)
    end
    else print_outcome "" (Shard.run shard ~doc:target (query_of_line query))

let serve_docs dir workers deadline policy capacity =
  match
    Catalog.open_dir ~policy ?capacity:(if capacity > 0 then Some capacity else None) ~stripes:8
      dir
  with
  | Error e ->
    prerr_endline (Printf.sprintf "%s: %s" dir (Error_.to_string e));
    1
  | Ok catalog ->
    let shard = Shard.create ?workers ?deadline catalog in
    Printf.eprintf
      "scj serve: %d document(s) behind one %s pool (%d frames); 'DOC-ID QUERY' or '* QUERY' \
       per line, '\\stats' for per-tenant statistics, EOF to stop\n"
      (Shard.n_docs shard)
      (Buffer_pool.policy_to_string policy)
      (Buffer_pool.capacity (Catalog.pool catalog));
    List.iter
      (fun (id, db) ->
        Printf.eprintf "  %-12s %d nodes (%s)\n" id (Doc.n_nodes (Db.doc db)) (Db.describe db))
      (Catalog.to_list catalog);
    Printf.eprintf "%!";
    let rec loop () =
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some "" -> loop ()
      | Some "\\stats" ->
        print_tenant_stats shard;
        loop ()
      | Some line ->
        serve_docs_line shard line;
        loop ()
    in
    loop ();
    Shard.shutdown shard;
    print_tenant_stats shard;
    Catalog.close catalog;
    0

let serve_cmd =
  let open Cmdliner in
  let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"DOC") in
  let store_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Serve from a durable store directory (created by scj load): zero re-encoding, \
                page faults are real checksum-verified reads.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains (0 = auto: \\$(b,SCJ_DOMAINS) or the hardware count, capped at 8). \
             Clamped to what the hardware supports.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS" ~doc:"Per-query deadline in milliseconds.")
  in
  let docs_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "docs" ] ~docv:"DIR"
          ~doc:
            "Serve every document in $(docv) (store directories, .xml and .scj files) behind one \
             shared buffer pool; request lines become 'DOC-ID QUERY', with '*' fanning out to \
             the whole corpus.")
  in
  let pool_capacity =
    Arg.(
      value & opt int 0
      & info [ "capacity" ] ~docv:"FRAMES"
          ~doc:"Shared buffer-pool frames in --docs mode (0 = ~10% of the corpus' pages).")
  in
  let serve_one input store workers deadline =
    let path =
      match (store, input) with
      | Some dir, _ ->
        if Db.is_store_dir dir then Ok dir
        else Error (Printf.sprintf "%s: not a store directory (no pages.scj)" dir)
      | None, Some path -> Ok path
      | None, None -> Error "serve: provide a DOC argument, --store DIR or --docs DIR"
    in
    match Result.bind path load_db with
    | Error e ->
      prerr_endline e;
      1
    | Ok db ->
      let server = Server.create ?workers ?deadline db in
      Printf.eprintf
        "scj serve: %d nodes (%s), %d worker domain(s); one XPath query per line ('xquery EXPR' \
         for FLWOR), '\\stats' for service statistics, EOF to stop\n\
         %!"
        (Doc.n_nodes (Db.doc db)) (Db.describe db) (Server.workers server);
      let rec loop () =
        match In_channel.input_line In_channel.stdin with
        | None -> ()
        | Some "" -> loop ()
        | Some "\\stats" ->
          print_service_stats (Server.stats server);
          loop ()
        | Some line ->
          (match Server.run server (query_of_line line) with
          | Server.Done r ->
            Printf.printf "%d node(s) in %.2f ms (epoch %d)\n%!" (Nodeseq.length r.Server.result)
              r.Server.latency_ms r.Server.epoch
          | Server.Timed_out -> Printf.printf "timed out\n%!"
          | Server.Failed e -> Printf.printf "error: %s\n%!" (Error_.to_string e)
          | Server.Dropped -> Printf.printf "dropped at shutdown\n%!");
          loop ()
      in
      loop ();
      Server.shutdown server;
      print_service_stats (Server.stats server);
      Db.close db;
      0
  in
  let run input store docs workers deadline_ms policy pool_capacity =
    let deadline = Option.map (fun ms -> ms /. 1000.0) deadline_ms in
    let workers = if workers > 0 then Some (Exec.clamp_domains workers) else None in
    match docs with
    | Some dir -> serve_docs dir workers deadline policy pool_capacity
    | None -> serve_one input store workers deadline
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent query service over a document, a durable store, or (with --docs) a \
          whole directory of documents behind one shared buffer pool, reading one query per line \
          from standard input.")
    Term.(const run $ input $ store_arg $ docs_arg $ workers $ deadline_ms $ policy_arg
          $ pool_capacity)

(* ------------------------------------------------------------------ *)
(* workload: replay a mixed read workload at several client counts      *)
(* ------------------------------------------------------------------ *)

let workload_cmd =
  let open Cmdliner in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"DOC") in
  let clients =
    Arg.(
      value & opt string "1,2,4,8"
      & info [ "clients" ] ~docv:"LIST" ~doc:"Comma-separated client-domain counts.")
  in
  let rounds =
    Arg.(value & opt int 8 & info [ "rounds" ] ~docv:"N" ~doc:"Repetitions of the query mix.")
  in
  let fault_us =
    Arg.(
      value & opt float 500.0
      & info [ "fault-latency" ] ~docv:"US"
          ~doc:"Simulated device latency per page fault, in microseconds.")
  in
  let capacity =
    Arg.(
      value & opt int 0
      & info [ "capacity" ] ~docv:"FRAMES"
          ~doc:"Buffer-pool frames (0 = ~10% of the document's pages).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"MS" ~doc:"Per-query deadline in milliseconds.")
  in
  let workers_arg =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Fix the service's worker-domain count for every row (0 = one worker per client). \
             Clamped to what the hardware supports; the client counts then only vary the \
             submission pressure.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit one JSON object instead of the table: per-client-count rows with per-client \
             buffer-pool tally totals and latency-histogram percentiles.")
  in
  let mutate =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Interleave a single-writer mutation stream (insert/rename/delete triples under the \
             document root) with the draining reads: readers pin immutable renditions, every \
             commit bumps the epoch.  Each triple nets zero nodes, so the document ends \
             structurally unchanged (a store accumulates the WAL records).")
  in
  let open_loop_flag =
    Arg.(
      value & flag
      & info [ "open-loop" ]
          ~doc:
            "Open-loop multi-tenant mode: serve --docs copies of DOC behind one shared buffer \
             pool, pace arrivals at --rate per tenant regardless of completions, and report \
             per-tenant qps, hit rate and p99/p999 client-observed latency (queueing included).  \
             Tenant t00 is a cold scanner (full-document descendant steps); the others replay \
             the hot mix.")
  in
  let docs_n =
    Arg.(
      value & opt int 0
      & info [ "docs" ] ~docv:"N"
          ~doc:"Tenant documents in --open-loop mode (0 = 3: one scanner, two hot tenants).")
  in
  let flwor_flag =
    Arg.(
      value & flag
      & info [ "flwor" ]
          ~doc:
            "Add compiled FLWOR queries over the two largest tag fragments (including a value \
             join) to the read mix; the per-worker query cache compiles each one once.")
  in
  let rate =
    Arg.(
      value & opt float 200.0
      & info [ "rate" ] ~docv:"QPS"
          ~doc:"Open-loop arrival rate per tenant, in queries per second.")
  in
  let duration =
    Arg.(
      value & opt float 2.0
      & info [ "duration" ] ~docv:"S" ~doc:"Open-loop run length in seconds.")
  in
  (* the FLWOR additions to the read mix: a compiled scan per top tag
     plus a value join between the two largest fragments (possibly
     empty-resulted on documents without matching keys — the merge-join
     machinery still runs) *)
  let flwor_mix top_tags =
    List.map
      (fun tag -> Server.Xquery (Printf.sprintf "for $x in //%s return $x" tag))
      top_tags
    @
    match top_tags with
    | t1 :: t2 :: _ ->
      [
        Server.Xquery
          (Printf.sprintf "for $x in //%s for $y in //%s where $y/@id = $x/@id return $x" t1 t2);
      ]
    | _ -> []
  in
  (* One open-loop tenant: a submitter (this function, in its own
     domain) paces arrivals on the wall clock — never waiting for
     completions, the defining property of an open-loop load — while a
     reaper domain awaits the handles FIFO and records client-observed
     latency: completion time minus the *scheduled* arrival, so queueing
     delay under overload shows up in p99/p999 instead of silently
     throttling the client. *)
  let open_loop_tenant server queries ~rate ~duration =
    let hist = Scj_stats.Histogram.create () in
    let pending = Queue.create () in
    let m = Mutex.create () in
    let cv = Condition.create () in
    let closed = ref false in
    let completed = ref 0 and failed = ref 0 in
    let reaper =
      Domain.spawn (fun () ->
          let rec next () =
            Mutex.lock m;
            while Queue.is_empty pending && not !closed do
              Condition.wait cv m
            done;
            let item = Queue.take_opt pending in
            Mutex.unlock m;
            match item with
            | None -> ()
            | Some (scheduled, h) ->
              (match Server.await h with
              | Server.Done _ ->
                incr completed;
                Scj_stats.Histogram.add hist ((Unix.gettimeofday () -. scheduled) *. 1000.0)
              | Server.Timed_out | Server.Failed _ | Server.Dropped -> incr failed);
              next ()
          in
          next ())
    in
    let t0 = Unix.gettimeofday () in
    let interval = 1.0 /. rate in
    let submitted = ref 0 and rejected = ref 0 in
    let k = ref 0 in
    let finished = ref false in
    while not !finished do
      let scheduled = t0 +. (float_of_int !k *. interval) in
      if scheduled -. t0 >= duration then finished := true
      else begin
        let now = Unix.gettimeofday () in
        if scheduled > now then Unix.sleepf (scheduled -. now);
        (match Server.submit server queries.(!k mod Array.length queries) with
        | Server.Accepted h ->
          incr submitted;
          Mutex.lock m;
          Queue.push (scheduled, h) pending;
          Condition.signal cv;
          Mutex.unlock m
        | Server.Overloaded | Server.Stopped -> incr rejected);
        incr k
      end
    done;
    Mutex.lock m;
    closed := true;
    Condition.signal cv;
    Mutex.unlock m;
    Domain.join reaper;
    (hist, !submitted, !rejected, !completed, !failed)
  in
  let run_open_loop input docs_n rate duration fault_us capacity deadline workers_flag policy
      flwor json =
    match load_db input with
    | Error e ->
      prerr_endline e;
      1
    | Ok db0 ->
      let doc = Db.doc db0 in
      Db.close db0;
      let n = if docs_n > 0 then max 2 docs_n else 3 in
      let ids = List.init n (Printf.sprintf "t%02d") in
      let catalog =
        Catalog.of_docs ~policy ~page_ints:256 ~stripes:4 ~fault_latency:(fault_us /. 1e6)
          ?capacity:(if capacity > 0 then Some capacity else None)
          (List.map (fun id -> (id, doc)) ids)
      in
      let shard =
        Shard.create
          ?workers:(if workers_flag > 0 then Some (Exec.clamp_domains workers_flag) else None)
          ?deadline catalog
      in
      let top_tags =
        List.filteri (fun i _ -> i < 2) (List.map fst (largest_tags (doc_stats doc)))
      in
      let contexts =
        List.map (fun tag -> Nodeseq.of_sorted_array (Doc.tag_positions doc tag)) top_tags
      in
      let hot_mix =
        Array.of_list
          (List.concat_map
             (fun ctx -> [ Server.Step (`Desc, ctx); Server.Step (`Anc, ctx) ])
             contexts
          @ List.map (fun tag -> Server.Path (Printf.sprintf "/descendant::%s" tag)) top_tags
          @ (if flwor then flwor_mix top_tags else []))
      in
      let scan_mix = [| Server.Step (`Desc, Nodeseq.singleton (Doc.root doc)) |] in
      let tenants =
        List.map
          (fun id ->
            let server = Option.get (Shard.server shard id) in
            let queries = if String.equal id "t00" then scan_mix else hot_mix in
            (id, Domain.spawn (fun () -> open_loop_tenant server queries ~rate ~duration)))
          ids
      in
      let results = List.map (fun (id, d) -> (id, Domain.join d)) tenants in
      let tenant_stats = Shard.stats shard in
      Shard.shutdown shard;
      let pool_hits, pool_faults, pool_evictions = Shard.pool_stats shard in
      let row id =
        let hist, submitted, rejected, completed, failed = List.assoc id results in
        let s = List.assoc id tenant_stats in
        let tally = s.Server.tally_hits + s.Server.tally_misses in
        let hit_rate = float_of_int s.Server.tally_hits /. float_of_int (max 1 tally) in
        (hist, submitted, rejected, completed, failed, hit_rate)
      in
      if json then begin
        let tenant_rows =
          List.map
            (fun id ->
              let hist, submitted, rejected, completed, failed, hit_rate = row id in
              Printf.sprintf
                {|{"tenant":"%s","role":"%s","submitted":%d,"rejected":%d,"completed":%d,"failed":%d,"qps":%.3f,"hit_rate":%.6f,"latency":%s}|}
                id
                (if String.equal id "t00" then "scan" else "hot")
                submitted rejected completed failed
                (float_of_int completed /. duration)
                hit_rate
                (Scj_stats.Histogram.to_json hist))
            ids
        in
        Printf.printf
          {|{"experiment":"workload_open_loop","policy":"%s","docs":%d,"rate":%.1f,"duration_s":%.3f,"pool_hits":%d,"pool_faults":%d,"pool_evictions":%d,"tenants":[%s]}|}
          (Buffer_pool.policy_to_string policy)
          n rate duration pool_hits pool_faults pool_evictions
          (String.concat "," tenant_rows)
        |> print_newline
      end
      else begin
        Printf.printf
          "open loop: %d tenant(s), %.0f arrivals/s each for %.1fs, policy=%s, shared pool: \
           hits=%d faults=%d evictions=%d\n"
          n rate duration
          (Buffer_pool.policy_to_string policy)
          pool_hits pool_faults pool_evictions;
        Printf.printf "%6s %5s %9s %9s %8s %9s %10s %10s %10s\n" "tenant" "role" "arrivals"
          "completed" "q/s" "hit-rate" "p50[ms]" "p99[ms]" "p999[ms]";
        List.iter
          (fun id ->
            let hist, submitted, rejected, completed, failed, hit_rate = row id in
            ignore rejected;
            ignore failed;
            Printf.printf "%6s %5s %9d %9d %8.1f %8.1f%% %10.3f %10.3f %10.3f\n" id
              (if String.equal id "t00" then "scan" else "hot")
              submitted completed
              (float_of_int completed /. duration)
              (100.0 *. hit_rate)
              (Scj_stats.Histogram.percentile hist 50.0)
              (Scj_stats.Histogram.percentile hist 99.0)
              (Scj_stats.Histogram.percentile hist 99.9))
          ids
      end;
      Catalog.close catalog;
      0
  in
  let run_closed input clients rounds fault_us capacity deadline_ms workers_flag mutate flwor
      json =
    match load_db input with
    | Error e ->
      prerr_endline e;
      1
    | Ok db0 ->
      let doc = Db.doc db0 in
      Db.close db0;
      let clients =
        try List.map int_of_string (String.split_on_char ',' clients)
        with _ ->
          prerr_endline "workload: --clients must be a comma-separated list of integers";
          exit 2
      in
      (* the mix: staircase steps over the two largest tag fragments plus
         the matching XPath queries — reads only, one shared document *)
      let top_tags =
        List.filteri (fun i _ -> i < 2) (List.map fst (largest_tags (doc_stats doc)))
      in
      let contexts =
        List.map (fun tag -> Nodeseq.of_sorted_array (Doc.tag_positions doc tag)) top_tags
      in
      let mix =
        Server.Step (`Desc, Nodeseq.singleton (Doc.root doc))
        :: List.concat_map
             (fun ctx -> [ Server.Step (`Desc, ctx); Server.Step (`Anc, ctx) ])
             contexts
        @ List.map (fun tag -> Server.Path (Printf.sprintf "/descendant::%s" tag)) top_tags
        @ (if flwor then flwor_mix top_tags else [])
      in
      let n_queries = rounds * List.length mix in
      let deadline = Option.map (fun ms -> ms /. 1000.0) deadline_ms in
      if not json then
        Printf.printf "%8s %10s %10s %9s %9s %8s %8s %8s\n" "clients" "time[s]" "q/s" "speedup"
          "hit-rate" "timeout" "pinned" "commits";
      let serial_qps = ref 0.0 in
      let rows = ref [] in
      (* each client count gets a cold handle: simulated pages for
         in-memory documents, a freshly reopened store (real
         checksum-verified preads; --fault-latency does not apply) for
         store directories *)
      let fresh_db () =
        if Db.is_store_dir input then
          match Db.open_ input with
          | Error e -> failwith (Error_.to_string e)
          | Ok db ->
            if capacity > 0 then ignore (Db.paged ~capacity db);
            db
        else begin
          let db = Db.of_doc doc in
          Db.attach_paged db
            (load_paged ~fault_latency:(fault_us /. 1e6) ~page_ints:256 ~capacity doc);
          db
        end
      in
      (* the single-writer stream: insert a fragment as the root's last
         child, rename it, delete it — each write awaited, so commits are
         serialized while the read mix drains concurrently *)
      let fragment =
        Scj_xml.Tree.elem "hotspot" [ Scj_xml.Tree.elem "entry" [ Scj_xml.Tree.text "w" ] ]
      in
      let writer_triple server =
        let root = Doc.root doc in
        match
          Server.run server
            (Server.Write { op = Update.Insert { parent = root; before = None; fragment }; expect = None })
        with
        | Server.Done r when Nodeseq.length r.Server.result = 1 ->
          let pre = Nodeseq.get r.Server.result 0 in
          let f1 =
            match
              Server.run server
                (Server.Write { op = Update.Rename { pre; name = "hotspot2" }; expect = None })
            with
            | Server.Done _ -> 0
            | _ -> 1
          in
          let f2 =
            match
              Server.run server (Server.Write { op = Update.Delete { pre }; expect = None })
            with
            | Server.Done _ -> 0
            | _ -> 1
          in
          f1 + f2
        | _ -> 1
      in
      List.iter
        (fun workers ->
          let db = fresh_db () in
          let domains =
            if workers_flag > 0 then Exec.clamp_domains workers_flag else workers
          in
          let server =
            Server.create ~workers:domains ~queue_bound:(n_queries + 1) ?deadline db
          in
          let paged = Db.paged db in
          let t0 = Unix.gettimeofday () in
          (* submit the mix round by round; with --mutate one writer
             triple lands between rounds, so commits interleave with the
             draining reads instead of queueing behind all of them *)
          let handles = ref [] in
          let write_failures = ref 0 in
          for _ = 1 to rounds do
            List.iter
              (fun q ->
                match Server.submit server q with
                | Server.Accepted h -> handles := h :: !handles
                | Server.Overloaded | Server.Stopped -> ())
              mix;
            if mutate then write_failures := !write_failures + writer_triple server
          done;
          let write_failures = !write_failures in
          List.iter (fun h -> ignore (Server.await h)) (List.rev !handles);
          let dt = Unix.gettimeofday () -. t0 in
          let stats = Server.stats server in
          let hits, faults, _ = Buffer_pool.stats (Paged_doc.pool paged) in
          let pinned = Buffer_pool.pinned (Paged_doc.pool paged) in
          if write_failures > 0 then
            Printf.eprintf "workload: %d write(s) failed\n%!" write_failures;
          Server.shutdown server;
          Db.close db;
          let qps = float_of_int n_queries /. dt in
          if !serial_qps = 0.0 then serial_qps := qps;
          if json then
            (* per-client tallies: this client count ran over its own
               fresh pool, so Σ tallies = that pool's hits+faults *)
            rows :=
              Printf.sprintf
                {|{"clients":%d,"time_s":%.6f,"qps":%.3f,"speedup":%.4f,"completed":%d,"timed_out":%d,"failed":%d,"rejected":%d,"dropped":%d,"commits":%d,"epoch":%d,"write_failures":%d,"tally_hits":%d,"tally_misses":%d,"hit_rate":%.6f,"pool_hits":%d,"pool_misses":%d,"pinned":%d,"latency":%s}|}
                workers dt qps (qps /. !serial_qps) stats.Server.completed
                stats.Server.timed_out stats.Server.failed stats.Server.rejected
                stats.Server.dropped stats.Server.commits stats.Server.epoch write_failures
                stats.Server.tally_hits stats.Server.tally_misses
                (float_of_int stats.Server.tally_hits
                /. float_of_int (max 1 (stats.Server.tally_hits + stats.Server.tally_misses)))
                hits faults pinned
                (Scj_stats.Histogram.to_json stats.Server.latency)
              :: !rows
          else begin
            Printf.printf "%8d %10.3f %10.1f %8.2fx %8.1f%% %8d %8d %8d\n" workers dt qps
              (qps /. !serial_qps)
              (100.0 *. float_of_int hits /. float_of_int (max 1 (hits + faults)))
              stats.Server.timed_out pinned stats.Server.commits;
            Printf.printf "         latency: %s\n"
              (Format.asprintf "%a" Scj_stats.Histogram.pp stats.Server.latency)
          end)
        clients;
      if json then
        Printf.printf {|{"experiment":"workload","rows":[%s]}|}
          (String.concat "," (List.rev !rows))
      |> print_newline;
      0
  in
  let run input clients rounds fault_us capacity deadline_ms workers_flag mutate flwor json
      open_loop docs_n rate duration policy =
    if open_loop || docs_n > 0 then
      run_open_loop input docs_n rate duration fault_us capacity
        (Option.map (fun ms -> ms /. 1000.0) deadline_ms)
        workers_flag policy flwor json
    else
      run_closed input clients rounds fault_us capacity deadline_ms workers_flag mutate flwor
        json
  in
  Cmd.v
    (Cmd.info "workload"
       ~doc:
         "Replay a mixed read workload (paged staircase steps + XPath) through the query \
          service at increasing client-domain counts (closed loop), or — with --open-loop — \
          pace a fixed per-tenant arrival rate over several documents behind one shared buffer \
          pool, reporting per-tenant qps, hit rate and p99/p999 latency.")
    Term.(
      const run $ input $ clients $ rounds $ fault_us $ capacity $ deadline_ms $ workers_arg
      $ mutate $ flwor_flag $ json $ open_loop_flag $ docs_n $ rate $ duration $ policy_arg)

let () =
  let open Cmdliner in
  let doc = "staircase join: tree-aware XPath evaluation on a relational encoding" in
  let info = Cmd.info "scj" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            gen_cmd; encode_cmd; info_cmd; table_cmd; query_cmd; explain_cmd; plan_cmd;
            guide_cmd; analyze_cmd; xquery_cmd; validate_cmd; load_cmd; mutate_cmd; serve_cmd;
            workload_cmd;
          ]))
