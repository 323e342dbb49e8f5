(* XMark workload: generate an auction document and evaluate the paper's
   queries Q1 and Q2 under every axis-step strategy, comparing results,
   node touches, and wall-clock time.

   Run with:  dune exec examples/xmark_queries.exe -- [scale]
   (default scale 0.01 ≈ a 1 MB document) *)

module Doc = Scj.Doc
module Nodeseq = Scj.Nodeseq
module Stats = Scj.Stats
module Sj = Scj.Staircase
module Eval = Scj.Eval
module Xmark = Scj.Xmark

let strategies =
  let module Plan = Scj.Plan in
  [
    ("auto (cost-based plan)", Eval.default_strategy);
    ("staircase (no skip)", { Eval.backend = `Force (Plan.Serial Sj.No_skipping); pushdown = `Never });
    ("staircase (skip)", { Eval.backend = `Force (Plan.Serial Sj.Skipping); pushdown = `Never });
    ("staircase (estimate)", { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Never });
    ("staircase + pushdown", { Eval.backend = `Force (Plan.Serial Sj.Estimation); pushdown = `Always });
    ("naive region queries", { Eval.backend = `Force Plan.Naive; pushdown = `Never });
    ("sql plan (tree-unaware)", { Eval.backend = `Force (Plan.Btree { delimiter = true }); pushdown = `Never });
    ("mpmgjn", { Eval.backend = `Force Plan.Mpmgjn; pushdown = `Never });
    ("structural join", { Eval.backend = `Force Plan.Structjoin; pushdown = `Never });
  ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

let () =
  let scale = if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.01 in
  Printf.printf "generating XMark document at scale %g ...\n%!" scale;
  let tree = Xmark.generate (Xmark.config ~scale ()) in
  let doc = Doc.of_tree tree in
  Printf.printf "document: %d nodes, height %d\n" (Doc.n_nodes doc) (Doc.height doc);
  Printf.printf "profiles %d, educations %d, bidders %d, increases %d\n\n"
    (Array.length (Doc.tag_positions doc "profile"))
    (Array.length (Doc.tag_positions doc "education"))
    (Array.length (Doc.tag_positions doc "bidder"))
    (Array.length (Doc.tag_positions doc "increase"));

  let queries =
    [
      ("Q1", "/descendant::profile/descendant::education");
      ("Q2", "/descendant::increase/ancestor::bidder");
    ]
  in
  List.iter
    (fun (label, query) ->
      Printf.printf "%s: %s\n" label query;
      Printf.printf "  %-26s %10s %12s %12s %10s\n" "strategy" "result" "touched" "duplicates"
        "time [ms]";
      List.iter
        (fun (name, strategy) ->
          let session = Eval.session ~strategy doc in
          let exec = Scj.Exec.make () in
          let stats = exec.Scj.Exec.stats in
          let result, ms = time (fun () -> Eval.run_exn ~exec session query) in
          Printf.printf "  %-26s %10d %12d %12d %10.2f\n" name (Nodeseq.length result)
            (Stats.touched stats) stats.Stats.duplicates ms)
        strategies;
      print_newline ())
    queries;

  (* the paper's future-work fragmentation experiment: a tag fragment is
     the partition of the dataguide paths ending in its tag *)
  let cat = Scj.Planner.catalog doc in
  let fragment tag =
    Scj.Planner.view cat (Scj.Doc_stats.tag (Scj.Planner.doc_stats cat) tag).paths
  in
  let (profile, education), build_ms =
    time (fun () -> (fragment "profile", fragment "education"))
  in
  let root = Nodeseq.singleton (Doc.root doc) in
  let (profiles, educations), frag_ms =
    time (fun () ->
        let p = Sj.desc_view doc profile root in
        (p, Sj.desc_view doc education p))
  in
  Printf.printf "fragmented Q1: %d profiles -> %d educations in %.2f ms (+%.1f ms one-off build)\n"
    (Nodeseq.length profiles) (Nodeseq.length educations) frag_ms build_ms;

  (* partition-parallel execution *)
  let increases = Nodeseq.of_sorted_array (Doc.tag_positions doc "increase") in
  let seq_result, seq_ms = time (fun () -> Sj.anc doc increases) in
  let par_result, par_ms = time (fun () -> Scj.Parallel.anc ~exec:(Scj.Exec.make ~domains:4 ()) doc increases) in
  assert (Nodeseq.equal seq_result par_result);
  Printf.printf "parallel ancestor step: sequential %.2f ms, 4 domains %.2f ms\n" seq_ms par_ms
