(* axis-scan: the paper's workload.  One in-memory XMark document large
   enough that its columns exceed the last-level cache, one closed-loop
   client, and the paper's axis-step queries with cached plans: the
   staircase-join kernels do nearly all the work. *)

open Scj
open Report

let name = "axis-scan"

let scale cfg = if cfg.smoke then 0.005 else 0.5

(* Weights put the median inside one template's distribution (the
   cumulative share below the bidder query is 0.4) rather than in the
   gap between two templates, which would make p50 jumpy. *)
let templates =
  [
    ("/descendant::profile/descendant::education", 2);
    ("/descendant::increase/ancestor::bidder", 2);
    ("/descendant::bidder[descendant::increase]", 2);
    ("//open_auction[bidder]/following::closed_auction", 2);
    ("//closed_auction/preceding::person", 1);
    ("//*", 1);
  ]

let queries = List.map fst templates

let query db q = match Db.query db q with Ok r -> r | Error e -> failwith (Error.to_string e)

(* Ingest plus the warm-up pass that plans every template and builds the
   statistics and views the plans use. *)
let setup xml =
  let db = Db.of_doc (Util.load_doc xml) in
  List.iter (fun q -> ignore (query db q)) queries;
  db

(* Expected answers from a forced no-skipping staircase session. *)
let oracle doc =
  let strategy = Option.get (Eval.strategy_of_string "staircase-noskip") in
  let s = Eval.session ~strategy doc in
  List.map (fun q -> (q, Util.answer (Eval.run_exn s q))) queries

let run cfg sp =
  let scale = scale cfg in
  let xml = Util.xmark_xml ~scale ~seed:cfg.seed in
  let db, setup_s =
    Util.setups (setup_reps cfg 3) ~setup:(fun () -> setup xml) ~teardown:Db.close
  in
  let doc = Db.doc db in
  let expected = oracle doc in
  let next = Util.deck (Util.rng cfg.seed 1) templates in
  let wrong = ref 0 in
  let check q r = if Util.answer r <> List.assoc q expected then incr wrong in
  let params = [ ("scale", scale); ("clients", 1.0) ] in
  if not cfg.trace then begin
    (* closed loop; the clock covers only the queries, not the checks *)
    let lat = Util.Samples.create () and busy = ref 0.0 in
    while !busy < cfg.seconds do
      let q = next () in
      let r, dt = Util.timed (fun () -> query db q) in
      Util.Samples.add lat (1000.0 *. dt);
      busy := !busy +. dt;
      check q r
    done;
    let n = Util.Samples.count lat in
    let peak = Util.peak_rss_mb () in
    let space = float_of_int (Util.reachable_bytes db) /. float_of_int (String.length xml) in
    {
      attempted = n;
      failed = !wrong;
      correct = !wrong = 0;
      metrics =
        [
          m "setup_s" "s" setup_s;
          m "latency_p50_ms" "ms" (Util.pct lat 50.0);
          m "latency_p99_ms" "ms" (Util.pct lat 99.0);
          m "throughput_qps" "qps" (float_of_int n /. !busy);
          m "peak_rss_mb" "MB" peak;
          m "space_amp" "ratio" space;
        ];
      extras = [ m "nodes" "count" (float_of_int (Doc.n_nodes doc)) ];
      params;
    }
  end
  else begin
    let phase = cfg.seconds /. 4.0 in
    (* the same single client, through the query service *)
    let server = Server.create ~workers:2 db in
    let until = Util.now () +. phase in
    let served =
      Load.closed_loop server ~running:(fun () -> Util.now () < until)
        ~next:(fun () ->
          let q = next () in
          (q, Server.Path q))
        ~check:(fun q r -> check q r.Server.result)
    in
    Server.shutdown server;
    let replay =
      Replay.run sp doc ~seconds:phase
        ~warm:(List.map (fun q -> Replay.Xpath q) queries)
        ~next:(fun () -> Replay.Xpath (next ()))
        ~flwor:(List.map (Printf.sprintf "for $x in %s return $x") queries)
    in
    let dir = Util.workdir name in
    let probe =
      Fun.protect
        ~finally:(fun () -> Util.cleanup dir)
        (fun () ->
          Probe.run sp ~dir ~xml doc
            ~ops:(Probe.ops ~seed:cfg.seed doc 4)
            ~warm:(fun s -> List.iter (fun q -> ignore (Eval.run_exn s q)) queries)
            ~reps:3)
    in
    {
      attempted = served.attempted;
      failed = served.failed + !wrong;
      correct = !wrong = 0;
      metrics = merge [ probe; replay; server_metrics ~client:served.client ~service:served.service ];
      extras = [];
      params;
    }
  end
