(* adhoc-query: many small, mostly distinct XPath and FLWOR requests
   over a document that fits in the last-level cache, from a
   closed-loop client through the query service.  Per-request layers
   (dispatch, parse, plan, the prepared-query cache, child and
   predicate evaluation) dominate; there are no large staircase scans,
   so a kernel gain should not show here.  One client, not two: on a
   2-core host two clients and two workers oversubscribe the cores, and
   a spell of host contention then moved the two-client p50 by about
   50% against 6% for one client. *)

open Scj
open Report

let name = "adhoc-query"

let scale cfg = if cfg.smoke then 0.005 else 0.1

let workers = 2

let regions = [| "africa"; "asia"; "australia"; "europe"; "namerica"; "samerica" |]

let value_join =
  "for $p in //person for $a in //closed_auction where $a/buyer/@person = $p/@id return $p/name"

(* Request templates with their share of the stream (per hundred) and
   a generator drawing the constants; [persons], [items] and [auctions]
   bound ids and positions to ones the document has.  Measured one at a
   time through the server at XMark 0.1, the first four take 0.03 to
   0.18 ms, person-by-position 0.4 ms, the next three 0.7 to 1.3 ms and
   the last four 2.3 to 3.4 ms.  The shares put the median inside the
   person-by-position requests (in a gap between templates it would
   move with every small shift of the mix) and the p99 inside the heavy
   templates' tails. *)
let templates ~persons ~items ~auctions =
  let pick rng a = a.(Random.State.int rng (Array.length a)) in
  let int rng lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let xpath fmt = Printf.ksprintf (fun s -> Replay.Xpath s) fmt in
  let xquery fmt = Printf.ksprintf (fun s -> Replay.Xquery s) fmt in
  [
    (10, fun r -> xpath "/site/regions/%s/item[%d]/name" (pick r regions) (int r 1 10));
    (10, fun r -> xpath "/site/regions/%s/item" (pick r regions));
    (10, fun r -> xpath "/site/open_auctions/open_auction[%d]/bidder[1]/increase" (int r 1 auctions));
    ( 10,
      fun r ->
        xquery "for $a in /site/open_auctions/open_auction[%d]/bidder return $a/personref"
          (int r 1 auctions) );
    (25, fun r -> xpath "/site/people/person[%d]/name" (int r 1 persons));
    (10, fun r -> xpath "/site/people/person[@id=\"person%d\"]/name" (int r 0 (persons - 1)));
    (5, fun r -> xpath "/site/closed_auctions/closed_auction[price > %d]/buyer" (int r 10 300));
    (5, fun r -> xpath "//item[@id=\"item%d\"]/description//keyword" (int r 0 (items - 1)));
    (4, fun r -> xpath "/site/open_auctions/open_auction[initial > %d]/current" (int r 10 200));
    (4, fun r -> xpath "/site/people/person[profile/@income > %d]/name" (1000 * int r 10 100));
    ( 4,
      fun r ->
        xquery "for $p in /site/people/person where $p/profile/@income > %d return $p/name"
          (1000 * int r 10 100) );
    (3, fun _ -> Replay.Xquery value_join);
  ]

(* The template mix is exact (a shuffled deck), and every third request
   of a client repeats one of three hot requests of its template, so the
   prepared-query cache sometimes hits.  The hot requests are the same
   for every seed: drawn per seed, a third of the traffic would rest on
   a few draws and move the latency quantiles from seed to seed. *)
let stream ~seed ~salt doc =
  let persons = max 1 (Array.length (Util.elements doc "person")) in
  let items = max 1 (Array.length (Util.elements doc "item")) in
  let auctions = max 1 (Array.length (Util.elements doc "open_auction")) in
  let ts = Array.of_list (templates ~persons ~items ~auctions) in
  let hot =
    Array.mapi
      (fun i (_, gen) ->
        let r = Util.rng 0 (100 + i) in
        Array.init 3 (fun _ -> gen r))
      ts
  in
  let rng = Util.rng seed salt in
  let next_template = Util.deck rng (List.mapi (fun i (w, _) -> (i, w)) (Array.to_list ts)) in
  let k = ref 0 in
  fun () ->
    let i = next_template () in
    incr k;
    if !k mod 3 = 0 then hot.(i).(Random.State.int rng 3) else snd ts.(i) rng

(* One instance of every template: the warm-up pass. *)
let warm =
  [
    Replay.Xpath "/site/regions/asia/item[3]/name";
    Replay.Xpath "/site/people/person[1]/name";
    Replay.Xpath "/site/open_auctions/open_auction[1]/bidder[1]/increase";
    Replay.Xpath "/site/regions/europe/item";
    Replay.Xquery "for $a in /site/open_auctions/open_auction[1]/bidder return $a/personref";
    Replay.Xpath "/site/people/person[@id=\"person0\"]/name";
    Replay.Xpath "/site/closed_auctions/closed_auction[price > 100]/buyer";
    Replay.Xpath "//item[@id=\"item0\"]/description//keyword";
    Replay.Xpath "/site/open_auctions/open_auction[initial > 100]/current";
    Replay.Xpath "/site/people/person[profile/@income > 50000]/name";
    Replay.Xquery "for $p in /site/people/person where $p/profile/@income > 50000 return $p/name";
    Replay.Xquery value_join;
  ]

let to_query = function Replay.Xpath s -> Server.Path s | Replay.Xquery s -> Server.Xquery s

let setup xml =
  let db = Db.of_doc (Util.load_doc xml) in
  let server = Server.create ~workers db in
  List.iter (fun r -> ignore (Server.run server (to_query r))) warm;
  (db, server)

(* Every [sample_every]-th answer is kept (as a length and hash) and
   checked after the run against the interpreter (XQuery) or a forced
   naive session (XPath); repeated requests are checked once. *)
let sample_every = 20

let max_checks = 200

let verify doc samples =
  let naive = Eval.session ~strategy:(Option.get (Eval.strategy_of_string "naive")) doc in
  let auto = Eval.session doc in
  let seen = Hashtbl.create 64 in
  let wrong = ref 0 in
  List.iter
    (fun (req, got) ->
      if (not (Hashtbl.mem seen req)) && Hashtbl.length seen < max_checks then begin
        Hashtbl.add seen req ();
        let expected =
          match req with
          | Replay.Xpath src -> Util.answer (Eval.run_exn naive src)
          | Replay.Xquery src -> (
            match Result.bind (Xq_parse.parse src) (Xq_eval.interpret auto) with
            | Ok v -> Util.answer (Util.nodes_of_value v)
            | Error e -> failwith ("interpret: " ^ e))
        in
        if expected <> got then incr wrong
      end)
    samples;
  !wrong

let run cfg sp =
  let scale = scale cfg in
  let xml = Util.xmark_xml ~scale ~seed:cfg.seed in
  let (db, server), setup_s =
    Util.setups (setup_reps cfg 5)
      ~setup:(fun () -> setup xml)
      ~teardown:(fun (db, server) ->
        Server.shutdown server;
        Db.close db)
  in
  let doc = Db.doc db in
  let params = [ ("scale", scale); ("workers", float_of_int workers); ("clients", 1.0) ] in
  let served seconds =
    let next = stream ~seed:cfg.seed ~salt:10 doc in
    let samples = ref [] and k = ref 0 in
    let t0 = Util.now () in
    let tally =
      Load.closed_loop server
        ~running:(fun () -> Util.now () < t0 +. seconds)
        ~next:(fun () ->
          let r = next () in
          (r, to_query r))
        ~check:(fun r reply ->
          incr k;
          if !k mod sample_every = 0 then samples := (r, Util.answer reply.Server.result) :: !samples)
    in
    let wall = Util.now () -. t0 in
    Server.shutdown server;
    (tally, wall, !samples)
  in
  if not cfg.trace then begin
    let tally, wall, samples = served cfg.seconds in
    let peak = Util.peak_rss_mb () in
    let space = float_of_int (Util.reachable_bytes db) /. float_of_int (String.length xml) in
    let wrong = verify doc samples in
    let completed = Util.Samples.count tally.client in
    {
      attempted = tally.attempted;
      failed = tally.failed + wrong;
      correct = wrong = 0;
      metrics =
        [
          m "setup_s" "s" setup_s;
          m "latency_p50_ms" "ms" (Util.pct tally.client 50.0);
          m "latency_p99_ms" "ms" (Util.pct tally.client 99.0);
          m "throughput_qps" "qps" (float_of_int completed /. wall);
          m "peak_rss_mb" "MB" peak;
          m "space_amp" "ratio" space;
        ];
      extras =
        [
          m "nodes" "count" (float_of_int (Doc.n_nodes doc));
          m "checked" "count" (float_of_int (List.length samples));
        ];
      params;
    }
  end
  else begin
    let phase = cfg.seconds /. 4.0 in
    let tally, _, samples = served phase in
    let wrong = verify doc samples in
    let replay =
      Replay.run sp doc ~seconds:phase ~warm ~next:(stream ~seed:cfg.seed ~salt:10 doc) ~flwor:[]
    in
    let dir = Util.workdir name in
    let probe =
      Fun.protect
        ~finally:(fun () -> Util.cleanup dir)
        (fun () ->
          Probe.run sp ~dir ~xml doc
            ~ops:(Probe.ops ~seed:cfg.seed doc 20)
            ~warm:(fun s -> List.iter (Replay.run_plain s) warm)
            ~reps:3)
    in
    {
      attempted = tally.attempted;
      failed = tally.failed + wrong;
      correct = wrong = 0;
      metrics = merge [ probe; replay; server_metrics ~client:tally.client ~service:tally.service ];
      extras = [];
      params;
    }
  end
