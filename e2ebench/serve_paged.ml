(* serve-paged: three tenants served off their page files through one
   shared 2Q buffer pool that holds a quarter of the corpus pages, under
   an open-loop arrival ladder.  One tenant is a cold full-document
   scanner, the other two serve hot Step/Path queries.  Buffer-pool
   faults, checksum-verified preads, scan resistance and queueing
   dominate; in-memory layers are a small share. *)

open Scj
open Report

let name = "serve-paged"

let ids = [ "t0"; "t1"; "t2" ]

let scale cfg = if cfg.smoke then 0.005 else 0.1

let workers = 2

(* Deep enough that the overloaded top rung queues instead of refusing. *)
let queue_bound = 256

(* Arrival rates of the ladder (per second, all tenants) and the share
   of the run each rung takes.  The middle rung is nominal: it reports
   latency and yields about 1900 hot samples in a 25 s run.  On a 2-core
   EPYC the mix keeps a hot p99 of 12 to 30 ms up to 160 arrivals/s and
   falls into a growing backlog near 180/s, where the p99 reaches
   seconds; the top rung stays below 80% of that knee.  Its short run
   gives a p99 of up to 76 ms over 40 runs, so the limit below sits at
   twice that, far from both sides, and the sustained rung repeats from
   run to run. *)
let rates cfg = if cfg.smoke then [| 20.0; 40.0; 60.0 |] else [| 70.0; 100.0; 130.0 |]

let shares = [| 0.05; 0.85; 0.1 |]

(* The hot-tenant p99 a rung must meet to count as sustained. *)
let p99_limit_ms = 150.0

(* One arrival in ten is a scan of t0. *)
let scan_every = 10

let hot_paths =
  [
    "/descendant::profile/descendant::education";
    "/site/people/person[profile/@income > 50000]/name";
    "//open_auction[bidder]/current";
  ]

type request = { tenant : string; q : Server.query; expected : Util.answer }

(* Page count of one store: post, attribute-prefix and size extents. *)
let pages n =
  let p ints = (ints + 1023) / 1024 in
  (2 * p n) + p (n + 1)

(* Builds every tenant's store before the set-up clock starts: the build
   is bound by page-cache write-back (about ten times its CPU time on
   a 2-core EPYC VM), whose speed drifts between runs by more than any
   usable bound; the probe's store.create_ms reports it.  Returns the
   requests, each with its answer computed in memory on the tenant's
   document (t0 scans, t1 and t2 serve the hot queries), and the
   corpus's page count. *)
let ingest ~dir xmls =
  let tenant id xml =
    let doc = Util.load_doc xml in
    Store.close (Store.create ~path:(Filename.concat dir id) doc);
    let q1, q2 = Probe.contexts doc in
    let queries =
      if id = "t0" then [ Server.Step (`Desc, Nodeseq.singleton (Doc.root doc)) ]
      else Server.Step (`Desc, q1) :: Server.Step (`Anc, q2) :: List.map (fun p -> Server.Path p) hot_paths
    in
    let answer = function
      | Server.Step (`Desc, c) -> Staircase.desc doc c
      | Server.Step (`Anc, c) -> Staircase.anc doc c
      | Server.Path p -> Eval.run_exn (Eval.session doc) p
      | Server.Xquery _ | Server.Write _ -> invalid_arg "answer"
    in
    ( List.map (fun q -> { tenant = id; q; expected = Util.answer (answer q) }) queries,
      pages (Doc.n_nodes doc) )
  in
  let per_tenant = List.map2 tenant ids xmls in
  (List.concat_map fst per_tenant, List.fold_left (fun acc (_, p) -> acc + p) 0 per_tenant)

(* Open the corpus behind one pool, start the shard and send each
   request once to warm it. *)
let setup ~dir ~capacity requests =
  let catalog =
    match Catalog.open_dir ~policy:Buffer_pool.Two_q ~stripes:4 ~capacity dir with
    | Ok c -> c
    | Error e -> failwith (Error.to_string e)
  in
  let shard = Shard.create ~workers ~queue_bound catalog in
  List.iter
    (fun r ->
      match Shard.run shard ~doc:r.tenant r.q with Server.Done _ -> () | _ -> failwith "warm-up failed")
    requests;
  (catalog, shard)

type completion = {
  hot : bool;
  scheduled : float;
  finished : float;
  service_ms : float;
  answered : bool;
  right : bool;
}

type rung = {
  rate : float;
  start : float;
  results : completion list;
  refused : int;
  late_ms : float;  (** the generator's worst lateness *)
}

(* One rung of open-loop arrivals at [rate] for [seconds]: requests go
   out on schedule whatever the completions, and each is awaited by its
   own thread, which timestamps the completion as it happens (one FIFO
   reaper would charge a fast query for a slow one ahead of it).
   Latency runs from the scheduled arrival.  Returns a function that
   waits for the rung's stragglers. *)
let rung shard ~rate ~seconds ~next =
  let m = Mutex.create () in
  let results = ref [] and refused = ref 0 and late = ref 0.0 and waiters = ref [] in
  let start = Util.now () in
  for k = 0 to int_of_float (rate *. seconds) - 1 do
    let scheduled = start +. (float_of_int k /. rate) in
    let wait = scheduled -. Util.now () in
    if wait > 0.0 then Unix.sleepf wait;
    late := Float.max !late (Util.now () -. scheduled);
    let hot, r = next () in
    match Shard.submit shard ~doc:r.tenant r.q with
    | Some (Server.Accepted h) ->
      let waiter () =
        let o = Server.await h in
        let finished = Util.now () in
        let c =
          match o with
          | Server.Done reply ->
            let right = Util.answer reply.Server.result = r.expected in
            { hot; scheduled; finished; service_ms = reply.Server.latency_ms; answered = true; right }
          | Server.Timed_out | Server.Failed _ | Server.Dropped ->
            { hot; scheduled; finished; service_ms = 0.0; answered = false; right = true }
        in
        Mutex.lock m;
        results := c :: !results;
        Mutex.unlock m
      in
      waiters := Thread.create waiter () :: !waiters
    | Some (Server.Overloaded | Server.Stopped) | None -> incr refused
  done;
  fun () ->
    List.iter Thread.join !waiters;
    { rate; start; results = !results; refused = !refused; late_ms = 1000.0 *. !late }

let samples f r =
  let s = Util.Samples.create () in
  List.iter (fun c -> match f c with Some x -> Util.Samples.add s x | None -> ()) r.results;
  s

let latency_ms c = 1000.0 *. (c.finished -. c.scheduled)

let hot_ms = samples (fun c -> if c.hot && c.answered then Some (latency_ms c) else None)

let failures r =
  r.refused + List.length (List.filter (fun c -> not (c.answered && c.right)) r.results)

let wrong r = List.length (List.filter (fun c -> not c.right) r.results)

(* Completions per second from the rung's start to its last
   completion. *)
let achieved r =
  let last = List.fold_left (fun acc c -> Float.max acc c.finished) r.start r.results in
  float_of_int (List.length (List.filter (fun c -> c.answered) r.results)) /. (last -. r.start)

(* Sustained: the hot p99 meets the limit, nothing failed or was
   refused, and completions kept pace with arrivals (no growing
   backlog: a tenth short of the rate is a quarter second behind on the
   shortest rung). *)
let sustained r =
  Util.pct (hot_ms r) 99.0 <= p99_limit_ms && failures r = 0 && achieved r >= 0.9 *. r.rate

let pool_delta shard f =
  let h0, f0, e0 = Shard.pool_stats shard in
  let x = f () in
  let h1, f1, e1 = Shard.pool_stats shard in
  (x, (h1 - h0, f1 - f0, e1 - e0))

let bytes_read catalog =
  List.fold_left
    (fun acc (_, db) -> acc + match Db.store db with Some s -> Store.bytes_read s | None -> 0)
    0 (Catalog.to_list catalog)

(* Hot tenants' share of their own page accesses served from the pool. *)
let hot_hit_rate shard =
  let h, t =
    List.fold_left
      (fun (h, t) (id, s) ->
        if id = "t0" then (h, t)
        else (h + s.Server.tally_hits, t + s.Server.tally_hits + s.Server.tally_misses))
      (0, 0) (Shard.stats shard)
  in
  float_of_int h /. float_of_int (max 1 t)

let run cfg sp =
  let scale = scale cfg in
  let xmls = List.mapi (fun i _ -> Util.xmark_xml ~scale ~seed:((cfg.seed * 3) + i)) ids in
  let xml_bytes = List.fold_left (fun acc x -> acc + String.length x) 0 xmls in
  let dir = Util.workdir name in
  let rates = rates cfg in
  let params =
    [ ("scale", scale); ("tenants", 3.0); ("workers", float_of_int workers);
      ("queue_bound", float_of_int queue_bound); ("rate_r1", rates.(0)); ("rate_r2", rates.(1));
      ("rate_r3", rates.(2)); ("p99_limit_ms", p99_limit_ms) ]
  in
  Fun.protect
    ~finally:(fun () -> Util.cleanup dir)
    (fun () ->
      let requests, corpus_pages = ingest ~dir xmls in
      let (catalog, shard), setup_s =
        Util.setups (setup_reps cfg 5)
          ~setup:(fun () -> setup ~dir ~capacity:(corpus_pages / 4) requests)
          ~teardown:(fun (catalog, shard) ->
            Shard.shutdown shard;
            Catalog.close catalog)
      in
      let scan, hot = List.partition (fun r -> r.tenant = "t0") requests in
      (* scans at a fixed spacing, so two never overlap by chance; the
         hot queries in an exact, shuffled mix *)
      let next_hot = Util.deck (Util.rng cfg.seed 3) (List.map (fun r -> (r, 1)) hot) in
      let k = ref 0 in
      let next () =
        incr k;
        if !k mod scan_every = 0 then (false, List.hd scan) else (true, next_hot ())
      in
      let finish o =
        Shard.shutdown shard;
        Catalog.close catalog;
        o
      in
      if not cfg.trace then begin
        (* every rung's arrivals go out on time; stragglers are awaited after *)
        let pending =
          Array.mapi (fun i rate -> rung shard ~rate ~seconds:(shares.(i) *. cfg.seconds) ~next) rates
        in
        let rungs = Array.map (fun f -> f ()) pending in
        let peak = Util.peak_rss_mb () in
        let store_bytes =
          List.fold_left (fun acc id -> acc + Util.dir_bytes (Filename.concat dir id)) 0 ids
        in
        let nominal = rungs.(1) in
        (* the highest sustained rung, or the lowest when none is *)
        let top = Array.fold_left max 0 (Array.mapi (fun i r -> if sustained r then i else 0) rungs) in
        let sum f = Array.fold_left (fun acc r -> acc + f r) 0 rungs in
        let scans = samples (fun c -> if c.hot then None else Some c.service_ms) nominal in
        let extra =
          [
            m "server.p99_ms_r1" "ms" (Util.pct (hot_ms rungs.(0)) 99.0);
            m "server.p99_ms_r2" "ms" (Util.pct (hot_ms rungs.(1)) 99.0);
            m "server.p99_ms_r3" "ms" (Util.pct (hot_ms rungs.(2)) 99.0);
            m "server.scan_p50_ms" "ms" (Util.pct scans 50.0);
            m "server.gen_late_ms" "ms" (Array.fold_left (fun acc r -> Float.max acc r.late_ms) 0.0 rungs);
            m "pager.hot_hit_rate" "ratio" (hot_hit_rate shard);
            m "sustained_rung" "count" (float_of_int (top + 1));
            m "hot_samples_nominal" "count" (float_of_int (Util.Samples.count (hot_ms nominal)));
          ]
        in
        finish
          {
            attempted = sum (fun r -> r.refused + List.length r.results);
            failed = sum failures;
            correct = sum wrong = 0;
            metrics =
              [
                m "setup_s" "s" setup_s;
                m "latency_p50_ms" "ms" (Util.pct (hot_ms nominal) 50.0);
                m "latency_p99_ms" "ms" (Util.pct (hot_ms nominal) 99.0);
                m "throughput_qps" "qps" (achieved rungs.(top));
                m "peak_rss_mb" "MB" peak;
                m "space_amp" "ratio" (float_of_int store_bytes /. float_of_int xml_bytes);
              ];
            extras = extra;
            params;
          }
      end
      else begin
        let phase = cfg.seconds /. 4.0 in
        let read0 = bytes_read catalog in
        let served, (hits, faults, evictions) =
          pool_delta shard (fun () -> rung shard ~rate:rates.(1) ~seconds:phase ~next ())
        in
        let read = bytes_read catalog - read0 in
        let done_ = max 1 (List.length (List.filter (fun c -> c.answered) served.results)) in
        let per_query x = float_of_int x /. float_of_int done_ in
        let of_hot f = samples (fun c -> if c.hot && c.answered then Some (f c) else None) served in
        let client = of_hot latency_ms and service = of_hot (fun c -> c.service_ms) in
        let xml1 = List.nth xmls 1 in
        let doc1 = Util.load_doc xml1 in
        let replay =
          Replay.run sp doc1 ~seconds:phase
            ~warm:(List.map (fun p -> Replay.Xpath p) hot_paths)
            ~next:(Util.deck (Util.rng cfg.seed 4) (List.map (fun p -> (Replay.Xpath p, 1)) hot_paths))
            ~flwor:(List.map (Printf.sprintf "for $x in %s return $x") hot_paths)
        in
        let probe =
          Probe.run sp ~dir ~xml:xml1 doc1
            ~ops:(Probe.ops ~seed:cfg.seed doc1 20)
            ~warm:(fun s -> List.iter (fun p -> ignore (Eval.run_exn s p)) hot_paths)
            ~reps:3
        in
        let pager =
          [
            m "pager.hit_rate" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + faults)));
            m "pager.faults_per_query" "count" (per_query faults);
            m "pager.evictions_per_query" "count" (per_query evictions);
            m "store.bytes_read_per_query" "bytes" (per_query read);
          ]
        in
        finish
          {
            attempted = served.refused + List.length served.results;
            failed = failures served;
            correct = wrong served = 0;
            metrics = merge [ probe; replay; server_metrics ~client ~service; pager ];
            extras = [];
            params;
          }
      end)
