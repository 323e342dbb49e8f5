(* Tests for the concurrent query service (Scj_server.Server) and the
   latency histogram backing its statistics.

   The load-bearing properties:

   - concurrent execution is bit-identical to serial: for every query the
     service returns the same node sequence and the same work counters as
     a fresh single-threaded evaluation;
   - accounting is exact: pool hits+faults = Σ per-query tallies, every
     submission is counted exactly once, and no pin survives a run —
     including runs where queries time out mid-join;
   - backpressure refuses instead of queueing unboundedly. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Stats = Scj_stats.Stats
module Histogram = Scj_stats.Histogram
module Exec = Scj_trace.Exec
module Eval = Scj_xpath.Eval
module Paged_doc = Scj_pager.Paged_doc
module Buffer_pool = Scj_pager.Buffer_pool
module Server = Scj_server.Server
module Db = Scj_db.Db
module Err = Scj_error.Error
module Fuzz = Test_support.Fuzz

(* a service over [doc] reading through [paged] (the epoch-0 rendition) *)
let server_over ?workers ?queue_bound ?deadline doc paged =
  let db = Db.of_doc doc in
  Db.attach_paged db paged;
  Server.create ?workers ?queue_bound ?deadline db

let submit_exn server q =
  match Server.submit server q with
  | Server.Accepted h -> Some h
  | Server.Overloaded -> None
  | Server.Stopped -> Alcotest.fail "submit answered Stopped on a live service"

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* Serial reference: one fresh session / fresh paged doc per query, no
   shared state at all. *)
let serial_eval doc paged q =
  let stats = Stats.create () in
  let exec = Exec.make ~stats () in
  let result =
    match q with
    | Server.Path src -> Eval.run_exn ~exec (Eval.session doc) src
    | Server.Xquery src -> (
      match Scj_xquery.Xq_eval.run ~exec (Eval.session doc) src with
      | Error e -> Alcotest.fail e
      | Ok v ->
        Nodeseq.of_unsorted
          (List.filter_map (function Scj_xquery.Xq_eval.Node n -> Some n | _ -> None) v))
    | Server.Step (`Desc, ctx) -> Paged_doc.desc ~exec paged ctx
    | Server.Step (`Anc, ctx) -> Paged_doc.anc ~exec paged ctx
    | Server.Write _ -> Alcotest.fail "serial oracle cannot run writes"
  in
  (result, stats)

let query_mix doc =
  let n = Doc.n_nodes doc in
  let ctx seed k =
    let st = Random.State.make [| 0xbe; seed |] in
    Nodeseq.of_unsorted (List.init (min n k) (fun _ -> Random.State.int st n))
  in
  [
    Server.Step (`Desc, ctx 1 5);
    Server.Step (`Anc, ctx 2 7);
    Server.Path "/descendant::a";
    Server.Step (`Desc, Nodeseq.singleton 0);
    Server.Path "/descendant::item/ancestor::b";
    Server.Xquery "for $i in /descendant::item where exists($i/child::a) return $i";
    Server.Step (`Anc, ctx 3 3);
  ]

(* ------------------------------------------------------------------ *)
(* concurrent runs = serial runs, and the accounting is exact           *)
(* ------------------------------------------------------------------ *)

let test_concurrent_matches_serial () =
  let doc = Fuzz.doc Fuzz.Uniform 7 in
  let mix = query_mix doc in
  let queries = List.concat (List.init 4 (fun _ -> mix)) in
  let n_queries = List.length queries in
  (* serial oracle over its own paged doc so its pool traffic cannot
     perturb the service's tally invariant *)
  let serial_paged = Paged_doc.load ~page_ints:8 ~capacity:6 doc in
  let expected = List.map (serial_eval doc serial_paged) queries in
  let paged =
    Paged_doc.load ~page_ints:8 ~stripes:4 ~capacity:16 ~fault_latency:0.0001 doc
  in
  let server = server_over ~workers:4 ~queue_bound:n_queries doc paged in
  let handles =
    List.map
      (fun q ->
        match Server.submit server q with
        | Server.Accepted h -> h
        | Server.Overloaded | Server.Stopped ->
          Alcotest.fail "submit refused below the queue bound")
      queries
  in
  let outcomes = List.map Server.await handles in
  List.iteri
    (fun i (outcome, (exp_result, exp_stats)) ->
      match outcome with
      | Server.Done r ->
        check_bool
          (Printf.sprintf "query %d result = serial" i)
          true
          (Nodeseq.equal exp_result r.Server.result);
        Alcotest.(check (list (pair string int)))
          (Printf.sprintf "query %d counters = serial" i)
          (Stats.all_assoc exp_stats)
          (Stats.all_assoc r.Server.work)
      | Server.Timed_out -> Alcotest.failf "query %d timed out" i
      | Server.Failed e -> Alcotest.failf "query %d failed: %s" i (Err.to_string e)
      | Server.Dropped -> Alcotest.failf "query %d dropped" i)
    (List.combine outcomes expected);
  let stats = Server.stats server in
  check_int "all queries completed" n_queries stats.Server.completed;
  check_int "none rejected" 0 stats.Server.rejected;
  check_int "latency histogram saw every query" n_queries
    (Histogram.count stats.Server.latency);
  let hits, faults, _ = Server.pool_stats server in
  check_int "pool hits = summed tallies" stats.Server.tally_hits hits;
  check_int "pool faults = summed tallies" stats.Server.tally_misses faults;
  check_int "pins drained" 0 (Buffer_pool.pinned (Paged_doc.pool paged));
  Server.shutdown server;
  (* shutdown is idempotent and submissions are refused afterwards *)
  Server.shutdown server;
  (match Server.submit server (List.hd mix) with
  | Server.Stopped -> ()
  | Server.Accepted _ -> Alcotest.fail "submit accepted after shutdown"
  | Server.Overloaded -> Alcotest.fail "shutdown misreported as backpressure")

(* ------------------------------------------------------------------ *)
(* deadlines: overrunning queries abort without poisoning the pool      *)
(* ------------------------------------------------------------------ *)

let test_timeout_does_not_poison_pool () =
  let doc = Fuzz.doc Fuzz.Uniform 11 in
  let n = Doc.n_nodes doc in
  (* slow simulated disk: 5ms per fault, tiny pages, so any real scan
     overruns a microsecond deadline by orders of magnitude *)
  let paged = Paged_doc.load ~page_ints:4 ~capacity:8 ~fault_latency:0.005 doc in
  let server = server_over ~workers:2 doc paged in
  let all = Nodeseq.of_unsorted (List.init n Fun.id) in
  (match Server.run ~deadline:1e-6 server (Server.Step (`Desc, all)) with
  | Server.Timed_out -> ()
  | Server.Done _ -> Alcotest.fail "expected a timeout, query completed"
  | Server.Failed e -> Alcotest.failf "expected a timeout, got failure: %s" (Err.to_string e)
  | Server.Dropped -> Alcotest.fail "expected a timeout, query dropped" );
  check_int "pins drained after timeout" 0 (Buffer_pool.pinned (Paged_doc.pool paged));
  (* the pool still works: the same query without a deadline succeeds and
     is correct *)
  let expected, _ =
    serial_eval doc (Paged_doc.load ~page_ints:4 ~capacity:8 doc) (Server.Step (`Desc, all))
  in
  (match Server.run server (Server.Step (`Desc, all)) with
  | Server.Done r ->
    check_bool "post-timeout query correct" true (Nodeseq.equal expected r.Server.result)
  | Server.Timed_out -> Alcotest.fail "deadline-free query timed out"
  | Server.Failed e -> Alcotest.failf "deadline-free query failed: %s" (Err.to_string e)
  | Server.Dropped -> Alcotest.fail "deadline-free query dropped" );
  let stats = Server.stats server in
  check_int "timeout counted" 1 stats.Server.timed_out;
  check_int "completion counted" 1 stats.Server.completed;
  let hits, faults, _ = Server.pool_stats server in
  check_int "tally invariant survives timeouts (hits)" stats.Server.tally_hits hits;
  check_int "tally invariant survives timeouts (faults)" stats.Server.tally_misses faults;
  check_int "pins drained at the end" 0 (Buffer_pool.pinned (Paged_doc.pool paged));
  Server.shutdown server

(* A FLWOR cross product whose return runs no path: only the row loops'
   own polling lets the deadline interrupt it. *)
let test_flwor_deadline () =
  let doc = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.1 ())) in
  let server = server_over ~workers:1 doc (Paged_doc.load ~capacity:64 doc) in
  let cross = "let $xs := //person for $a in $xs for $b in $xs return 1" in
  (match Server.run ~deadline:0.05 server (Server.Xquery cross) with
  | Server.Timed_out -> ()
  | Server.Done r ->
    Alcotest.failf "expected a timeout, %d item(s) after %.0f ms" (Nodeseq.length r.Server.result)
      r.Server.latency_ms
  | Server.Failed e -> Alcotest.failf "expected a timeout, got failure: %s" (Err.to_string e)
  | Server.Dropped -> Alcotest.fail "expected a timeout, query dropped");
  (match Server.run server (Server.Path "/site/people/person[1]") with
  | Server.Done r -> check_int "worker serves after the timeout" 1 (Nodeseq.length r.Server.result)
  | _ -> Alcotest.fail "worker did not survive the timed-out FLWOR");
  Server.shutdown server

(* Failures are classed by cause: a step context outside the pinned
   rendition is the caller's ([Validation], before any join runs), a
   device error is [Io], and any other exception is an engine defect
   ([Internal], counted apart).  The worker keeps serving after each. *)
let test_error_classes () =
  let doc = Fuzz.doc Fuzz.Uniform 3 in
  let n = Doc.n_nodes doc in
  let failing exn =
    let page_ints = 8 in
    let length = 3 * (((n + 1) / page_ints) + 1) * page_ints in
    let store = Buffer_pool.Store.of_fn ~page_ints ~length (fun _ -> raise exn) in
    Paged_doc.attach ~n ~height:(Doc.height doc)
      (Buffer_pool.create ~capacity:8 store)
  in
  let still_serves server =
    match Server.run server (Server.Path "/descendant::a") with
    | Server.Done _ -> ()
    | _ -> Alcotest.fail "worker did not survive the failure"
  in
  let expect what server q classify =
    match Server.run server q with
    | Server.Failed e when classify e -> still_serves server
    | Server.Failed e -> Alcotest.failf "%s: wrong class: %s" what (Err.to_string e)
    | Server.Done _ -> Alcotest.failf "%s: query succeeded" what
    | Server.Timed_out | Server.Dropped -> Alcotest.failf "%s: no answer" what
  in
  let server = server_over ~workers:1 doc (Paged_doc.load ~page_ints:8 ~capacity:8 doc) in
  List.iter
    (fun ctx ->
      expect "out-of-range step context" server
        (Server.Step (`Desc, Nodeseq.of_unsorted ctx))
        (function Err.Validation _ -> true | _ -> false))
    [ [ 0; n ]; [ n + 7 ] ];
  check_int "no internal errors" 0 (Server.stats server).Server.internal;
  Server.shutdown server;
  let server = server_over ~workers:1 doc (failing (Failure "injected defect")) in
  expect "defect" server (Server.Step (`Desc, Nodeseq.singleton 0)) (function
    | Err.Internal _ -> true
    | _ -> false);
  let stats = Server.stats server in
  check_int "internal counted" 1 stats.Server.internal;
  check_int "internal is a failure" 1 stats.Server.failed;
  Server.shutdown server;
  let server = server_over ~workers:1 doc (failing (Sys_error "injected device error")) in
  expect "device error" server (Server.Step (`Anc, Nodeseq.singleton (n - 1))) (function
    | Err.Io _ -> true
    | _ -> false);
  check_int "io is not internal" 0 (Server.stats server).Server.internal;
  Server.shutdown server

(* Parse errors are Failed, not crashes, and don't take a worker down. *)
let test_failed_query_is_isolated () =
  let doc = Fuzz.doc Fuzz.Tiny 1 in
  let paged = Paged_doc.load ~page_ints:8 ~capacity:4 doc in
  let server = server_over ~workers:1 doc paged in
  (match Server.run server (Server.Path "/::!garbage") with
  | Server.Failed _ -> ()
  | Server.Done _ -> Alcotest.fail "garbage query succeeded"
  | Server.Timed_out -> Alcotest.fail "garbage query timed out"
  | Server.Dropped -> Alcotest.fail "garbage query dropped");
  (match Server.run server (Server.Step (`Desc, Nodeseq.singleton 0)) with
  | Server.Done _ -> ()
  | _ -> Alcotest.fail "worker did not survive the failed query");
  let stats = Server.stats server in
  check_int "failure counted" 1 stats.Server.failed;
  check_int "completion counted" 1 stats.Server.completed;
  Server.shutdown server

(* ------------------------------------------------------------------ *)
(* backpressure                                                         *)
(* ------------------------------------------------------------------ *)

let test_backpressure_rejects () =
  let doc = Fuzz.doc Fuzz.Uniform 5 in
  let n = Doc.n_nodes doc in
  (* every query faults many 10ms pages: the single worker is busy for
     much longer than it takes to flood the queue *)
  let paged = Paged_doc.load ~page_ints:4 ~capacity:8 ~fault_latency:0.01 doc in
  let server = server_over ~workers:1 ~queue_bound:1 doc paged in
  let all = Nodeseq.of_unsorted (List.init n Fun.id) in
  let n_submitted = 8 in
  let handles =
    List.filter_map
      (fun _ -> submit_exn server (Server.Step (`Desc, all)))
      (List.init n_submitted Fun.id)
  in
  let accepted = List.length handles in
  check_bool "some submissions rejected" true (accepted < n_submitted);
  List.iter
    (fun h ->
      match Server.await h with
      | Server.Done _ -> ()
      | Server.Timed_out -> Alcotest.fail "accepted query timed out"
      | Server.Failed e -> Alcotest.failf "accepted query failed: %s" (Err.to_string e)
      | Server.Dropped -> Alcotest.fail "accepted query dropped")
    handles;
  let stats = Server.stats server in
  check_int "every submission accounted" n_submitted
    (stats.Server.completed + stats.Server.rejected);
  check_int "rejections counted" (n_submitted - accepted) stats.Server.rejected;
  Server.shutdown server

(* ------------------------------------------------------------------ *)
(* shutdown: drain vs drop                                              *)
(* ------------------------------------------------------------------ *)

(* The default shutdown drains: every accepted query still completes.
   [~drain:false] abandons the queued ones instead — their awaits resolve
   to [Dropped] (never hang) and the service stats count them. *)
let test_shutdown_drains_or_drops () =
  let doc = Fuzz.doc Fuzz.Uniform 9 in
  let n = Doc.n_nodes doc in
  let all = Nodeseq.of_unsorted (List.init n Fun.id) in
  let submit_slow_batch () =
    let paged = Paged_doc.load ~page_ints:4 ~capacity:8 ~fault_latency:0.01 doc in
    let server = server_over ~workers:1 ~queue_bound:16 doc paged in
    let handles =
      List.filter_map (fun _ -> submit_exn server (Server.Step (`Desc, all))) (List.init 6 Fun.id)
    in
    check_int "all accepted below the bound" 6 (List.length handles);
    (server, handles)
  in
  (* drain (the default) *)
  let server, handles = submit_slow_batch () in
  Server.shutdown server;
  List.iter
    (fun h ->
      match Server.await h with
      | Server.Done _ -> ()
      | Server.Dropped -> Alcotest.fail "draining shutdown dropped a query"
      | Server.Timed_out | Server.Failed _ -> Alcotest.fail "drained query did not complete")
    handles;
  let stats = Server.stats server in
  check_int "drained all" 6 stats.Server.completed;
  check_int "nothing dropped" 0 stats.Server.dropped;
  (* no drain *)
  let server, handles = submit_slow_batch () in
  Server.shutdown ~drain:false server;
  let outcomes = List.map Server.await handles in
  let completed = List.length (List.filter (function Server.Done _ -> true | _ -> false) outcomes) in
  let dropped = List.length (List.filter (function Server.Dropped -> true | _ -> false) outcomes) in
  check_int "every accepted query resolved" 6 (completed + dropped);
  check_bool "queued queries were dropped" true (dropped > 0);
  let stats = Server.stats server in
  check_int "completions counted" completed stats.Server.completed;
  check_int "drops counted" dropped stats.Server.dropped;
  let hits, faults, _ = Server.pool_stats server in
  check_int "tally invariant survives drops (hits)" stats.Server.tally_hits hits;
  check_int "tally invariant survives drops (faults)" stats.Server.tally_misses faults

(* ------------------------------------------------------------------ *)
(* snapshot isolation                                                   *)
(* ------------------------------------------------------------------ *)

module Update = Scj_encoding.Update
module Tree = Scj_xml.Tree

let fragment = Tree.elem "hot" [ Tree.elem "entry" [] ]

(* one serialized writer transaction through [run]: insert
   <hot><entry/></hot> under the root (-> epoch 3t+1), rename it to warm
   (-> 3t+2), delete it (-> 3t+3) *)
let writer_triple_via run =
  let root = 0 in
  match
    run
      (Server.Write { op = Update.Insert { parent = root; before = None; fragment }; expect = None })
  with
  | Server.Done r when Nodeseq.length r.Server.result = 1 ->
    let pre = Nodeseq.get r.Server.result 0 in
    (match run (Server.Write { op = Update.Rename { pre; name = "warm" }; expect = None }) with
    | Server.Done _ -> ()
    | _ -> Alcotest.fail "rename write failed");
    (match run (Server.Write { op = Update.Delete { pre }; expect = None }) with
    | Server.Done _ -> ()
    | _ -> Alcotest.fail "delete write failed")
  | _ -> Alcotest.fail "insert write failed"

let writer_triple server = writer_triple_via (Server.run server)

(* Readers pinned to any rendition must see a document that is exactly
   one committed state: the reply's epoch determines the answer to
   //hot, //warm and //entry completely.  A reader that observed a
   partially renumbered rendition would break this bijection (or crash
   the staircase on an Equation-(1) violation). *)
let test_snapshot_isolation () =
  let doc = Fuzz.doc Fuzz.Uniform 13 in
  let paged = Paged_doc.load ~page_ints:8 ~capacity:16 ~fault_latency:0.0002 doc in
  let server = server_over ~workers:4 ~queue_bound:1024 doc paged in
  let reader_queries =
    [ "/descendant::hot"; "/descendant::warm"; "/descendant::entry"; "/descendant::a" ]
  in
  let base_a = Nodeseq.length (Eval.run_exn (Eval.session doc) "/descendant::a") in
  let handles = ref [] in
  let triples = 5 in
  for _ = 1 to triples do
    (* a burst of readers racing the writer's next transaction *)
    List.iter
      (fun q ->
        match submit_exn server (Server.Path q) with
        | Some h -> handles := (q, h) :: !handles
        | None -> Alcotest.fail "reader rejected below the bound")
      (List.concat (List.init 3 (fun _ -> reader_queries)));
    writer_triple server
  done;
  List.iter
    (fun (q, h) ->
      match Server.await h with
      | Server.Done r ->
        let n = Nodeseq.length r.Server.result in
        let expect =
          match (q, r.Server.epoch mod 3) with
          | "/descendant::hot", 1 -> 1
          | "/descendant::hot", _ -> 0
          | "/descendant::warm", 2 -> 1
          | "/descendant::warm", _ -> 0
          | "/descendant::entry", (1 | 2) -> 1
          | "/descendant::entry", _ -> 0
          | _ -> base_a
        in
        if n <> expect then
          Alcotest.failf "reader of %s pinned to epoch %d saw %d node(s), wanted %d" q
            r.Server.epoch n expect
      | Server.Timed_out -> Alcotest.fail "reader timed out"
      | Server.Failed e -> Alcotest.failf "reader failed: %s" (Err.to_string e)
      | Server.Dropped -> Alcotest.fail "reader dropped")
    (List.rev !handles);
  let stats = Server.stats server in
  check_int "every write committed" (3 * triples) stats.Server.commits;
  check_int "epoch = commits" (3 * triples) stats.Server.epoch;
  check_int "epoch accessor agrees" (3 * triples) (Server.epoch server);
  Server.shutdown server

(* Optimistic concurrency: [expect] is compare-and-swap on the epoch;
   invalid updates fail without committing; workers keep answering from
   the latest rendition across long runs of commits. *)
let test_write_conflicts () =
  let doc = Fuzz.doc Fuzz.Uniform 17 in
  let paged = Paged_doc.load ~page_ints:8 ~capacity:16 doc in
  let server = server_over ~workers:2 doc paged in
  (* a write conditioned on the current epoch commits *)
  (match
     Server.run server
       (Server.Write
          { op = Update.Insert { parent = 0; before = None; fragment }; expect = Some 0 })
   with
  | Server.Done r ->
    check_int "first commit is epoch 1" 1 r.Server.epoch;
    check_int "insert reply is the spliced root" 1 (Nodeseq.length r.Server.result)
  | _ -> Alcotest.fail "conditional write at the right epoch failed");
  (* the same expectation now conflicts — and commits nothing *)
  (match
     Server.run server
       (Server.Write
          { op = Update.Insert { parent = 0; before = None; fragment }; expect = Some 0 })
   with
  | Server.Failed (Err.Conflict { expected = 0; actual = 1 }) -> ()
  | Server.Failed e -> Alcotest.failf "wrong failure: %s" (Err.to_string e)
  | _ -> Alcotest.fail "stale conditional write did not conflict");
  (* an invalid update fails cleanly without moving the epoch *)
  (match Server.run server (Server.Write { op = Update.Delete { pre = 0 }; expect = None }) with
  | Server.Failed (Err.Validation _) -> ()
  | _ -> Alcotest.fail "deleting the root through the server was accepted");
  check_int "failed writes did not commit" 1 (Server.epoch server);
  (* a long run of commits: readers must still answer from the latest
     rendition *)
  for _ = 1 to 12 do
    writer_triple server
  done;
  (match Server.run server (Server.Path "/descendant::hot") with
  | Server.Done r ->
    check_int "late reader epoch" (1 + 36) r.Server.epoch;
    (* the epoch-1 insert is still there; every triple cleaned up after
       itself *)
    check_int "one hot fragment left" 1 (Nodeseq.length r.Server.result)
  | _ -> Alcotest.fail "reader after a long run of commits failed");
  let stats = Server.stats server in
  check_int "commit count" 37 stats.Server.commits;
  check_int "failures counted" 2 stats.Server.failed;
  Server.shutdown server;
  (* writes after shutdown answer Stopped, distinct from Overloaded *)
  match
    Server.submit server
      (Server.Write { op = Update.Rename { pre = 0; name = "r" }; expect = None })
  with
  | Server.Stopped -> ()
  | Server.Accepted _ -> Alcotest.fail "write accepted after shutdown"
  | Server.Overloaded -> Alcotest.fail "shutdown misreported as backpressure"

module Staircase = Scj_core.Staircase
module Store = Scj_store.Store

let with_dir = Test_support.with_dir

let open_db path =
  match Db.open_ path with Ok db -> db | Error e -> Alcotest.failf "open: %s" (Err.to_string e)

(* a random structural update of [doc]: an insert under an element, a
   rename of one, or the delete of a small subtree *)
let random_write st doc =
  let n = Doc.n_nodes doc in
  let rec pick_node ok =
    let v = 1 + Random.State.int st (n - 1) in
    if ok v then v else pick_node ok
  in
  let element v = Doc.kind doc v = Doc.Element in
  match Random.State.int st 3 with
  | 0 -> Update.Insert { parent = pick_node element; before = None; fragment }
  | 1 -> Update.Rename { pre = pick_node element; name = "renamed" }
  | _ -> Update.Delete { pre = pick_node (fun v -> Doc.size doc v < 16) }

(* [Step] queries after commits: each commit installs the Db's paged
   image of the new document.  After every commit, a descendant step
   from the root and an ancestor step, pinned to epoch e, must equal the
   in-memory staircase join over epoch e's document — replayed here with
   Update.apply — and a context rank at or past that document's node
   count must still be the caller's error. *)
let check_steps_after_commits what db =
  let server = Server.create ~workers:2 db in
  let st = Random.State.make [| 0x57e9 |] in
  let check_epoch epoch doc =
    let n = Doc.n_nodes doc in
    let leaves = Nodeseq.of_unsorted [ n - 1; n / 2; n / 3; 1 ] in
    let root = Nodeseq.singleton (Doc.root doc) in
    List.iter
      (fun (step, q, expected) ->
        match Server.run server q with
        | Server.Done r ->
          check_int (Printf.sprintf "%s: %s pinned epoch" what step) epoch r.Server.epoch;
          if not (Nodeseq.equal expected r.Server.result) then
            Alcotest.failf "%s: %s at epoch %d answered %d node(s), the staircase join %d" what
              step epoch (Nodeseq.length r.Server.result) (Nodeseq.length expected)
        | Server.Failed e -> Alcotest.failf "%s: %s failed: %s" what step (Err.to_string e)
        | Server.Timed_out | Server.Dropped -> Alcotest.failf "%s: %s got no answer" what step)
      [
        ("descendant step", Server.Step (`Desc, root), Staircase.desc doc root);
        ("ancestor step", Server.Step (`Anc, leaves), Staircase.anc doc leaves);
      ];
    match Server.run server (Server.Step (`Anc, Nodeseq.of_unsorted [ 1; n ])) with
    | Server.Failed (Err.Validation _) -> ()
    | _ -> Alcotest.failf "%s: context rank %d accepted at epoch %d" what n epoch
  in
  let rec commits epoch doc left =
    check_epoch epoch doc;
    if left > 0 then begin
      let op = random_write st doc in
      match Update.apply doc op with
      | Error _ -> commits epoch doc left
      | Ok applied ->
        (match Server.run server (Server.Write { op; expect = Some epoch }) with
        | Server.Done r -> check_int (what ^ ": commit epoch") (epoch + 1) r.Server.epoch
        | Server.Failed e ->
          Alcotest.failf "%s: %s failed: %s" what (Update.op_to_string op) (Err.to_string e)
        | Server.Timed_out | Server.Dropped -> Alcotest.failf "%s: write got no answer" what);
        commits (epoch + 1) applied.Update.doc (left - 1)
    end
  in
  commits 0 (Db.doc db) 12;
  Server.shutdown server

let test_steps_after_commits () =
  let doc = Fuzz.doc Fuzz.Uniform 19 in
  let db = Db.of_doc doc in
  Db.attach_paged db (Paged_doc.load ~page_ints:8 ~capacity:16 doc);
  check_steps_after_commits "in memory" db;
  with_dir (fun dir ->
      Store.close (Store.create ~page_ints:16 ~path:dir doc);
      let db = open_db dir in
      check_steps_after_commits "store-backed" db;
      Db.close db)

(* ------------------------------------------------------------------ *)
(* sharded serving over one shared pool                                 *)
(* ------------------------------------------------------------------ *)

module Shard = Scj_server.Shard
module Catalog = Scj_db.Catalog

(* root + [n] element children: a flat document whose descendant step
   from the root touches exactly the posts extent, page by page *)
let flat_doc n =
  Doc.of_tree (Tree.elem "root" (List.init n (fun _ -> Tree.elem "x" [])))

let cold_parts = 26

let part_size = 190

(* [cold_parts] independent subtrees; scanning them part by part gives
   the cold tenant a deterministic chunked scan whose per-chunk churn
   stays below the ghost window (so this is the adversarial-but-fair
   access pattern 2Q is designed for) while the per-round footprint
   still exceeds the pool capacity (so LRU loop-thrashes the victim) *)
let cold_doc () =
  Doc.of_tree
    (Tree.elem "root"
       (List.init cold_parts (fun _ ->
            Tree.elem "part" (List.init part_size (fun _ -> Tree.elem "x" [])))))

let part_pre i = 1 + (i * (part_size + 1))

let outcome_done what = function
  | Server.Done r -> r
  | Server.Timed_out -> Alcotest.failf "%s timed out" what
  | Server.Failed e -> Alcotest.failf "%s failed: %s" what (Err.to_string e)
  | Server.Dropped -> Alcotest.failf "%s dropped" what

(* Drive one (cold chunk; hot query) round-robin trace through a shard
   and return the hot tenant's page hit rate over the measured rounds.
   Everything is serial (one worker, one stripe), so the trace — and the
   rate — is deterministic per policy. *)
let fairness_hot_rate policy =
  let hot_n = 48 in
  let chunks_per_round = 12 in
  let cat =
    Catalog.of_docs ~policy ~page_ints:16 ~capacity:24
      [ ("cold", cold_doc ()); ("hot", flat_doc hot_n) ]
  in
  let shard = Shard.create ~workers:1 cat in
  let hot_tally () =
    match Shard.stats shard with
    | [ _; ("hot", s) ] -> (s.Server.tally_hits, s.Server.tally_misses)
    | _ -> Alcotest.fail "shard stats not in document order"
  in
  let cursor = ref 0 in
  let round () =
    for _ = 1 to chunks_per_round do
      let chunk =
        Shard.run shard ~doc:"cold"
          (Server.Step (`Desc, Nodeseq.singleton (part_pre (!cursor mod cold_parts))))
      in
      incr cursor;
      check_int "cold chunk scans one part" part_size
        (Nodeseq.length (outcome_done "cold chunk" chunk).Server.result)
    done;
    let hot = Shard.run shard ~doc:"hot" (Server.Step (`Desc, Nodeseq.singleton 0)) in
    check_int "hot query sees its document" hot_n
      (Nodeseq.length (outcome_done "hot query" hot).Server.result)
  in
  let warmup = 3 and measured = 8 in
  for _ = 1 to warmup do
    round ()
  done;
  let h0, m0 = hot_tally () in
  for _ = 1 to measured do
    round ()
  done;
  let h1, m1 = hot_tally () in
  (* the tally invariant holds across tenants: the shared pool's totals
     are exactly the sum of every tenant's per-query tallies *)
  let hits, faults, _ = Shard.pool_stats shard in
  let sum_hits, sum_misses =
    List.fold_left
      (fun (h, m) (_, s) -> (h + s.Server.tally_hits, m + s.Server.tally_misses))
      (0, 0) (Shard.stats shard)
  in
  check_int "pool hits = sum of tenant tallies" hits sum_hits;
  check_int "pool faults = sum of tenant tallies" faults sum_misses;
  Shard.shutdown shard;
  Catalog.close cat;
  let accesses = h1 - h0 + (m1 - m0) in
  check_bool "hot tenant did page work" true (accesses > 0);
  float_of_int (h1 - h0) /. float_of_int accesses

(* The fairness property behind the shared pool: a tenant that does
   nothing but cold-scan must not evict another tenant's working set.
   Under 2Q the scan lives and dies in A1in and the hot tenant keeps
   (essentially) a 100% hit rate; under LRU the same trace loop-thrashes
   the hot tenant.  Both rates are deterministic. *)
let test_shared_pool_fairness () =
  let twoq = fairness_hot_rate Buffer_pool.Two_q in
  let lru = fairness_hot_rate Buffer_pool.Lru in
  if twoq < 0.95 then
    Alcotest.failf "hot tenant hit rate %.3f under 2Q fell below the 0.95 floor" twoq;
  if twoq < lru +. 0.2 then
    Alcotest.failf "2Q (%.3f) does not clearly beat LRU (%.3f) for the scanned-against tenant"
      twoq lru

(* Per-document epochs: a CAS [expect] on one tenant is checked against
   that tenant's epoch only — commits and conflicts on document A are
   invisible to document B's rendition chain, counters included. *)
let test_per_doc_epoch_isolation () =
  let cat =
    Catalog.of_docs ~page_ints:16 ~capacity:16
      [ ("a", Fuzz.doc Fuzz.Uniform 21); ("b", Fuzz.doc Fuzz.Wide 22) ]
  in
  let shard = Shard.create ~workers:1 cat in
  let epoch_of id =
    match Shard.epoch shard id with
    | Some e -> e
    | None -> Alcotest.failf "no epoch for %s" id
  in
  let write ?expect doc =
    Shard.run shard ~doc
      (Server.Write { op = Update.Insert { parent = 0; before = None; fragment }; expect })
  in
  (* a CAS at a's epoch commits on a and moves only a's chain *)
  check_int "a's first commit" 1 (outcome_done "write a@0" (write ~expect:0 "a")).Server.epoch;
  check_int "a advanced" 1 (epoch_of "a");
  check_int "b untouched" 0 (epoch_of "b");
  (* b's CAS at epoch 0 is still valid — a's commit is not b's *)
  check_int "b's first commit" 1 (outcome_done "write b@0" (write ~expect:0 "b")).Server.epoch;
  (* a stale CAS on a conflicts against a's epoch... *)
  (match write ~expect:0 "a" with
  | Server.Failed (Err.Conflict { expected = 0; actual = 1 }) -> ()
  | Server.Failed e -> Alcotest.failf "wrong failure: %s" (Err.to_string e)
  | _ -> Alcotest.fail "stale CAS on a did not conflict");
  (* ...and moves neither epoch *)
  check_int "conflict did not move a" 1 (epoch_of "a");
  check_int "conflict did not disturb b" 1 (epoch_of "b");
  (* a long unconditional commit chain on a never invalidates b's CAS *)
  for i = 1 to 5 do
    check_int "a chain" (1 + i) (outcome_done "write a" (write "a")).Server.epoch
  done;
  check_int "b's CAS at its own epoch still commits" 2
    (outcome_done "write b@1" (write ~expect:1 "b")).Server.epoch;
  (* the wildcard read-out answers from each tenant's own rendition *)
  (match Shard.run_all shard (Server.Path "/descendant::hot") with
  | [ ("a", oa); ("b", ob) ] ->
    check_int "a's hot fragments" 6 (Nodeseq.length (outcome_done "read a" oa).Server.result);
    check_int "b's hot fragments" 2 (Nodeseq.length (outcome_done "read b" ob).Server.result)
  | _ -> Alcotest.fail "wildcard fan-out not in document order");
  (* accounting is per tenant: the conflict is a's failure, nobody else's *)
  (match Shard.stats shard with
  | [ ("a", sa); ("b", sb) ] ->
    check_int "a commits" 6 sa.Server.commits;
    check_int "a failed" 1 sa.Server.failed;
    check_int "b commits" 2 sb.Server.commits;
    check_int "b failed" 0 sb.Server.failed
  | _ -> Alcotest.fail "shard stats not in document order");
  (* routing to an unknown id fails cleanly without touching any tenant *)
  (match Shard.run shard ~doc:"nope" (Server.Path "/descendant::hot") with
  | Server.Failed (Err.Validation _) -> ()
  | _ -> Alcotest.fail "unknown document id was served");
  check_bool "unknown id has no epoch" true (Shard.epoch shard "nope" = None);
  Shard.shutdown shard;
  Catalog.close cat

(* ------------------------------------------------------------------ *)
(* bounded memory under writes                                          *)
(* ------------------------------------------------------------------ *)

let xmark_small =
  lazy (Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.002 ())))

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* [triples] insert/rename/delete triples through [triple], with
   [read] before each: once the first triple has committed, the live
   heap must stay within 3x its size then — a rendition is reclaimed
   once no worker and no in-flight query holds it, so memory must not
   grow with the number of commits. *)
let check_bounded what ~triples ~triple ~read =
  read ();
  triple ();
  let first = live_words () in
  for i = 2 to triples do
    read ();
    triple ();
    if i mod 20 = 0 then begin
      let live = live_words () in
      if live > 3 * first then
        Alcotest.failf "%s: %d live words after %d commits, %d after the first 3" what live (3 * i)
          first
    end
  done

let reads =
  [ "//person[profile/education]/name"; "/descendant::hot"; "//item/description//keyword" ]

let check_read what = function
  | Server.Done _ -> ()
  | Server.Failed e -> Alcotest.failf "%s: read failed: %s" what (Err.to_string e)
  | Server.Timed_out | Server.Dropped -> Alcotest.failf "%s: read got no answer" what

let test_bounded_memory_server () =
  with_dir (fun dir ->
      Store.close (Store.create ~path:dir (Lazy.force xmark_small));
      let db = open_db dir in
      let server = Server.create ~workers:2 db in
      check_bounded "server" ~triples:100
        ~triple:(fun () -> writer_triple server)
        ~read:(fun () ->
          List.iter (fun q -> check_read "server" (Server.run server (Server.Path q))) reads);
      check_int "every write committed" 300 (Server.epoch server);
      Server.shutdown server;
      Db.close db)

let test_bounded_memory_shard () =
  let cat = Catalog.of_docs [ ("a", Lazy.force xmark_small); ("b", Fuzz.doc Fuzz.Wide 23) ] in
  let shard = Shard.create ~workers:2 cat in
  check_bounded "shard" ~triples:100
    ~triple:(fun () ->
      writer_triple_via (Shard.run shard ~doc:"a");
      writer_triple_via (Shard.run shard ~doc:"b"))
    ~read:(fun () ->
      List.iter
        (fun q ->
          List.iter (fun (_, o) -> check_read "shard" o) (Shard.run_all shard (Server.Path q)))
        reads);
  check_bool "every write committed" true
    (Shard.epoch shard "a" = Some 300 && Shard.epoch shard "b" = Some 300);
  Shard.shutdown shard;
  Catalog.close cat

(* ------------------------------------------------------------------ *)
(* latency histogram                                                    *)
(* ------------------------------------------------------------------ *)

let test_histogram_basics () =
  let h = Histogram.create () in
  check_int "empty count" 0 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "empty percentile" 0.0 (Histogram.percentile h 50.0);
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  check_int "count" 100 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean is exact" 50.5 (Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Histogram.min_ms h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Histogram.max_ms h);
  (* log-bucketed: each estimate is within one ratio step (1.2x) of the
     true quantile, and clamped to the observed extremes *)
  let p50 = Histogram.percentile h 50.0 in
  let p95 = Histogram.percentile h 95.0 in
  let p99 = Histogram.percentile h 99.0 in
  check_bool "p50 within a ratio step" true (p50 >= 50.0 /. 1.44 && p50 <= 50.0 *. 1.44);
  check_bool "p95 within a ratio step" true (p95 >= 95.0 /. 1.44 && p95 <= 100.0);
  check_bool "percentiles monotone" true (p50 <= p95 && p95 <= p99);
  check_bool "p99 clamped by max" true (p99 <= 100.0);
  check_bool "p0 clamped by min" true (Histogram.percentile h 0.0 >= 1.0)

let test_histogram_merge_copy () =
  let a = Histogram.create () and b = Histogram.create () in
  for i = 1 to 50 do
    Histogram.add a (float_of_int i)
  done;
  for i = 51 to 100 do
    Histogram.add b (float_of_int i)
  done;
  let snapshot = Histogram.copy a in
  Histogram.merge a b;
  check_int "merged count" 100 (Histogram.count a);
  Alcotest.(check (float 1e-9)) "merged mean" 50.5 (Histogram.mean a);
  Alcotest.(check (float 1e-9)) "merged max" 100.0 (Histogram.max_ms a);
  check_int "copy unaffected by merge" 50 (Histogram.count snapshot);
  Alcotest.(check (float 1e-9)) "copy max unaffected" 50.0 (Histogram.max_ms snapshot);
  Histogram.reset a;
  check_int "reset" 0 (Histogram.count a)

let () =
  Alcotest.run "scj_server"
    [
      ( "service",
        [
          Alcotest.test_case "concurrent = serial, exact accounting" `Quick
            test_concurrent_matches_serial;
          Alcotest.test_case "timeouts don't poison the pool" `Quick
            test_timeout_does_not_poison_pool;
          Alcotest.test_case "failed queries are isolated" `Quick
            test_failed_query_is_isolated;
          Alcotest.test_case "FLWOR row loops meet the deadline" `Quick test_flwor_deadline;
          Alcotest.test_case "failures classed by cause" `Quick test_error_classes;
          Alcotest.test_case "shutdown drains or drops" `Quick test_shutdown_drains_or_drops;
          Alcotest.test_case "backpressure rejects beyond the bound" `Quick
            test_backpressure_rejects;
          Alcotest.test_case "snapshot isolation under concurrent commits" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "write conflicts, invalid writes, long chains" `Quick
            test_write_conflicts;
          Alcotest.test_case "steps after commits = staircase join" `Quick
            test_steps_after_commits;
        ] );
      ( "sharded serving",
        [
          Alcotest.test_case "scan-resistant fairness across tenants" `Quick
            test_shared_pool_fairness;
          Alcotest.test_case "per-document epoch CAS isolation" `Quick
            test_per_doc_epoch_isolation;
        ] );
      ( "bounded memory",
        [
          Alcotest.test_case "server over a store" `Quick test_bounded_memory_server;
          Alcotest.test_case "two-tenant shard" `Quick test_bounded_memory_shard;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts, mean, percentiles" `Quick test_histogram_basics;
          Alcotest.test_case "merge, copy, reset" `Quick test_histogram_merge_copy;
        ] );
    ]
