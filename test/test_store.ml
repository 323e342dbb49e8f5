(* The durable document store: on-disk roundtrip, real-pread pool
   traffic, checksum verification, torn-tail WAL recovery, checkpoint
   truncation — and the recovery fuzz: for every injected crash point
   across (shape, seed, crash-schedule) runs, reopening either recovers
   a store whose desc/anc/following/preceding results and work counters
   are bit-identical to the in-memory oracle, or fails cleanly with a
   diagnosis.  Never a wrong answer, never an unhandled crash. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Sj = Scj_core.Staircase
module Paged_doc = Scj_pager.Paged_doc
module Buffer_pool = Scj_pager.Buffer_pool
module Store = Scj_store.Store
module Wal = Scj_store.Wal
module Err = Scj_error.Error

let error_t = Alcotest.testable Err.pp ( = )
module Fuzz = Test_support.Fuzz
module Faultfs = Test_support.Faultfs

let fresh_dir = Test_support.fresh_dir

let wipe = Test_support.wipe

let with_dir = Test_support.with_dir

let wal_size dir = (Unix.stat (Filename.concat dir "wal.scj")).Unix.st_size

(* flip one byte of a store file in place *)
let flip_byte dir file pos = Test_support.flip_byte (Filename.concat dir file) pos

let contains_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run_counted f =
  let stats = Stats.create () in
  let r = f stats in
  (Nodeseq.to_list r, Stats.all_assoc stats)

(* Axis parity of an opened store against the in-memory oracle document:
   raw columns, paged desc/anc vs the estimation-mode staircase (results
   and counters bit-identical), and following/preceding on the
   materialized recovered document vs the oracle. *)
let check_parity ~what oracle store =
  let recovered = Store.doc store in
  if Doc.post_array recovered <> Doc.post_array oracle then
    Alcotest.failf "%s: recovered post column differs" what;
  if Doc.size_array recovered <> Doc.size_array oracle then
    Alcotest.failf "%s: recovered size column differs" what;
  if Doc.attr_prefix_array recovered <> Doc.attr_prefix_array oracle then
    Alcotest.failf "%s: recovered attr-prefix column differs" what;
  let paged = Store.paged store in
  let contexts =
    [
      ("root", Nodeseq.singleton (Doc.root oracle));
      ("fuzz", Fuzz.context oracle 7);
    ]
  in
  List.iter
    (fun (cname, ctx) ->
      let estimation stats = Exec.make ~mode:Sj.Estimation ~stats () in
      let pairs =
        [
          ( "desc",
            run_counted (fun s -> Sj.desc ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Paged_doc.desc ~exec:(Exec.make ~stats:s ()) paged ctx) );
          ( "anc",
            run_counted (fun s -> Sj.anc ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Paged_doc.anc ~exec:(Exec.make ~stats:s ()) paged ctx) );
          ( "following",
            run_counted (fun s -> Sj.following ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Sj.following ~exec:(estimation s) recovered ctx) );
          ( "preceding",
            run_counted (fun s -> Sj.preceding ~exec:(estimation s) oracle ctx),
            run_counted (fun s -> Sj.preceding ~exec:(estimation s) recovered ctx) );
        ]
      in
      List.iter
        (fun (axis, (exp_r, exp_c), (got_r, got_c)) ->
          if exp_r <> got_r then
            Alcotest.failf "%s: %s/%s results diverge from oracle" what axis cname;
          if exp_c <> got_c then
            Alcotest.failf "%s: %s/%s work counters diverge from oracle" what axis cname)
        pairs)
    contexts

(* ------------------------------------------------------------------ *)
(* roundtrip                                                           *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  with_dir (fun dir ->
      let doc = Lazy.force Test_support.paper_doc in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Alcotest.(check (result unit error_t)) "verify" (Ok ()) (Store.verify store);
      check_parity ~what:"fresh store" doc store;
      Alcotest.(check int) "WAL checkpointed after create" 8 (wal_size dir);
      Store.close store;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "reopen failed: %s" (Err.to_string e)
      | Ok store2 ->
        Alcotest.(check bool) "clean reopen has no recovery work" true
          (Store.last_recovery store2 = Wal.clean_recovery);
        check_parity ~what:"reopened store" doc store2;
        Store.close store2)

(* Pool faults over a store are real preads: counted in the pool stats,
   attributable per query through tallies, and visible as bytes read. *)
let test_real_preads () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Uniform 3 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.close store;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "reopen failed: %s" (Err.to_string e)
      | Ok store ->
        let paged = Store.paged ~capacity:24 store in
        let pool = Paged_doc.pool paged in
        let before = Store.bytes_read store in
        let tally = Buffer_pool.Tally.create () in
        let ctx = Nodeseq.singleton (Doc.root doc) in
        ignore (Paged_doc.desc (Paged_doc.with_tally paged tally) ctx);
        let hits, faults, _ = Buffer_pool.stats pool in
        Alcotest.(check bool) "faults happened" true (faults > 0);
        Alcotest.(check int) "tally = pool counters" (hits + faults)
          (Buffer_pool.Tally.total tally);
        Alcotest.(check bool) "faults were real page-file reads" true
          (Store.bytes_read store > before);
        Store.close store)

(* ------------------------------------------------------------------ *)
(* corruption                                                          *)
(* ------------------------------------------------------------------ *)

let test_checksum_corruption () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Uniform 1 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.close store;
      (* a flipped byte inside the first post page: open still succeeds
         (the superblock is fine) but verification and any query touching
         the page report Corrupt *)
      let stride = (16 * 8) + 8 in
      flip_byte dir "pages.scj" (stride + 4);
      (match Store.open_ dir with
      | Error e -> Alcotest.failf "open after data corruption should succeed, got: %s" (Err.to_string e)
      | Ok store ->
        (match Store.verify store with
        | Ok () -> Alcotest.fail "verify missed a flipped byte"
        | Error e ->
          Alcotest.(check bool) "diagnosis names the checksum" true
            (contains_sub (Err.to_string e) "checksum"));
        let paged = Store.paged store in
        (match Paged_doc.desc paged (Nodeseq.singleton 0) with
        | exception Store.Corrupt _ -> ()
        | _ -> Alcotest.fail "query over a corrupt page returned an answer");
        Store.close store);
      (* a flipped byte inside the superblock refuses the whole store *)
      flip_byte dir "pages.scj" 100;
      match Store.open_ dir with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "open accepted a corrupt superblock")

let test_torn_wal_tail () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Attr_heavy 2 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.close store;
      (* garbage appended past the checkpointed header: recovery must
         diagnose and discard it, leaving the store intact *)
      let oc =
        open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "wal.scj")
      in
      output_string oc (String.make 23 '\xab');
      close_out oc;
      match Store.open_ dir with
      | Error e -> Alcotest.failf "torn WAL tail should not refuse the store: %s" (Err.to_string e)
      | Ok store ->
        (match (Store.last_recovery store).Wal.discarded with
        | Some _ -> ()
        | None -> Alcotest.fail "recovery silently swallowed a torn tail");
        Alcotest.(check int) "WAL truncated back to its header" 8 (wal_size dir);
        check_parity ~what:"store after torn-tail recovery" doc store;
        Store.close store)

let test_checkpoint () =
  with_dir (fun dir ->
      let doc = Fuzz.doc Fuzz.Wide 4 in
      let store = Store.create ~page_ints:16 ~path:dir doc in
      Store.checkpoint store;
      Alcotest.(check int) "checkpoint truncates the WAL" 8 (wal_size dir);
      Alcotest.(check (result unit error_t)) "store intact" (Ok ()) (Store.verify store);
      Store.close store)

(* ------------------------------------------------------------------ *)
(* recovery fuzz                                                       *)
(* ------------------------------------------------------------------ *)

(* every fsync barrier plus a deterministic sample of other I/O events *)
let crash_points ~total ~fsyncs seed =
  let st = Random.State.make [| 0xc4a5; seed |] in
  let extra = List.init 8 (fun _ -> 1 + Random.State.int st (max total 1)) in
  List.sort_uniq compare (fsyncs @ extra)

let fuzz_one ~runs shape seed =
  let oracle = Fuzz.doc shape seed in
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> wipe dir)
    (fun () ->
      (* dry run: learn the workload's event schedule *)
      let f = Faultfs.create ~seed () in
      let store = Store.create ~io:(Faultfs.io f) ~page_ints:16 ~path:dir oracle in
      check_parity ~what:"dry run" oracle store;
      Store.close store;
      let total = Faultfs.events f in
      let fsyncs = Faultfs.fsync_events f in
      List.iter
        (fun k ->
          incr runs;
          wipe dir;
          let f = Faultfs.create ~seed:((seed * 1000) + k) ~crash_at:k () in
          (match Store.create ~io:(Faultfs.io f) ~page_ints:16 ~path:dir oracle with
          | exception Faultfs.Crash -> ()
          | store ->
            (* the crash point fell after the last event of this run *)
            Store.close store);
          match Store.open_ dir with
          | Ok store ->
            (* recovery claims success: results must be bit-identical *)
            check_parity
              ~what:
                (Printf.sprintf "shape=%s seed=%d crash@%d/%d"
                   (Fuzz.shape_to_string shape) seed k total)
              oracle store;
            Store.close store
          | Error err ->
            let msg = Err.to_string err in
            if String.length msg = 0 then
              Alcotest.failf "shape=%s seed=%d crash@%d: empty diagnosis"
                (Fuzz.shape_to_string shape) seed k;
            (* a clean refusal: re-running the load must succeed *)
            let store = Store.create ~page_ints:16 ~path:dir oracle in
            check_parity
              ~what:
                (Printf.sprintf "shape=%s seed=%d crash@%d retry" (Fuzz.shape_to_string shape)
                   seed k)
              oracle store;
            Store.close store)
        (crash_points ~total ~fsyncs seed))

let test_recovery_fuzz () =
  let runs = ref 0 in
  List.iter
    (fun shape -> List.iter (fun seed -> fuzz_one ~runs shape seed) [ 0; 1 ])
    Fuzz.all_shapes;
  Alcotest.(check bool)
    (Printf.sprintf "enough crash-schedule runs (%d)" !runs)
    true (!runs >= 100)

(* ------------------------------------------------------------------ *)
(* interleaved update/query recovery fuzz                              *)
(* ------------------------------------------------------------------ *)

(* Histories of WAL-logged mutations with queries interleaved, crashed
   at every fsync barrier (and a sample of other I/O events).  Each
   committed mutation is one WAL transaction whose commit record is an
   fsync barrier, so recovery must materialize the base document plus
   exactly a prefix of the history: the prefix acknowledged before the
   crash, or one more when the crash landed between an op's commit
   fsync and its acknowledgement.  A mid-history checkpoint exercises
   the rebase rule (a committed superblock image clears the collected
   mutations) without changing the logical document. *)

module Update = Scj_encoding.Update
module Tree = Scj_xml.Tree

type hist_item = Op of Update.op | Checkpoint_here

let doc_eq a b =
  Doc.n_nodes a = Doc.n_nodes b
  && Doc.post_array a = Doc.post_array b
  && Doc.size_array a = Doc.size_array b
  && Doc.level_array a = Doc.level_array b
  && Doc.kind_array a = Doc.kind_array b
  && Doc.attr_prefix_array a = Doc.attr_prefix_array b
  &&
  let n = Doc.n_nodes a in
  let rec rows pre =
    pre >= n
    || Doc.tag_name a pre = Doc.tag_name b pre
       && Doc.content a pre = Doc.content b pre
       && rows (pre + 1)
  in
  rows 0

(* a query between mutations: the store must answer from exactly the
   committed prefix, never a partially renumbered rendition *)
let query_parity what store expected =
  let d = Store.doc store in
  if not (doc_eq d expected) then
    Alcotest.failf "%s: interleaved read saw a document != committed prefix" what;
  let ctx = Nodeseq.singleton (Doc.root expected) in
  let estimation = Exec.make ~mode:Sj.Estimation () in
  let want = Nodeseq.to_list (Sj.desc ~exec:estimation expected ctx) in
  let got = Nodeseq.to_list (Paged_doc.desc (Store.paged store) ctx) in
  if want <> got then Alcotest.failf "%s: interleaved desc diverges from oracle" what

let gen_history shape seed base =
  let st = Random.State.make [| 0xeb7; seed; Hashtbl.hash (Fuzz.shape_to_string shape) |] in
  let elements doc =
    let acc = ref [] in
    Array.iteri
      (fun pre k -> if k = Doc.Element then acc := pre :: !acc)
      (Doc.kind_array doc);
    Array.of_list (List.rev !acc)
  in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let fragment () =
    if Random.State.int st 2 = 0 then Tree.elem "ins" [ Tree.text "i" ]
    else Tree.elem ~attributes:[ ("k0", "7") ] "item" []
  in
  let rec draw doc =
    let op =
      match Random.State.int st 4 with
      | 0 | 1 ->
        Update.Insert { parent = pick (elements doc); before = None; fragment = fragment () }
      | 2 when Doc.n_nodes doc > 3 ->
        Update.Delete { pre = 1 + Random.State.int st (Doc.n_nodes doc - 1) }
      | _ -> Update.Rename { pre = pick (elements doc); name = Fuzz.pick_name st }
    in
    match Update.apply doc op with Ok a -> (op, a.Update.doc) | Error _ -> draw doc
  in
  let rec go doc acc i =
    if i = 5 then List.rev acc
    else
      let op, doc = draw doc in
      go doc ((op, doc) :: acc) (i + 1)
  in
  let ops = go base [] 0 in
  let prefixes = Array.of_list (base :: List.map snd ops) in
  let items =
    List.concat (List.mapi (fun i (op, _) -> if i = 2 then [ Checkpoint_here; Op op ] else [ Op op ]) ops)
  in
  (items, prefixes)

(* replay the history on an open store; [committed] counts acknowledged
   ops; queries run between ops in [check] mode *)
let run_history ?(check = false) ~committed ~what store items prefixes =
  List.iter
    (fun item ->
      match item with
      | Checkpoint_here -> Store.checkpoint store
      | Op op -> (
        match Store.apply store op with
        | Ok _ ->
          incr committed;
          if check then query_parity what store prefixes.(!committed)
        | Error e ->
          Alcotest.failf "%s: apply refused mid-history: %s" what (Err.to_string e)))
    items

let fuzz_mutations ~runs shape seed =
  let base = Fuzz.doc shape seed in
  let items, prefixes = gen_history shape seed base in
  let n_ops = Array.length prefixes - 1 in
  let dir = fresh_dir () in
  let fresh_base () =
    wipe dir;
    Store.close (Store.create ~page_ints:16 ~path:dir base)
  in
  Fun.protect
    ~finally:(fun () -> wipe dir)
    (fun () ->
      (* dry run: full history with interleaved query checks, and the
         I/O event schedule of the mutation phase *)
      fresh_base ();
      let f = Faultfs.create ~seed () in
      (match Store.open_ ~io:(Faultfs.io f) dir with
      | Error e -> Alcotest.failf "dry reopen failed: %s" (Err.to_string e)
      | Ok store ->
        let committed = ref 0 in
        run_history ~check:true ~committed ~what:"dry run" store items prefixes;
        Alcotest.(check int) "dry run committed the whole history" n_ops !committed;
        Store.close store);
      (* reopening must replay the logged mutations *)
      (match Store.open_ dir with
      | Error e -> Alcotest.failf "replay reopen failed: %s" (Err.to_string e)
      | Ok store ->
        if not (doc_eq (Store.doc store) prefixes.(n_ops)) then
          Alcotest.fail "replayed store differs from the full history";
        Store.close store);
      let total = Faultfs.events f in
      let fsyncs = Faultfs.fsync_events f in
      List.iter
        (fun k ->
          incr runs;
          let what =
            Printf.sprintf "mutations shape=%s seed=%d crash@%d/%d"
              (Fuzz.shape_to_string shape) seed k total
          in
          fresh_base ();
          let f = Faultfs.create ~seed:((seed * 7919) + k) ~crash_at:k () in
          let committed = ref 0 in
          (match Store.open_ ~io:(Faultfs.io f) dir with
          | exception Faultfs.Crash -> ()
          | Error e -> Alcotest.failf "%s: reopen failed without a crash: %s" what (Err.to_string e)
          | Ok store -> (
            match run_history ~committed ~what store items prefixes with
            | () -> ( match Store.close store with () -> () | exception Faultfs.Crash -> ())
            | exception Faultfs.Crash -> ()));
          match Store.open_ dir with
          | Error err ->
            if String.length (Err.to_string err) = 0 then
              Alcotest.failf "%s: empty diagnosis" what
          | Ok store ->
            let recovered = Store.doc store in
            (* the commit fsync is the durability point: the in-flight op
               may or may not have reached it when the crash hit *)
            let candidates =
              if !committed < n_ops then [ !committed; !committed + 1 ] else [ n_ops ]
            in
            if not (List.exists (fun j -> doc_eq recovered prefixes.(j)) candidates) then
              Alcotest.failf "%s: recovered document is not a committed prefix (acked %d/%d)"
                what !committed n_ops;
            (match Store.verify store with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s: recovered store fails verify: %s" what (Err.to_string e));
            (* and it answers queries like the matching oracle prefix *)
            let j = List.find (fun j -> doc_eq recovered prefixes.(j)) candidates in
            query_parity what store prefixes.(j);
            Store.close store)
        (crash_points ~total ~fsyncs seed))

let test_mutation_recovery_fuzz () =
  let runs = ref 0 in
  List.iter
    (fun shape -> List.iter (fun seed -> fuzz_mutations ~runs shape seed) [ 0; 1 ])
    Fuzz.all_shapes;
  Alcotest.(check bool)
    (Printf.sprintf "enough interleaved update/query crash runs (%d)" !runs)
    true (!runs >= 100)

let () =
  Alcotest.run "store"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "real preads" `Quick test_real_preads;
          Alcotest.test_case "checksum corruption" `Quick test_checksum_corruption;
          Alcotest.test_case "torn WAL tail" `Quick test_torn_wal_tail;
          Alcotest.test_case "checkpoint" `Quick test_checkpoint;
          Alcotest.test_case "recovery fuzz" `Slow test_recovery_fuzz;
          Alcotest.test_case "interleaved mutation recovery fuzz" `Slow
            test_mutation_recovery_fuzz;
        ] );
    ]
