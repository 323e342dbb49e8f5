(* update-mix: writes beside reads on one small store.  An open-loop
   writer commits a fixed number of seeded structural updates while a
   closed-loop reader queries through the same service.  It exercises
   the WAL commit, the functional Update.apply copy, the per-commit
   page image, session evolution, guide maintenance and the memory
   retained per commit. *)

open Scj
open Report

let name = "update-mix"

let scale cfg = if cfg.smoke then 0.002 else 0.01

let workers = 2

(* Writes per second; a run of S seconds commits [write_rate * S]
   updates, so runs of one length compare. *)
let write_rate = 8.0

let reads =
  [|
    Replay.Xpath "//person[profile/education]/name";
    Replay.Xpath "/descendant::profile/descendant::education";
    Replay.Xpath "//item/description//keyword";
    Replay.Xpath "//person[@id=\"person_new3\"]/name";
    Replay.Xquery "for $p in //person where $p/profile/@income > 50000 return $p/name";
    Replay.Xquery
      "for $p in /site/people/person where $p/address/country = \"United States\" return $p/emailaddress";
  |]

let to_query = function Replay.Xpath s -> Server.Path s | Replay.Xquery s -> Server.Xquery s

let open_db path = match Db.open_ path with Ok db -> db | Error e -> failwith (Error.to_string e)

(* Opens the store (built before the set-up clock starts, as in
   serve-paged) and warms the service with each read once. *)
let setup ~path =
  let db = open_db path in
  let server = Server.create ~workers db in
  Array.iter (fun r -> ignore (Server.run server (to_query r))) reads;
  (db, server)

let answer_on session = function
  | Replay.Xpath src -> Util.answer (Eval.run_exn session src)
  | Replay.Xquery src -> (
    match Xq_compile.run session src with
    | Ok v -> Util.answer (Util.nodes_of_value v)
    | Error e -> failwith ("xquery: " ^ e))

(* Replays the op stream with Update.apply and checks every recorded
   read against the rendition of the epoch it pinned.  Returns the
   number of mismatches and the final document. *)
let verify base ops recorded =
  let by_epoch = Hashtbl.create 64 in
  List.iter (fun (i, epoch, got) -> Hashtbl.add by_epoch epoch (i, got)) recorded;
  let wrong = ref 0 in
  let check epoch doc =
    let l = Hashtbl.find_all by_epoch epoch in
    if l <> [] then begin
      let session = Eval.session doc in
      let expected = Array.map (fun r -> lazy (answer_on session r)) reads in
      List.iter (fun (i, got) -> if Lazy.force expected.(i) <> got then incr wrong) l
    end
  in
  check 0 base;
  let final, _ =
    List.fold_left
      (fun (doc, epoch) op ->
        match Update.apply doc op with
        | Ok a ->
          check (epoch + 1) a.Update.doc;
          (a.Update.doc, epoch + 1)
        | Error e -> failwith (Error.to_string e))
      (base, 0) ops
  in
  (!wrong, final)

type served = {
  tally : Load.tally;  (** the reads *)
  commits : Util.Samples.t;  (** ms from the scheduled time *)
  write_failures : int;
  late_ms : float;
  recorded : (int * int * Util.answer) list;  (** read, pinned epoch, answer *)
  wall : float;
}

(* The writer (its own domain) sends [ops] on an open-loop schedule,
   one outstanding at a time so they commit in order; the reader (this
   domain) runs a closed loop until the writer is done. *)
let serve server ~seed ops =
  let writing = Atomic.make true in
  let writer () =
    let commits = Util.Samples.create () and failures = ref 0 and late = ref 0.0 in
    let start = Util.now () in
    List.iteri
      (fun k op ->
        let scheduled = start +. (float_of_int k /. write_rate) in
        let wait = scheduled -. Util.now () in
        if wait > 0.0 then Unix.sleepf wait;
        late := Float.max !late (Util.now () -. scheduled);
        match Server.run server (Server.Write { op; expect = None }) with
        | Server.Done _ -> Util.Samples.add commits (1000.0 *. (Util.now () -. scheduled))
        | Server.Timed_out | Server.Failed _ | Server.Dropped -> incr failures)
      ops;
    (commits, !failures, 1000.0 *. !late)
  in
  let t0 = Util.now () in
  let w = Domain.spawn (fun () -> Fun.protect ~finally:(fun () -> Atomic.set writing false) writer) in
  let pick = Util.deck (Util.rng seed 5) (List.init (Array.length reads) (fun i -> (i, 1))) in
  let recorded = ref [] in
  let tally =
    Load.closed_loop server
      ~running:(fun () -> Atomic.get writing)
      ~next:(fun () ->
        let i = pick () in
        (i, to_query reads.(i)))
      ~check:(fun i r -> recorded := (i, r.Server.epoch, Util.answer r.Server.result) :: !recorded)
  in
  let commits, write_failures, late_ms = Domain.join w in
  { tally; commits; write_failures; late_ms; recorded = !recorded; wall = Util.now () -. t0 }

(* After the run: fold the log into the page file, checksum-walk it,
   reopen, and compare size and reader answers with the replayed final
   document.  Returns the checkpoint time and whether all held. *)
let durable db ~path final =
  let checkpoint_ms = Util.elapsed_ms (fun () -> Db.checkpoint db) in
  let verified = match Option.map Store.verify (Db.store db) with Some (Ok ()) -> true | _ -> false in
  Db.close db;
  let reopened =
    match Store.open_ path with
    | Error _ -> false
    | Ok s ->
      let same_size = Store.n_nodes s = Doc.n_nodes final in
      let a = Eval.session (Store.doc s) and b = Eval.session final in
      let same_answers = Array.for_all (fun r -> answer_on a r = answer_on b r) reads in
      Store.close s;
      same_size && same_answers
  in
  (checkpoint_ms, verified && reopened)

let run cfg sp =
  let scale = scale cfg in
  let xml = Util.xmark_xml ~scale ~seed:cfg.seed in
  let dir = Util.workdir name in
  let path = Filename.concat dir "store" in
  let params = [ ("scale", scale); ("workers", float_of_int workers); ("write_rate", write_rate) ] in
  Fun.protect
    ~finally:(fun () -> Util.cleanup dir)
    (fun () ->
      Store.close (Store.create ~path (Util.load_doc xml));
      let (db, server), setup_s =
        Util.setups (setup_reps cfg 11)
          ~setup:(fun () -> setup ~path)
          ~teardown:(fun (db, server) ->
            Server.shutdown server;
            Db.close db)
      in
      let base = Db.doc db in
      let seconds = if cfg.trace then cfg.seconds /. 4.0 else cfg.seconds in
      let n_ops = max 1 (int_of_float (write_rate *. seconds)) in
      let ops = Probe.ops ~seed:cfg.seed base n_ops in
      let rss0 = Util.rss_mb () in
      let s = serve server ~seed:cfg.seed ops in
      let peak = Util.peak_rss_mb () in
      let retained = (Util.rss_mb () -. rss0) /. float_of_int (max 1 (Util.Samples.count s.commits)) in
      Server.shutdown server;
      let store_bytes = Util.dir_bytes path in
      let wrong, final = verify base ops s.recorded in
      let checkpoint_ms, durable_ok = durable db ~path final in
      let failed = s.tally.failed + s.write_failures + wrong + if durable_ok then 0 else 1 in
      let correct = wrong = 0 && durable_ok in
      let attempted = s.tally.attempted + n_ops in
      if not cfg.trace then
        {
          attempted;
          failed;
          correct;
          metrics =
            [
              m "setup_s" "s" setup_s;
              m "latency_p50_ms" "ms" (Util.pct s.tally.client 50.0);
              m "latency_p99_ms" "ms" (Util.pct s.tally.client 99.0);
              m "throughput_qps" "qps" (float_of_int (Util.Samples.count s.tally.client) /. s.wall);
              m "peak_rss_mb" "MB" peak;
              m "space_amp" "ratio" (float_of_int store_bytes /. float_of_int (String.length xml));
            ];
          extras =
            [
              m "commit_p50_ms" "ms" (Util.pct s.commits 50.0);
              m "commit_p95_ms" "ms" (Util.pct s.commits 95.0);
              m "commits" "count" (float_of_int (Util.Samples.count s.commits));
              m "server.retained_mb_per_commit" "MB" retained;
              m "server.gen_late_ms" "ms" s.late_ms;
              m "store.checkpoint_ms" "ms" checkpoint_ms;
              m "nodes" "count" (float_of_int (Doc.n_nodes base));
            ];
          params;
        }
      else
        let replay =
          Replay.run sp base ~seconds
            ~warm:(Array.to_list reads)
            ~next:(Util.deck (Util.rng cfg.seed 6) (Array.to_list (Array.map (fun r -> (r, 1)) reads)))
            ~flwor:[]
        in
        let probe =
          Probe.run sp ~dir ~xml base ~ops:(List.filteri (fun i _ -> i < 60) ops)
            ~warm:(fun session -> Array.iter (fun r -> ignore (answer_on session r)) reads)
            ~reps:3
        in
        {
          attempted;
          failed;
          correct;
          metrics = merge [ probe; replay; server_metrics ~client:s.tally.client ~service:s.tally.service ];
          extras = [];
          params;
        })
