module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Update = Scj_encoding.Update
module Error = Scj_error.Error
module Stats = Scj_stats.Stats
module Histogram = Scj_stats.Histogram
module Exec = Scj_trace.Exec
module Eval = Scj_xpath.Eval
module Xq_compile = Scj_xquery.Xq_compile
module Paged_doc = Scj_pager.Paged_doc
module Buffer_pool = Scj_pager.Buffer_pool
module Db = Scj_db.Db
module Guide = Scj_guide.Guide

type query =
  | Path of string
  | Xquery of string
  | Step of [ `Desc | `Anc ] * Nodeseq.t
  | Write of { op : Update.op; expect : int option }

type reply = {
  result : Nodeseq.t;
  work : Stats.t;
  pool_hits : int;
  pool_misses : int;
  latency_ms : float;
  epoch : int;
}

type outcome = Done of reply | Timed_out | Failed of Error.t | Dropped

type handle = {
  query : query;
  deadline : float;  (* absolute wall-clock; infinity = none *)
  hm : Mutex.t;
  hcv : Condition.t;
  mutable outcome : outcome option;
}

type admission = Accepted of handle | Overloaded | Stopped

type service_stats = {
  completed : int;
  timed_out : int;
  failed : int;
  internal : int;
  rejected : int;
  dropped : int;
  commits : int;
  epoch : int;
  latency : Histogram.t;
  work : Stats.t;
  tally_hits : int;
  tally_misses : int;
}

(* One immutable rendition of the document under snapshot isolation: a
   snapshot of the Db's document, its dataguide and its paged image,
   taken at a commit.  Workers plan over the one guide (published guides
   are never mutated: Guide.update copies), so a commit splices it once
   for every worker; nothing links a rendition to its predecessor, which
   becomes garbage once no worker or in-flight query holds it. *)
type rendition = { repoch : int; rdoc : Doc.t; rguide : Guide.t; rpaged : Paged_doc.t }

(* [wsvc] is the per-worker query cache (parsed XPath / compiled FLWOR
   programs, keyed by language + strategy + source) over a session of
   [wrend]; its programs close over that session, so both are replaced
   together when the worker moves to a newer rendition. *)
type worker_state = { mutable wrend : rendition; mutable wsvc : Xq_compile.service }

type t = {
  db : Db.t;
  default_deadline : float;  (* relative seconds; infinity = none *)
  queue_bound : int;
  queue : handle Queue.t;
  qm : Mutex.t;
  qcv : Condition.t;  (* drainer exits signal; shutdown waits *)
  mutable stopping : bool;
  (* Queries run as jobs on the shared morsel pool — the server submits
     queries, queries submit morsels, one scheduler under both.
     [inflight] (under [qm]) counts the drainer jobs currently working
     this queue; it never exceeds [n_workers], preserving the dedicated
     worker-domain concurrency bound.  Invariant: a non-empty queue
     always has at least one drainer in flight. *)
  mutable inflight : int;
  pool : Scj_frag.Morsel.Pool.t;
  n_workers : int;
  (* per-domain sessions, lazily built: whichever pool domain picks up a
     drainer job gets (or creates) its own session *)
  wsm : Mutex.t;
  wstates : (int, worker_state) Hashtbl.t;
  (* the rendition pointer: one word, swapped under [rm] at commit —
     readers grab it once per query and never see a partial rendition *)
  rm : Mutex.t;
  mutable current : rendition;
  (* the single-writer mutex: serializes Db.apply + the epoch swap *)
  wm : Mutex.t;
  (* service-level accumulators, all under [sm] *)
  sm : Mutex.t;
  latency : Histogram.t;
  work : Stats.t;
  mutable completed : int;
  mutable timed_out : int;
  mutable failed : int;
  mutable internal : int;
  mutable rejected : int;
  mutable dropped : int;
  mutable commits : int;
  mutable tally_hits : int;
  mutable tally_misses : int;
}

(* Raised from the per-query cancellation hook; only ever escapes to the
   worker loop, never to clients. *)
exception Deadline

let current t =
  Mutex.lock t.rm;
  let r = t.current in
  Mutex.unlock t.rm;
  r

(* the Db's current state as rendition [epoch]; under the writer mutex
   (or before the service starts), so the three agree *)
let snapshot db epoch =
  { repoch = epoch; rdoc = Db.doc db; rguide = Db.guide db; rpaged = Db.paged db }

let finish t handle ~tally outcome =
  Mutex.lock t.sm;
  (* pool traffic is charged whatever the outcome: an aborted query's
     faults still happened — the Σ-tallies = pool-counters invariant
     must hold across timeouts and failures *)
  t.tally_hits <- t.tally_hits + tally.Buffer_pool.Tally.hits;
  t.tally_misses <- t.tally_misses + tally.Buffer_pool.Tally.misses;
  (match outcome with
  | Done r ->
    t.completed <- t.completed + 1;
    Histogram.add t.latency r.latency_ms;
    Stats.add t.work r.work
  | Timed_out -> t.timed_out <- t.timed_out + 1
  | Failed e ->
    t.failed <- t.failed + 1;
    (match e with Error.Internal _ -> t.internal <- t.internal + 1 | _ -> ())
  | Dropped -> t.dropped <- t.dropped + 1);
  Mutex.unlock t.sm;
  Mutex.lock handle.hm;
  handle.outcome <- Some outcome;
  Condition.broadcast handle.hcv;
  Mutex.unlock handle.hm

(* ------------------------------------------------------------------ *)
(* Per-worker sessions                                                 *)
(* ------------------------------------------------------------------ *)

let service_over t r =
  Xq_compile.service
    (Eval.session ?strategy:(Db.strategy t.db) ~paged:r.rpaged ~guide:r.rguide r.rdoc)

(* the worker's query cache for rendition [r]: when the rendition
   changed, a fresh session over its shared guide and a fresh cache —
   nothing is carried forward from the superseded rendition *)
let service_for t ws r =
  if ws.wrend != r then begin
    ws.wrend <- r;
    ws.wsvc <- service_over t r
  end;
  ws.wsvc

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let exec_write t op expect =
  let start = Unix.gettimeofday () in
  (* single writer: validate + WAL-commit + swap, serialized *)
  Mutex.lock t.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.wm)
    (fun () ->
      let cur = current t in
      match expect with
      | Some e when e <> cur.repoch ->
        Error (Error.Conflict { expected = e; actual = cur.repoch })
      | _ -> (
        match Db.apply t.db op with
        | Error _ as e -> e
        | Ok applied ->
          let epoch = cur.repoch + 1 in
          let r = snapshot t.db epoch in
          (* the commit point: one pointer swap — readers either see the
             whole old rendition or the whole new one *)
          Mutex.lock t.rm;
          t.current <- r;
          Mutex.unlock t.rm;
          Mutex.lock t.sm;
          t.commits <- t.commits + 1;
          Mutex.unlock t.sm;
          let result =
            match op with
            | Update.Insert _ -> Nodeseq.singleton applied.Update.splice
            | Update.Delete _ -> Nodeseq.empty
            | Update.Rename { pre; _ } -> Nodeseq.singleton pre
          in
          let latency_ms = 1000.0 *. (Unix.gettimeofday () -. start) in
          Ok
            {
              result;
              work = Stats.create ();
              pool_hits = 0;
              pool_misses = 0;
              latency_ms;
              epoch;
            }))

let exec_query t ws handle =
  let start = Unix.gettimeofday () in
  let tally = Buffer_pool.Tally.create () in
  match handle.query with
  | Write { op; expect } -> (
    match exec_write t op expect with
    | Ok reply -> finish t handle ~tally (Done reply)
    | Error e -> finish t handle ~tally (Failed e))
  | Path _ | Xquery _ | Step _ -> (
    (* pin the rendition once: everything below reads this immutable
       snapshot, however many commits land meanwhile *)
    let r = current t in
    let check () = if Unix.gettimeofday () > handle.deadline then raise Deadline in
    (* fresh counters per query; domains = 1 — workers never nest their
       own domain pools inside the service's *)
    let exec = Exec.make ~domains:1 ~check () in
    match
      match handle.query with
      | Path src -> (
        (* through the worker's query cache: repeated sources skip the
           parse, and both languages share one keyed cache *)
        let svc = service_for t ws r in
        match Xq_compile.prepare svc ~lang:`Xpath src with
        | Ok p -> Ok (Xq_compile.run_prepared ~exec svc p)
        | Error e -> Error e)
      | Xquery src -> (
        let svc = service_for t ws r in
        match Xq_compile.prepare svc ~lang:`Xquery src with
        | Ok p -> Ok (Xq_compile.run_prepared ~exec svc p)
        | Error e -> Error e)
      | Step (axis, context) -> (
        (* ranks are non-negative and sorted: the last bounds them all *)
        let n = Doc.n_nodes r.rdoc in
        match Nodeseq.last context with
        | Some hi when hi >= n ->
          Error
            (Error.validation
               (Printf.sprintf "step context rank %d outside the rendition's %d node(s)" hi n))
        | Some _ | None ->
          let paged = Paged_doc.with_tally r.rpaged tally in
          Ok
            (match axis with
            | `Desc -> Paged_doc.desc ~exec paged context
            | `Anc -> Paged_doc.anc ~exec paged context))
      | Write _ -> assert false
    with
    | Ok result ->
      let latency_ms = 1000.0 *. (Unix.gettimeofday () -. start) in
      finish t handle ~tally
        (Done
           {
             result;
             work = exec.Exec.stats;
             pool_hits = tally.Buffer_pool.Tally.hits;
             pool_misses = tally.Buffer_pool.Tally.misses;
             latency_ms;
             epoch = r.repoch;
           })
    | Error e -> finish t handle ~tally (Failed e)
    | exception Deadline -> finish t handle ~tally Timed_out
    | exception Scj_plan.Flwor.Error msg ->
      (* dynamic XQuery errors (arity, coercion): the query is at fault *)
      finish t handle ~tally (Failed (Error.parse msg))
    | exception Scj_store.Store.Corrupt msg -> finish t handle ~tally (Failed (Error.corrupt msg))
    | exception ((Unix.Unix_error _ | Sys_error _) as e) ->
      finish t handle ~tally (Failed (Error.io (Printexc.to_string e)))
    | exception e -> finish t handle ~tally (Failed (Error.Internal (Printexc.to_string e))))

(* The session for whichever pool domain is running this job. *)
let worker_state_for t =
  let id = (Domain.self () :> int) in
  Mutex.lock t.wsm;
  let ws =
    match Hashtbl.find_opt t.wstates id with
    | Some ws -> ws
    | None ->
      let r = current t in
      let ws = { wrend = r; wsvc = service_over t r } in
      Hashtbl.add t.wstates id ws;
      ws
  in
  Mutex.unlock t.wsm;
  ws

(* Drainer job: pop-and-execute until the queue is empty, then retire.
   Shutdown relies on the exit broadcast; drain semantics (accepted
   queries finish) hold because a drainer only retires on an empty
   queue. *)
let rec drain_loop t ws =
  Mutex.lock t.qm;
  let job = if Queue.is_empty t.queue then None else Some (Queue.pop t.queue) in
  (match job with
  | None ->
    t.inflight <- t.inflight - 1;
    Condition.broadcast t.qcv
  | Some _ -> ());
  Mutex.unlock t.qm;
  match job with
  | None -> ()
  | Some handle ->
    exec_query t ws handle;
    drain_loop t ws

let spawn_drainer t =
  Scj_frag.Morsel.Pool.async t.pool (fun () -> drain_loop t (worker_state_for t))

let create ?workers ?queue_bound ?deadline db =
  let n_workers = match workers with Some w -> max 1 w | None -> Exec.default_domains () in
  let queue_bound = match queue_bound with Some b -> max 1 b | None -> 4 * n_workers in
  let default_deadline = match deadline with Some d -> d | None -> infinity in
  let initial = snapshot db 0 in
  let t =
    {
      db;
      default_deadline;
      queue_bound;
      queue = Queue.create ();
      qm = Mutex.create ();
      qcv = Condition.create ();
      stopping = false;
      inflight = 0;
      pool = Scj_frag.Morsel.Pool.shared ();
      n_workers;
      wsm = Mutex.create ();
      wstates = Hashtbl.create 8;
      rm = Mutex.create ();
      current = initial;
      wm = Mutex.create ();
      sm = Mutex.create ();
      latency = Histogram.create ();
      work = Stats.create ();
      completed = 0;
      timed_out = 0;
      failed = 0;
      internal = 0;
      rejected = 0;
      dropped = 0;
      commits = 0;
      tally_hits = 0;
      tally_misses = 0;
    }
  in
  (* grow the shared pool so this server's concurrency bound is real
     parallelism; the pool never shrinks, other servers and queries keep
     drawing from it *)
  Scj_frag.Morsel.Pool.ensure t.pool n_workers;
  t

let workers t = t.n_workers

let epoch t = (current t).repoch

let db t = t.db

let submit ?deadline t query =
  let rel = match deadline with Some d -> d | None -> t.default_deadline in
  let abs = if rel = infinity then infinity else Unix.gettimeofday () +. rel in
  Mutex.lock t.qm;
  if t.stopping then begin
    Mutex.unlock t.qm;
    Mutex.lock t.sm;
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.sm;
    Stopped
  end
  else if Queue.length t.queue >= t.queue_bound then begin
    Mutex.unlock t.qm;
    Mutex.lock t.sm;
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.sm;
    Overloaded
  end
  else begin
    let handle =
      { query; deadline = abs; hm = Mutex.create (); hcv = Condition.create (); outcome = None }
    in
    Queue.push handle t.queue;
    (* dispatch a drainer unless the concurrency bound is already met;
       an in-flight drainer will pick this query up itself *)
    let dispatch = t.inflight < t.n_workers in
    if dispatch then t.inflight <- t.inflight + 1;
    Mutex.unlock t.qm;
    if dispatch then spawn_drainer t;
    Accepted handle
  end

let await handle =
  Mutex.lock handle.hm;
  while handle.outcome = None do
    Condition.wait handle.hcv handle.hm
  done;
  let o = Option.get handle.outcome in
  Mutex.unlock handle.hm;
  o

let run ?deadline t query =
  match submit ?deadline t query with
  | Accepted h -> await h
  | Overloaded -> Failed Error.Overloaded
  | Stopped -> Failed Error.Shutdown

let stats t =
  let epoch = epoch t in
  Mutex.lock t.sm;
  let s =
    {
      completed = t.completed;
      timed_out = t.timed_out;
      failed = t.failed;
      internal = t.internal;
      rejected = t.rejected;
      dropped = t.dropped;
      commits = t.commits;
      epoch;
      latency = Histogram.copy t.latency;
      work = Stats.copy t.work;
      tally_hits = t.tally_hits;
      tally_misses = t.tally_misses;
    }
  in
  Mutex.unlock t.sm;
  s

let pool_stats t = Buffer_pool.stats (Paged_doc.pool (current t).rpaged)

(* With [drain] (the default) accepted queries finish before shutdown
   returns (a drainer only retires on an empty queue).  Without it the
   still-queued handles are resolved as [Dropped] — counted in
   [service_stats], never left unresolved for [await] to hang on.  The
   shared pool's domains are left running: other servers and queries
   draw from them. *)
let shutdown ?(drain = true) t =
  Mutex.lock t.qm;
  t.stopping <- true;
  let abandoned =
    if drain then []
    else begin
      let l = List.of_seq (Queue.to_seq t.queue) in
      Queue.clear t.queue;
      l
    end
  in
  Mutex.unlock t.qm;
  (* a dropped query never ran: its tally is empty, so the Σ-tallies =
     pool-counters invariant is untouched *)
  List.iter (fun h -> finish t h ~tally:(Buffer_pool.Tally.create ()) Dropped) abandoned;
  (* wait for the in-flight drainers: stopping blocks new submissions,
     so [inflight] only falls from here *)
  Mutex.lock t.qm;
  while not (Queue.is_empty t.queue && t.inflight = 0) do
    Condition.wait t.qcv t.qm
  done;
  Mutex.unlock t.qm
