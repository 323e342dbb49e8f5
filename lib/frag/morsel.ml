(* Morsel-driven intra-query parallelism (Leis et al., "Morsel-Driven
   Parallelism").  A staircase join is split into fixed-size morsels —
   contiguous chunks of the document table, ~16–64K nodes each — that a
   shared pool of worker domains claims one at a time.  Unlike
   [Parallel]'s per-step fork/join (spawn [domains-1] domains, join them,
   repeat for the next step), the pool is persistent: a multi-step plan
   submits one batch per join and the same hot domains pull morsels from
   every batch, and from every concurrent query, with no spawn/join on
   any step boundary.  The server's query workers draw from the very same
   pool (queries submit morsels, the server submits queries).

   Counter parity: a morsel is a run of the serial join's own partition
   phases ([Staircase.desc_phases]), executed by the same kernel
   ([Staircase.run_phase]) into a private [Stats.t], so the Σ-tallies
   merge equals a serial run bit for bit and [Staircase.Reference] stays
   the oracle.  Scan phases whose control flow is data-dependent (skip
   hops, early breaks) are never split mid-stream — only the
   comparison-free copy phases and the per-node-independent no-skip
   scans are chunked. *)

module Nodeseq = Scj_encoding.Nodeseq
module Int_col = Scj_bat.Int_col
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Sj = Scj_core.Staircase

(* ------------------------------------------------------------------ *)
(* The shared domain pool                                              *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  (* A batch is an indexed family of tasks.  Claiming is a one-word bump
     under the batch mutex; [width] caps how many domains work the batch
     at once, so a query with [exec.domains = w] runs at most [w]-wide
     however large the pool is.  A failed task records the first
     exception and cancels the unclaimed remainder; the submitter
     re-raises it once every in-flight task has settled — worker
     exceptions are never swallowed. *)
  type batch = {
    run : int -> unit;
    n : int;
    width : int;
    bm : Mutex.t;
    bcv : Condition.t;  (* signalled when the batch completes *)
    mutable next : int;  (* next unclaimed task; >= n once drained or cancelled *)
    mutable live : int;  (* claimed but not yet finished *)
    mutable failed : exn option;
  }

  type t = {
    m : Mutex.t;
    work : Condition.t;  (* new batch, freed width, or shutdown *)
    mutable active : batch list;  (* submission order; drained batches removed *)
    mutable workers : unit Domain.t list;
    mutable size : int;
    mutable stopping : bool;
  }

  let size t =
    Mutex.lock t.m;
    let s = t.size in
    Mutex.unlock t.m;
    s

  let claim b =
    Mutex.lock b.bm;
    let r =
      if b.next < b.n && b.live < b.width then begin
        let i = b.next in
        b.next <- i + 1;
        b.live <- b.live + 1;
        Some i
      end
      else None
    in
    Mutex.unlock b.bm;
    r

  let fail b e =
    Mutex.lock b.bm;
    if b.failed = None then b.failed <- Some e;
    (* cancel the unclaimed remainder: nobody claims past [n] *)
    b.next <- b.n;
    Mutex.unlock b.bm

  let remove t b =
    Mutex.lock t.m;
    t.active <- List.filter (fun b' -> b' != b) t.active;
    Mutex.unlock t.m

  let finish t b =
    Mutex.lock b.bm;
    b.live <- b.live - 1;
    let completed = b.next >= b.n && b.live = 0 in
    let claimable = b.next < b.n in
    if completed then Condition.broadcast b.bcv;
    Mutex.unlock b.bm;
    if completed then remove t b
    else if claimable then begin
      (* freed a width slot with work left: wake a sleeping domain *)
      Mutex.lock t.m;
      Condition.broadcast t.work;
      Mutex.unlock t.m
    end

  (* Claim-and-run until the batch has nothing left for this domain. *)
  let rec drain t b =
    match claim b with
    | None -> ()
    | Some i ->
      (match b.run i with () -> () | exception e -> fail b e);
      finish t b;
      drain t b

  (* Oldest claimable batch; prune batches that can never yield work
     again (drained with no waiter still attached is removed by its last
     finisher, so pruning here is just a scan). *)
  let pick t =
    let claimable b =
      Mutex.lock b.bm;
      let r = b.next < b.n && b.live < b.width in
      Mutex.unlock b.bm;
      r
    in
    List.find_opt claimable t.active

  let worker_loop t =
    Mutex.lock t.m;
    let rec loop () =
      match pick t with
      | Some b ->
        Mutex.unlock t.m;
        drain t b;
        Mutex.lock t.m;
        loop ()
      | None ->
        (* finish all claimable work before honouring shutdown, so a
           stop never strands a submitted batch *)
        if t.stopping then Mutex.unlock t.m
        else begin
          Condition.wait t.work t.m;
          loop ()
        end
    in
    loop ()

  (* Grow-only: the pool never shrinks while servers or queries hold it. *)
  let ensure t n =
    Mutex.lock t.m;
    if n > t.size && not t.stopping then begin
      let fresh = List.init (n - t.size) (fun _ -> Domain.spawn (fun () -> worker_loop t)) in
      t.workers <- t.workers @ fresh;
      t.size <- n
    end;
    Mutex.unlock t.m

  let create ?(workers = 0) () =
    let t =
      {
        m = Mutex.create ();
        work = Condition.create ();
        active = [];
        workers = [];
        size = 0;
        stopping = false;
      }
    in
    if workers > 0 then ensure t workers;
    t

  let enqueue t b =
    Mutex.lock t.m;
    t.active <- t.active @ [ b ];
    Condition.broadcast t.work;
    Mutex.unlock t.m

  let make_batch ~width ~n run =
    {
      run;
      n;
      width = max 1 width;
      bm = Mutex.create ();
      bcv = Condition.create ();
      next = 0;
      live = 0;
      failed = None;
    }

  (* Run [n] tasks and wait.  The submitting domain helps execute its own
     batch — progress is guaranteed even on a zero-worker pool, and a
     pool worker that submits a nested batch can never deadlock waiting
     for peers that are themselves waiting. *)
  let submit t ~width ~n run =
    if n > 0 then begin
      let b = make_batch ~width ~n run in
      enqueue t b;
      drain t b;
      Mutex.lock b.bm;
      while not (b.next >= b.n && b.live = 0) do
        Condition.wait b.bcv b.bm
      done;
      let failed = b.failed in
      Mutex.unlock b.bm;
      match failed with Some e -> raise e | None -> ()
    end

  (* Fire-and-forget single task (the server's per-query jobs).  Runs on
     a pool domain, so the pool is grown to at least one worker. *)
  let async t run =
    ensure t 1;
    enqueue t (make_batch ~width:1 ~n:1 (fun _ -> run ()))

  let shutdown t =
    Mutex.lock t.m;
    t.stopping <- true;
    Condition.broadcast t.work;
    let workers = t.workers in
    t.workers <- [];
    t.size <- 0;
    Mutex.unlock t.m;
    List.iter Domain.join workers

  (* The process-wide shared pool.  Sized so that [default_domains]-wide
     batches run fully parallel counting the submitting domain; the
     server grows it to its worker count on creation. *)
  let shared_mutex = Mutex.create ()

  let shared_pool = ref None

  let shared () =
    Mutex.lock shared_mutex;
    let p =
      match !shared_pool with
      | Some p -> p
      | None ->
        let p = create () in
        shared_pool := Some p;
        Mutex.unlock shared_mutex;
        ensure p (max 0 (Exec.default_domains () - 1));
        Mutex.lock shared_mutex;
        p
    in
    Mutex.unlock shared_mutex;
    p

  let ensure_shared n = ensure (shared ()) n
end

(* ------------------------------------------------------------------ *)
(* Splitting a staircase join into morsels                             *)
(* ------------------------------------------------------------------ *)

(* Middle of the issue's 16–64K band; big enough that claim overhead
   vanishes, small enough that a skewed partition still spreads across
   the pool. *)
let default_morsel_size = 32768

(* One unit of work inside a morsel: a partition phase, or a chunk of
   one. *)
type op = { phase : Sj.phase; lo : int; hi : int; boundary : int }

let op_weight op =
  match op.phase with Sj.Skip -> 1 | Sj.Copy | Sj.Desc_scan | Sj.Anc_scan -> op.hi - op.lo + 1

(* Only counter-additive phases are ever chunked below partition
   granularity: copies (bulk blit, no comparisons) and the no-skip scans
   (one [scanned] per node, append decisions independent per node).
   Skip scans carry data-dependent control flow and stay whole.  Chunks
   of at most [morsel_size] are pushed onto [acc] in ascending order. *)
let split ~mode ~morsel_size acc phase ~lo ~hi ~boundary =
  let chunked =
    match phase with
    | Sj.Copy -> true
    | Sj.Desc_scan | Sj.Anc_scan -> mode = Sj.No_skipping
    | Sj.Skip -> false
  in
  let step = if chunked then morsel_size else hi - lo + 1 in
  let start = ref lo in
  while !start <= hi do
    let stop = min hi (!start + step - 1) in
    acc := { phase; lo = !start; hi = stop; boundary } :: !acc;
    start := stop + 1
  done

(* Greedy grouping: consecutive ops share a morsel until its weight
   reaches [morsel_size].  Ops stay in partition order and every op
   appends ascending pre ranks, so concatenating the per-morsel buffers
   in morsel order reproduces document order. *)
let group_ops ~morsel_size ops =
  let n = Array.length ops in
  let bounds = ref [] in
  let start = ref 0 in
  let weight = ref 0 in
  for i = 0 to n - 1 do
    let w = op_weight ops.(i) in
    if !weight > 0 && !weight + w > morsel_size then begin
      bounds := (!start, i) :: !bounds;
      start := i;
      weight := 0
    end;
    weight := !weight + w
  done;
  if n > 0 then bounds := (!start, n) :: !bounds;
  Array.of_list (List.rev !bounds)

(* ------------------------------------------------------------------ *)
(* Morsel execution                                                    *)
(* ------------------------------------------------------------------ *)

(* Run all grouped morsels of one join through the pool and merge the
   per-morsel buffers and tallies deterministically (morsel order). *)
let run_morsels exec pool ~morsel_size doc ~desc partitions =
  let mode = exec.Exec.mode in
  let ops = ref [] in
  let split phase ~lo ~hi ~boundary = split ~mode ~morsel_size ops phase ~lo ~hi ~boundary in
  List.iter
    (fun { Sj.scan_from = lo; scan_to = hi; boundary_post = boundary } ->
      if desc then Sj.desc_phases ~mode doc ~lo ~hi ~boundary split
      else split Sj.Anc_scan ~lo ~hi ~boundary)
    partitions;
  let ops = Array.of_list (List.rev !ops) in
  let bounds = group_ops ~morsel_size ops in
  let nm = Array.length bounds in
  if nm = 0 then Nodeseq.empty
  else begin
    let outs = Array.init nm (fun _ -> Int_col.create ~capacity:64 ()) in
    let tallies = Array.init nm (fun _ -> Stats.create ()) in
    let task m =
      (* deadline / cancellation poll at every morsel boundary *)
      Exec.checkpoint exec;
      let lo, hi = bounds.(m) in
      let out = outs.(m) and stats = tallies.(m) in
      for o = lo to hi - 1 do
        let op = ops.(o) in
        Sj.run_phase ~mode doc stats out op.phase ~lo:op.lo ~hi:op.hi ~boundary:op.boundary
      done
    in
    if Exec.tracing exec then Exec.annot exec "morsels" (string_of_int nm);
    Pool.submit pool ~width:exec.Exec.domains ~n:nm task;
    Array.iter (fun s -> Stats.add exec.Exec.stats s) tallies;
    let total = Array.fold_left (fun acc c -> acc + Int_col.length c) 0 outs in
    let merged = Array.make total 0 in
    let pos = ref 0 in
    Array.iter
      (fun col ->
        Int_col.blit_into col merged ~dst_pos:!pos;
        pos := !pos + Int_col.length col)
      outs;
    Nodeseq.of_sorted_array merged
  end

let ensure_exec = function None -> Exec.make () | Some e -> e

let desc ?pool ?(morsel_size = default_morsel_size) ?exec doc context =
  let exec = ensure_exec exec in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  (* prune once on the submitting thread, exactly like the serial join *)
  let context = Sj.prune_desc ~exec doc context in
  run_morsels exec pool ~morsel_size doc ~desc:true (Sj.desc_partitions_pruned doc context)

let anc ?pool ?(morsel_size = default_morsel_size) ?exec doc context =
  let exec = ensure_exec exec in
  let pool = match pool with Some p -> p | None -> Pool.shared () in
  let context = Sj.prune_anc ~exec doc context in
  run_morsels exec pool ~morsel_size doc ~desc:false (Sj.anc_partitions_pruned doc context)
