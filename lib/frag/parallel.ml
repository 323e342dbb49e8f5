module Nodeseq = Scj_encoding.Nodeseq
module Int_col = Scj_bat.Int_col
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Sj = Scj_core.Staircase

let ensure_exec = function None -> Exec.make () | Some e -> e

(* Load-balanced contiguous chunking: partition [k] costs roughly its scan
   length (the nodes the worker will touch), not 1, so boundaries are cut
   where the scan-length prefix sum crosses the per-worker quota.  A
   single huge partition no longer rides with half the document while the
   other workers idle.  Slices stay contiguous so the concatenated
   per-worker outputs remain in document order; empty slices are
   harmless. *)
let weighted_boundaries parts workers =
  let n = Array.length parts in
  let cum = Array.make (n + 1) 0 in
  for k = 0 to n - 1 do
    let p = parts.(k) in
    cum.(k + 1) <- cum.(k) + (max 0 (p.Sj.scan_to - p.Sj.scan_from + 1) + 1)
  done;
  let total = cum.(n) in
  let bounds = Array.make (workers + 1) n in
  bounds.(0) <- 0;
  for w = 1 to workers - 1 do
    let quota = w * total / workers in
    let k = ref bounds.(w - 1) in
    while !k < n && cum.(!k) < quota do incr k done;
    bounds.(w) <- !k
  done;
  bounds

let run_partitions exec doc ~desc partitions =
  let parts = Array.of_list partitions in
  let n = Array.length parts in
  if n = 0 then Nodeseq.empty
  else begin
    let workers = max 1 (min exec.Exec.domains n) in
    let bounds = weighted_boundaries parts workers in
    (* each worker owns a private result buffer and a private counter set;
       the counters are merged into the context after the join (they are
       plain sums, so the merged totals equal a serial run's).

       The per-worker slices run as one batch on the shared domain pool
       instead of spawning fresh domains per step: the submitting thread
       helps execute the batch, and Pool.submit re-raises the first
       worker exception only after every in-flight slice has settled —
       an aborting coordinator can neither leak a domain nor swallow a
       worker's failure. *)
    let results = Array.init workers (fun _ -> (Int_col.create ~capacity:256 (), Stats.create ())) in
    Morsel.Pool.submit (Morsel.Pool.shared ()) ~width:workers ~n:workers (fun w ->
        let out, stats = results.(w) in
        let mode = exec.Exec.mode in
        let run phase ~lo ~hi ~boundary =
          Sj.run_phase ~mode doc stats out phase ~lo ~hi ~boundary
        in
        for k = bounds.(w) to bounds.(w + 1) - 1 do
          (* the cancellation hook must be domain-safe (see Exec): every
             worker polls it between partition scans *)
          Exec.checkpoint exec;
          let { Sj.scan_from = lo; scan_to = hi; boundary_post = boundary } = parts.(k) in
          if desc then Sj.desc_phases ~mode doc ~lo ~hi ~boundary run
          else run Sj.Anc_scan ~lo ~hi ~boundary
        done);
    Array.iter (fun (_, stats) -> Stats.add exec.Exec.stats stats) results;
    let total = Array.fold_left (fun acc (c, _) -> acc + Int_col.length c) 0 results in
    (* zero-copy merge: blit each worker's live prefix straight into the
       result array — no intermediate to_array copies *)
    let out = Array.make total 0 in
    let pos = ref 0 in
    Array.iter
      (fun (col, _) ->
        Int_col.blit_into col out ~dst_pos:!pos;
        pos := !pos + Int_col.length col)
      results;
    Nodeseq.of_sorted_array out
  end

let default_domains () = Exec.default_domains ()

let desc ?exec doc context =
  let exec = ensure_exec exec in
  (* prune on the coordinating thread so [pruned] is counted exactly once,
     like the serial join does; the partitions are then built directly from
     the pruned staircase — the O(n) prune runs exactly once per join *)
  let context = Sj.prune_desc ~exec doc context in
  run_partitions exec doc ~desc:true (Sj.desc_partitions_pruned doc context)

let anc ?exec doc context =
  let exec = ensure_exec exec in
  let context = Sj.prune_anc ~exec doc context in
  run_partitions exec doc ~desc:false (Sj.anc_partitions_pruned doc context)
