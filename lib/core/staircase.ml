module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Int_col = Scj_bat.Int_col
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec

type skip_mode = Exec.skip_mode = No_skipping | Skipping | Estimation | Exact_size

let skip_mode_to_string = Exec.skip_mode_to_string

let ensure_exec = function None -> Exec.make () | Some e -> e

(* ------------------------------------------------------------------ *)
(* pruning (Algorithm 1)                                                *)
(* ------------------------------------------------------------------ *)

(* Keep context nodes with strictly increasing post (pre is increasing by
   the Nodeseq invariant): dropped nodes are descendants of a kept one. *)
let prune_desc_st stats doc context =
  let posts = Doc.post_array doc in
  let ctx = Nodeseq.unsafe_array context in
  let out = Int_col.create ~capacity:(max 1 (Array.length ctx)) () in
  let prev = ref (-1) in
  Array.iter
    (fun c ->
      if posts.(c) > !prev then begin
        Int_col.append_unit out c;
        prev := posts.(c)
      end
      else stats.Stats.pruned <- stats.Stats.pruned + 1)
    ctx;
  Nodeseq.of_sorted_array (Int_col.to_array out)

(* Drop context nodes that are ancestors of a later context node: scanning
   right to left, an ancestor shows up as a node whose post exceeds the
   minimum post seen so far. *)
let prune_anc_st stats doc context =
  let posts = Doc.post_array doc in
  let ctx = Nodeseq.unsafe_array context in
  let m = Array.length ctx in
  let keep = Array.make m false in
  let kept = ref 0 in
  let min_post = ref max_int in
  for k = m - 1 downto 0 do
    let c = ctx.(k) in
    if posts.(c) < !min_post then begin
      keep.(k) <- true;
      incr kept;
      min_post := posts.(c)
    end
    else stats.Stats.pruned <- stats.Stats.pruned + 1
  done;
  if !kept = m then context
  else begin
    let out = Array.make !kept 0 in
    let j = ref 0 in
    for k = 0 to m - 1 do
      if keep.(k) then begin
        out.(!j) <- ctx.(k);
        incr j
      end
    done;
    Nodeseq.of_sorted_array out
  end

(* §3.1: all context nodes except the one with minimal postorder rank can
   be pruned for the following axis. *)
let prune_following_st stats doc context =
  let posts = Doc.post_array doc in
  match Nodeseq.length context with
  | 0 -> Nodeseq.empty
  | m ->
    let best = ref (Nodeseq.get context 0) in
    Nodeseq.iter (fun c -> if posts.(c) < posts.(!best) then best := c) context;
    stats.Stats.pruned <- stats.Stats.pruned + (m - 1);
    Nodeseq.singleton !best

(* ... and all except the one with maximal preorder rank for preceding. *)
let prune_preceding_st stats doc context =
  ignore doc;
  match Nodeseq.last context with
  | None -> Nodeseq.empty
  | Some c ->
    stats.Stats.pruned <- stats.Stats.pruned + (Nodeseq.length context - 1);
    Nodeseq.singleton c

let prune_desc ?exec doc context = prune_desc_st (ensure_exec exec).Exec.stats doc context

let prune_anc ?exec doc context = prune_anc_st (ensure_exec exec).Exec.stats doc context

let prune_following ?exec doc context =
  prune_following_st (ensure_exec exec).Exec.stats doc context

let prune_preceding ?exec doc context =
  prune_preceding_st (ensure_exec exec).Exec.stats doc context

let is_staircase doc context =
  let posts = Doc.post_array doc in
  let ctx = Nodeseq.unsafe_array context in
  let rec loop k =
    k >= Array.length ctx || (posts.(ctx.(k - 1)) < posts.(ctx.(k)) && loop (k + 1))
  in
  loop 1

(* ------------------------------------------------------------------ *)
(* partitions (Fig. 8)                                                  *)
(* ------------------------------------------------------------------ *)

type partition = { scan_from : int; scan_to : int; boundary_post : int }

(* The partitions of a context that is already a pruned staircase, as
   [f ~lo ~hi ~boundary] calls in document order: scan ranks [lo .. hi]
   against post rank [boundary].  The O(n) prune is *not* re-run, so
   callers that prune once (the joins below, Scj_frag.Parallel) never
   pay for it twice, and the serial joins build no partition records —
   an allocation per partition costs a stop-the-world minor collection
   share whenever other domains are alive. *)
let iter_desc_partitions doc context f =
  let posts = Doc.post_array doc in
  let ctx = Nodeseq.unsafe_array context in
  let m = Array.length ctx in
  let n = Doc.n_nodes doc in
  for k = 0 to m - 1 do
    let c = ctx.(k) in
    f ~lo:(c + 1) ~hi:(if k + 1 < m then ctx.(k + 1) - 1 else n - 1) ~boundary:posts.(c)
  done

let iter_anc_partitions doc context f =
  let posts = Doc.post_array doc in
  let ctx = Nodeseq.unsafe_array context in
  for k = 0 to Array.length ctx - 1 do
    let c = ctx.(k) in
    f ~lo:(if k = 0 then 0 else ctx.(k - 1) + 1) ~hi:(c - 1) ~boundary:posts.(c)
  done

let partitions iter doc context =
  let acc = ref [] in
  iter doc context (fun ~lo ~hi ~boundary ->
      acc := { scan_from = lo; scan_to = hi; boundary_post = boundary } :: !acc);
  List.rev !acc

let desc_partitions_pruned doc context = partitions iter_desc_partitions doc context

let anc_partitions_pruned doc context = partitions iter_anc_partitions doc context

let desc_partitions doc context =
  desc_partitions_pruned doc (prune_desc_st (Stats.create ()) doc context)

let anc_partitions doc context =
  anc_partitions_pruned doc (prune_anc_st (Stats.create ()) doc context)

(* ------------------------------------------------------------------ *)
(* partition kernels: one per phase, over column slices                 *)
(* ------------------------------------------------------------------ *)

(* Every executor — the serial joins below, Parallel's weighted slices,
   Morsel's chunks and the paged join — runs a partition through these
   kernels, so results and counters agree by construction.  A kernel
   reads a column slice: [col.(i - off)] is rank [i]'s entry.  The
   in-memory column is the one-slice case ([off = 0]); the paged join
   hands in one pinned page at a time, which is why a scan takes the
   partition's last rank [limit] apart from the slice's last rank
   [hi]. *)

(* Descendant scan of ranks [lo .. hi].  A partition holds c's subtree
   first and following(c) after it, so the nodes with post < boundary
   are a prefix of the range; the result is the rank just past that
   prefix.  Skipping stops at the first non-descendant and skips the
   rest of the partition (Algorithm 3); without skipping every node is
   compared (Algorithm 2). *)
let desc_scan ~skip stats (posts : int array) ~off ~lo ~hi ~limit ~boundary =
  if skip then begin
    let i = ref lo in
    while !i <= hi && posts.(!i - off) < boundary do
      incr i
    done;
    if !i <= hi then begin
      stats.Stats.scanned <- stats.Stats.scanned + (!i - lo + 1);
      stats.Stats.skipped <- stats.Stats.skipped + (limit - !i)
    end
    else stats.Stats.scanned <- stats.Stats.scanned + (!i - lo);
    !i
  end
  else begin
    let inside = ref 0 in
    for i = lo to hi do
      if posts.(i - off) < boundary then incr inside
    done;
    stats.Stats.scanned <- stats.Stats.scanned + (hi - lo + 1);
    lo + !inside
  end

(* Ancestor scan of ranks [lo .. hi], appending every node with post >
   boundary (ancestors are elements: no attribute filter).  A node
   outside the region takes its whole subtree with it into preceding(c):
   hop over it (§3.3) by the Equation-(1) lower bound, or the exact size
   with the footnote-5 encoding ([sizes] is read in that mode only, at
   the offset of [posts]).  Hops stop at [limit]; the result is the next
   rank to visit, which may lie past [hi]. *)
let anc_scan ~mode stats ~(posts : int array) ~(sizes : int array) ~off ~lo ~hi ~limit ~boundary
    out =
  let i = ref lo in
  while !i <= hi do
    stats.Stats.scanned <- stats.Stats.scanned + 1;
    let p = posts.(!i - off) in
    if p > boundary then begin
      Int_col.append_unit out !i;
      stats.Stats.appended <- stats.Stats.appended + 1;
      incr i
    end
    else begin
      let hop =
        match mode with
        | No_skipping -> 0
        | Skipping | Estimation -> max 0 (p - !i)
        | Exact_size -> sizes.(!i - off)
      in
      let hop = min hop (limit - !i) in
      stats.Stats.skipped <- stats.Stats.skipped + hop;
      i := !i + hop + 1
    end
  done;
  !i

(* §4.2: the copy phase is comparison-free, so it runs as bulk range
   fills (attributes carved out via the prefix sums) with the counters
   bumped once per phase — the batched sums equal the per-node
   reference totals exactly. *)
let count_copy stats ~lo ~hi ~appended =
  stats.Stats.copied <- stats.Stats.copied + (hi - lo + 1);
  stats.Stats.appended <- stats.Stats.appended + appended

type phase = Copy | Desc_scan | Anc_scan | Skip

(* The phases of the descendant partition scanning ranks [lo .. hi] for
   context node [lo - 1] (Algorithms 2, 3, 4), passed to [f] in rank
   order.  An ancestor partition is a single [Anc_scan] phase. *)
let desc_phases ~mode doc ~lo ~hi ~boundary f =
  let c = lo - 1 in
  let copy_to =
    match mode with
    | No_skipping | Skipping -> c
    | Estimation ->
      (* the first post(c) - pre(c) nodes after c are descendants for
         sure (Equation 1): copy them without looking at their posts *)
      max c (min hi boundary)
    | Exact_size -> min hi (c + (Doc.size_array doc).(c))
  in
  if copy_to > c then f Copy ~lo ~hi:copy_to ~boundary;
  if hi > copy_to then
    f (if mode = Exact_size then Skip else Desc_scan) ~lo:(copy_to + 1) ~hi ~boundary

let nonattr doc ~lo ~hi = if hi < lo then 0 else hi - lo + 1 - Doc.attr_count_range doc ~lo ~hi

(* One phase of a descendant partition over the in-memory columns: books
   its counters and returns the rank just past the nodes it selects — a
   copy phase its whole range, a scan phase the prefix [desc_scan] finds,
   a skip phase none.  The selected ranks, attributes aside, are the
   phase's result. *)
let desc_phase_stop ~mode doc stats phase ~lo ~hi ~boundary =
  match phase with
  | Copy ->
    count_copy stats ~lo ~hi ~appended:(nonattr doc ~lo ~hi);
    hi + 1
  | Desc_scan ->
    let stop =
      desc_scan ~skip:(mode <> No_skipping) stats (Doc.post_array doc) ~off:0 ~lo ~hi ~limit:hi
        ~boundary
    in
    stats.Stats.appended <- stats.Stats.appended + nonattr doc ~lo ~hi:(stop - 1);
    stop
  | Skip ->
    stats.Stats.skipped <- stats.Stats.skipped + (hi - lo + 1);
    lo
  | Anc_scan -> invalid_arg "Staircase.desc_phase_stop: ancestor phase"

let run_phase ~mode doc stats out phase ~lo ~hi ~boundary =
  match phase with
  | Anc_scan ->
    ignore
      (anc_scan ~mode stats ~posts:(Doc.post_array doc) ~sizes:(Doc.size_array doc) ~off:0 ~lo
         ~hi ~limit:hi ~boundary out)
  | Copy | Desc_scan | Skip ->
    let stop = desc_phase_stop ~mode doc stats phase ~lo ~hi ~boundary in
    ignore (Doc.append_nonattr_range doc out ~lo ~hi:(stop - 1))

(* ------------------------------------------------------------------ *)
(* node tests inside the join                                           *)
(* ------------------------------------------------------------------ *)

type node_test = Kind of Doc.kind | Named of Doc.kind * int

(* The joins never select attributes, and the kernels' range passes do
   not skip them: a test of that kind has no meaning here. *)
let check_test = function
  | Kind Doc.Attribute | Named (Doc.Attribute, _) ->
    invalid_arg "Staircase: a join's node test cannot select attributes"
  | Kind _ | Named _ -> ()

let passes (kinds : Doc.kind array) (tags : int array) test v =
  match test with Kind k -> kinds.(v) = k | Named (k, sym) -> kinds.(v) = k && tags.(v) = sym

(* The ranks in [lo .. hi] that pass [test]: counted, or written to [out]
   from index [pos] on (returning the next free index).  The test is
   matched once per range, so each loop body is a load and a compare. *)
let count_passing (kinds : Doc.kind array) (tags : int array) test ~lo ~hi =
  let n = ref 0 in
  (match test with
  | Kind k ->
    for i = lo to hi do
      if kinds.(i) = k then incr n
    done
  | Named (k, sym) ->
    for i = lo to hi do
      if kinds.(i) = k && tags.(i) = sym then incr n
    done);
  !n

let fill_passing (kinds : Doc.kind array) (tags : int array) test out pos ~lo ~hi =
  let j = ref pos in
  (match test with
  | Kind k ->
    for i = lo to hi do
      if kinds.(i) = k then begin
        out.(!j) <- i;
        incr j
      end
    done
  | Named (k, sym) ->
    for i = lo to hi do
      if kinds.(i) = k && tags.(i) = sym then begin
        out.(!j) <- i;
        incr j
      end
    done);
  !j

(* ------------------------------------------------------------------ *)
(* staircase joins, descendant and ancestor axes                        *)
(* ------------------------------------------------------------------ *)

(* [run] and the phase plan are called directly, not through partial
   applications: those take the slow curried path on every call. *)
let join exec doc ~desc context =
  if Nodeseq.is_empty context then Nodeseq.empty
  else begin
    let mode = exec.Exec.mode and stats = exec.Exec.stats in
    let out = Int_col.create ~capacity:256 () in
    let run phase ~lo ~hi ~boundary = run_phase ~mode doc stats out phase ~lo ~hi ~boundary in
    if desc then
      iter_desc_partitions doc context (fun ~lo ~hi ~boundary ->
          Exec.checkpoint exec;
          desc_phases ~mode doc ~lo ~hi ~boundary run)
    else
      iter_anc_partitions doc context (fun ~lo ~hi ~boundary ->
          Exec.checkpoint exec;
          run Anc_scan ~lo ~hi ~boundary);
    Nodeseq.of_sorted_array (Int_col.to_array out)
  end

let desc ?exec doc context =
  let exec = ensure_exec exec in
  join exec doc ~desc:true (prune_desc_st exec.Exec.stats doc context)

let anc ?exec doc context =
  let exec = ensure_exec exec in
  join exec doc ~desc:false (prune_anc_st exec.Exec.stats doc context)

(* The descendant join with the node test inside: the phases find each
   pruned context node's range [c+1 .. stop-1] and book the counters
   exactly as [join] does; one pass counts the ranks that pass the test,
   the result is allocated once at that length and a second pass fills
   it.  A context node that survives pruning lies in no range, and one
   pruned away lies in a range, so or-self adds just the survivors that
   pass, in the fill pass. *)
let desc_test ?exec ~or_self doc test context =
  check_test test;
  let exec = ensure_exec exec in
  let mode = exec.Exec.mode and stats = exec.Exec.stats in
  let ctx = Nodeseq.unsafe_array (prune_desc_st stats doc context) in
  let m = Array.length ctx in
  if m = 0 then Nodeseq.empty
  else begin
    let posts = Doc.post_array doc and n = Doc.n_nodes doc in
    let stops = Array.make m 0 in
    let stop = ref 0 in
    let book phase ~lo ~hi ~boundary =
      stop := desc_phase_stop ~mode doc stats phase ~lo ~hi ~boundary
    in
    for k = 0 to m - 1 do
      Exec.checkpoint exec;
      let c = ctx.(k) in
      stop := c + 1;
      desc_phases ~mode doc ~lo:(c + 1)
        ~hi:(if k + 1 < m then ctx.(k + 1) - 1 else n - 1)
        ~boundary:posts.(c) book;
      stops.(k) <- !stop
    done;
    let kinds = Doc.kind_array doc and tags = Doc.tag_array doc in
    let total = ref 0 in
    for k = 0 to m - 1 do
      let c = ctx.(k) in
      if or_self && passes kinds tags test c then incr total;
      total := !total + count_passing kinds tags test ~lo:(c + 1) ~hi:(stops.(k) - 1)
    done;
    let out = Array.make !total 0 in
    let j = ref 0 in
    for k = 0 to m - 1 do
      let c = ctx.(k) in
      if or_self && passes kinds tags test c then begin
        out.(!j) <- c;
        incr j
      end;
      j := fill_passing kinds tags test out !j ~lo:(c + 1) ~hi:(stops.(k) - 1)
    done;
    Nodeseq.of_sorted_array out
  end

(* ------------------------------------------------------------------ *)
(* following / preceding: degenerate single region queries (§3.1)       *)
(* ------------------------------------------------------------------ *)

(* The first rank of following(c)'s result [from .. n-1], with the
   counters of the skipping variant booked: c's subtree opens the tail
   after c, and every rank past it follows c. *)
let following_from ~mode doc stats c =
  let n = Doc.n_nodes doc in
  let posts = Doc.post_array doc in
  (* everything past the subtree follows the context node: one
     comparison-free copy, counters batched *)
  let copy_from start =
    if n - 1 >= start then
      count_copy stats ~lo:start ~hi:(n - 1) ~appended:(nonattr doc ~lo:start ~hi:(n - 1));
    start
  in
  match mode with
  | No_skipping ->
    (* Algorithm 2 compares every rank after c; its subtree fails *)
    let from = ref (c + 1) in
    for i = c + 1 to n - 1 do
      if posts.(i) < posts.(c) then from := i + 1
    done;
    stats.Stats.scanned <- stats.Stats.scanned + (n - c - 1);
    stats.Stats.appended <- stats.Stats.appended + nonattr doc ~lo:!from ~hi:(n - 1);
    !from
  | Skipping | Estimation ->
    (* hop over the guaranteed descendants, then walk off the rest of the
       subtree by comparison *)
    let i = ref (c + 1 + max 0 (posts.(c) - c)) in
    stats.Stats.skipped <- stats.Stats.skipped + (!i - (c + 1));
    while !i < n && posts.(!i) < posts.(c) do
      stats.Stats.scanned <- stats.Stats.scanned + 1;
      incr i
    done;
    copy_from !i
  | Exact_size ->
    stats.Stats.skipped <- stats.Stats.skipped + Doc.size doc c;
    copy_from (c + Doc.size doc c + 1)

let following ?exec doc context =
  let exec = ensure_exec exec in
  match Nodeseq.first (prune_following_st exec.Exec.stats doc context) with
  | None -> Nodeseq.empty
  | Some c ->
    Exec.checkpoint exec;
    let from = following_from ~mode:exec.Exec.mode doc exec.Exec.stats c in
    let result = Int_col.create ~capacity:64 () in
    ignore (Doc.append_nonattr_range doc result ~lo:from ~hi:(Doc.n_nodes doc - 1));
    Nodeseq.of_sorted_array (Int_col.to_array result)

(* following(c) is a single range: counted, then filled, as in
   [desc_test]. *)
let following_test ?exec doc test context =
  check_test test;
  let exec = ensure_exec exec in
  match Nodeseq.first (prune_following_st exec.Exec.stats doc context) with
  | None -> Nodeseq.empty
  | Some c ->
    Exec.checkpoint exec;
    let lo = following_from ~mode:exec.Exec.mode doc exec.Exec.stats c in
    let hi = Doc.n_nodes doc - 1 in
    let kinds = Doc.kind_array doc and tags = Doc.tag_array doc in
    let out = Array.make (count_passing kinds tags test ~lo ~hi) 0 in
    ignore (fill_passing kinds tags test out 0 ~lo ~hi);
    Nodeseq.of_sorted_array out

(* Every node before c is either an ancestor (post > post c) or in the
   preceding region: a single bounded scan, no skipping opportunity
   beyond the ancestors themselves.  The counters book the whole region;
   [test], when given, keeps only the nodes that pass it. *)
let preceding_scan exec doc test context =
  let stats = exec.Exec.stats in
  match Nodeseq.first (prune_preceding_st stats doc context) with
  | None -> Nodeseq.empty
  | Some c ->
    Exec.checkpoint exec;
    let posts = Doc.post_array doc in
    let kinds = Doc.kind_array doc and tags = Doc.tag_array doc in
    let result = Int_col.create ~capacity:64 () in
    for i = 0 to c - 1 do
      stats.Stats.scanned <- stats.Stats.scanned + 1;
      if posts.(i) < posts.(c) && kinds.(i) <> Doc.Attribute then begin
        stats.Stats.appended <- stats.Stats.appended + 1;
        match test with
        | Some t when not (passes kinds tags t i) -> ()
        | Some _ | None -> Int_col.append_unit result i
      end
    done;
    Nodeseq.of_sorted_array (Int_col.to_array result)

let preceding ?exec doc context = preceding_scan (ensure_exec exec) doc None context

let preceding_test ?exec doc test context =
  check_test test;
  preceding_scan (ensure_exec exec) doc (Some test) context

(* ------------------------------------------------------------------ *)
(* views: staircase join over a document subset                         *)
(* ------------------------------------------------------------------ *)

module View = struct
  type t = {
    seq : Nodeseq.t;
    pres : int array;  (* the backing array of [seq] *)
    posts : int array;
    attr_prefix : int array;
        (* [attr_prefix.(i)] = number of attribute entries among
           [pres.(0 .. i-1)] (length |view|+1): the per-view analogue of
           [Doc.attr_prefix_array], for blit-able view copy phases *)
  }

  let make doc seq posts =
    let pres = Nodeseq.unsafe_array seq in
    let kinds = Doc.kind_array doc in
    let vn = Array.length pres in
    let attr_prefix = Array.make (vn + 1) 0 in
    for i = 0 to vn - 1 do
      attr_prefix.(i + 1) <-
        (attr_prefix.(i) + if kinds.(pres.(i)) = Doc.Attribute then 1 else 0)
    done;
    { seq; pres; posts; attr_prefix }

  let of_nodeseq doc seq =
    let doc_posts = Doc.post_array doc in
    let posts = Array.map (fun pre -> doc_posts.(pre)) (Nodeseq.unsafe_array seq) in
    make doc seq posts

  let of_doc doc =
    let n = Doc.n_nodes doc in
    make doc (Nodeseq.of_range ~lo:0 ~hi:(n - 1)) (Array.copy (Doc.post_array doc))

  let of_tag doc name = of_nodeseq doc (Nodeseq.of_sorted_array (Doc.tag_positions doc name))

  let length v = Array.length v.pres

  let to_nodeseq v = v.seq
end

(* Blit copy kernel over a view window: append the pre ranks of the
   non-attribute view entries with indices in [lo, hi) to [out], as
   slice blits of the view's pre column [pres] between the attribute
   runs the shared run finder locates on the view's prefix sums.
   Returns the number of entries appended. *)
let copy_view_run (v : View.t) ?pres out lo hi =
  if hi <= lo then 0
  else begin
    let ap = v.View.attr_prefix in
    let nonattr = hi - lo - (ap.(hi) - ap.(lo)) in
    Int_col.reserve out nonattr;
    Doc.append_nonattr_runs ap ~off:0 ?pres out ~lo ~hi;
    nonattr
  end

(* First view index whose pre rank is >= key. *)
let view_lower_bound (v : View.t) key =
  let pres = v.View.pres in
  let lo = ref 0 and hi = ref (Array.length pres) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if pres.(mid) >= key then hi := mid else lo := mid + 1
  done;
  !lo

let desc_view ?exec doc view context =
  let exec = ensure_exec exec in
  let mode = exec.Exec.mode and stats = exec.Exec.stats in
  let context = prune_desc_st stats doc context in
  let m = Nodeseq.length context in
  if m = 0 || View.length view = 0 then Nodeseq.empty
  else begin
    let doc_posts = Doc.post_array doc in
    let sizes = Doc.size_array doc in
    let vposts = view.View.posts in
    let pres = Some view.View.pres in
    let vn = View.length view in
    let ctx = Nodeseq.unsafe_array context in
    let result = Int_col.create ~capacity:64 () in
    (* view indices stand in for ranks: the descendant scan kernel finds
       the matching prefix of the window, the run finder copies it *)
    let scan_phase ~skip vi hi boundary =
      let stop =
        desc_scan ~skip stats vposts ~off:0 ~lo:vi ~hi:(hi - 1) ~limit:(hi - 1) ~boundary
      in
      stats.Stats.appended <- stats.Stats.appended + copy_view_run view ?pres result vi stop
    in
    let copy_phase lo hi =
      count_copy stats ~lo ~hi:(hi - 1) ~appended:(copy_view_run view ?pres result lo hi)
    in
    for k = 0 to m - 1 do
      let c = ctx.(k) in
      let boundary = doc_posts.(c) in
      let lo = view_lower_bound view (c + 1) in
      let hi = if k + 1 < m then view_lower_bound view ctx.(k + 1) else vn in
      match mode with
      | No_skipping -> scan_phase ~skip:false lo hi boundary
      | Skipping -> scan_phase ~skip:true lo hi boundary
      | Estimation ->
        (* view nodes with pre <= post(c) are guaranteed descendants:
           blit the window, batch the counters *)
        let copy_hi = max lo (min hi (view_lower_bound view (boundary + 1))) in
        copy_phase lo copy_hi;
        scan_phase ~skip:true copy_hi hi boundary
      | Exact_size ->
        let copy_hi = max lo (min hi (view_lower_bound view (c + sizes.(c) + 1))) in
        copy_phase lo copy_hi;
        stats.Stats.skipped <- stats.Stats.skipped + (hi - copy_hi)
    done;
    Nodeseq.of_sorted_array (Int_col.to_array result)
  end

let anc_view ?exec doc view context =
  let exec = ensure_exec exec in
  let mode = exec.Exec.mode and stats = exec.Exec.stats in
  let context = prune_anc_st stats doc context in
  let m = Nodeseq.length context in
  if m = 0 || View.length view = 0 then Nodeseq.empty
  else begin
    let doc_posts = Doc.post_array doc in
    let sizes = Doc.size_array doc in
    let pres = view.View.pres and vposts = view.View.posts in
    let ctx = Nodeseq.unsafe_array context in
    let result = Int_col.create ~capacity:64 () in
    let scan_window lo hi boundary =
      let vi = ref lo in
      while !vi < hi do
        stats.Stats.scanned <- stats.Stats.scanned + 1;
        if vposts.(!vi) > boundary then begin
          Int_col.append_unit result pres.(!vi);
          stats.Stats.appended <- stats.Stats.appended + 1;
          incr vi
        end
        else begin
          let pre = pres.(!vi) in
          let subtree_end =
            match mode with
            | No_skipping -> pre
            | Skipping | Estimation -> pre + max 0 (vposts.(!vi) - pre)
            | Exact_size -> pre + sizes.(pre)
          in
          let next = max (!vi + 1) (view_lower_bound view (subtree_end + 1)) in
          let next = min next hi in
          stats.Stats.skipped <- stats.Stats.skipped + (next - !vi - 1);
          vi := next
        end
      done
    in
    for k = 0 to m - 1 do
      let c = ctx.(k) in
      let lo = if k = 0 then 0 else view_lower_bound view (ctx.(k - 1) + 1) in
      let hi = view_lower_bound view c in
      scan_window lo hi doc_posts.(c)
    done;
    Nodeseq.of_sorted_array (Int_col.to_array result)
  end

(* following/preceding over a view: the context prunes to one node c as
   in {!following}/{!preceding}, and the region query reads only the view
   entries on the right side of c. *)
let following_view ?exec doc view context =
  let exec = ensure_exec exec in
  let mode = exec.Exec.mode and stats = exec.Exec.stats in
  match Nodeseq.first (prune_following_st stats doc context) with
  | None -> Nodeseq.empty
  | Some c ->
    Exec.checkpoint exec;
    let vn = View.length view in
    let vposts = view.View.posts in
    let post_c = (Doc.post_array doc).(c) in
    let lo = view_lower_bound view (c + 1) in
    (* c's descendants open the window: hop over the guaranteed ones (pre
       <= post c by Equation 1, or the exact subtree), then compare *)
    let from =
      match mode with
      | No_skipping -> lo
      | Skipping | Estimation -> max lo (view_lower_bound view (post_c + 1))
      | Exact_size -> max lo (view_lower_bound view (c + Doc.size doc c + 1))
    in
    stats.Stats.skipped <- stats.Stats.skipped + (from - lo);
    let i = ref from in
    while !i < vn && vposts.(!i) < post_c do
      stats.Stats.scanned <- stats.Stats.scanned + 1;
      incr i
    done;
    let result = Int_col.create ~capacity:64 () in
    let appended = copy_view_run view ~pres:view.View.pres result !i vn in
    (match mode with
    | No_skipping ->
      (* Algorithm 2 compares the rest of the window too *)
      stats.Stats.scanned <- stats.Stats.scanned + (vn - !i);
      stats.Stats.appended <- stats.Stats.appended + appended
    | Skipping | Estimation | Exact_size -> count_copy stats ~lo:!i ~hi:(vn - 1) ~appended);
    Nodeseq.of_sorted_array (Int_col.to_array result)

let preceding_view ?exec doc view context =
  let exec = ensure_exec exec in
  let stats = exec.Exec.stats in
  match Nodeseq.first (prune_preceding_st stats doc context) with
  | None -> Nodeseq.empty
  | Some c ->
    Exec.checkpoint exec;
    let parents = Doc.parent_array doc in
    let pres = view.View.pres in
    let hi = view_lower_bound view c in
    let result = Int_col.create ~capacity:64 () in
    let copy lo hi =
      if hi > lo then
        count_copy stats ~lo ~hi:(hi - 1) ~appended:(copy_view_run view ~pres result lo hi)
    in
    (* the entries before c are its preceding nodes and at most [height]
       ancestors: copy the runs between the ancestors the view holds *)
    let rec ancestors a acc = if a < 0 then acc else ancestors parents.(a) (a :: acc) in
    let from =
      List.fold_left
        (fun from a ->
          stats.Stats.scanned <- stats.Stats.scanned + 1;
          let k = view_lower_bound view a in
          if k < hi && pres.(k) = a then begin
            copy from k;
            k + 1
          end
          else from)
        0
        (ancestors parents.(c) [])
    in
    copy from hi;
    Nodeseq.of_sorted_array (Int_col.to_array result)

(* ------------------------------------------------------------------ *)
(* per-node reference implementation                                    *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  (* The pre-blit joins, kept verbatim: one append, one kind test and one
     counter bump per node.  [desc]/[anc] above must produce bit-identical
     node sequences *and* counter totals — the property tests and the
     copykernel bench experiment hold the two implementations against
     each other. *)

  let desc ?exec doc context =
    let exec = ensure_exec exec in
    let mode = exec.Exec.mode and stats = exec.Exec.stats in
    let context = prune_desc_st stats doc context in
    let m = Nodeseq.length context in
    if m = 0 then Nodeseq.empty
    else begin
      let n = Doc.n_nodes doc in
      let posts = Doc.post_array doc in
      let sizes = Doc.size_array doc in
      let kinds = Doc.kind_array doc in
      let ctx = Nodeseq.unsafe_array context in
      let result = Int_col.create ~capacity:256 () in
      let append i =
        if kinds.(i) <> Doc.Attribute then begin
          Int_col.append_unit result i;
          stats.Stats.appended <- stats.Stats.appended + 1
        end
      in
      let scan_phase ~skip i scan_to boundary =
        let i = ref i in
        let break = ref false in
        while (not !break) && !i <= scan_to do
          stats.Stats.scanned <- stats.Stats.scanned + 1;
          if posts.(!i) < boundary then begin
            append !i;
            incr i
          end
          else if skip then begin
            stats.Stats.skipped <- stats.Stats.skipped + (scan_to - !i);
            break := true
          end
          else incr i
        done
      in
      let copy_phase from upto =
        for i = from to upto do
          stats.Stats.copied <- stats.Stats.copied + 1;
          append i
        done
      in
      for k = 0 to m - 1 do
        let c = ctx.(k) in
        let boundary = posts.(c) in
        let scan_to = if k + 1 < m then ctx.(k + 1) - 1 else n - 1 in
        match mode with
        | No_skipping -> scan_phase ~skip:false (c + 1) scan_to boundary
        | Skipping -> scan_phase ~skip:true (c + 1) scan_to boundary
        | Estimation ->
          let copy_to = min scan_to boundary in
          copy_phase (c + 1) copy_to;
          scan_phase ~skip:true (max (c + 1) (copy_to + 1)) scan_to boundary
        | Exact_size ->
          let copy_to = min scan_to (c + sizes.(c)) in
          copy_phase (c + 1) copy_to;
          stats.Stats.skipped <- stats.Stats.skipped + (scan_to - copy_to)
      done;
      Nodeseq.of_sorted_array (Int_col.to_array result)
    end

  let anc ?exec doc context =
    let exec = ensure_exec exec in
    let mode = exec.Exec.mode and stats = exec.Exec.stats in
    let context = prune_anc_st stats doc context in
    let m = Nodeseq.length context in
    if m = 0 then Nodeseq.empty
    else begin
      let posts = Doc.post_array doc in
      let sizes = Doc.size_array doc in
      let ctx = Nodeseq.unsafe_array context in
      let result = Int_col.create ~capacity:64 () in
      let scan_partition scan_from scan_to boundary =
        let i = ref scan_from in
        while !i <= scan_to do
          stats.Stats.scanned <- stats.Stats.scanned + 1;
          if posts.(!i) > boundary then begin
            Int_col.append_unit result !i;
            stats.Stats.appended <- stats.Stats.appended + 1;
            incr i
          end
          else begin
            let hop =
              match mode with
              | No_skipping -> 0
              | Skipping | Estimation -> max 0 (posts.(!i) - !i)
              | Exact_size -> sizes.(!i)
            in
            let hop = min hop (scan_to - !i) in
            stats.Stats.skipped <- stats.Stats.skipped + hop;
            i := !i + hop + 1
          end
        done
      in
      for k = 0 to m - 1 do
        let c = ctx.(k) in
        let scan_from = if k = 0 then 0 else ctx.(k - 1) + 1 in
        scan_partition scan_from (c - 1) posts.(c)
      done;
      Nodeseq.of_sorted_array (Int_col.to_array result)
    end

  let following ?exec doc context =
    let exec = ensure_exec exec in
    let mode = exec.Exec.mode and stats = exec.Exec.stats in
    let context = prune_following_st stats doc context in
    match Nodeseq.first context with
    | None -> Nodeseq.empty
    | Some c ->
      let n = Doc.n_nodes doc in
      let posts = Doc.post_array doc in
      let kinds = Doc.kind_array doc in
      let result = Int_col.create ~capacity:64 () in
      let append i =
        if kinds.(i) <> Doc.Attribute then begin
          Int_col.append_unit result i;
          stats.Stats.appended <- stats.Stats.appended + 1
        end
      in
      let start =
        match mode with
        | No_skipping -> c + 1
        | Skipping | Estimation ->
          let i = ref (c + 1 + max 0 (posts.(c) - c)) in
          stats.Stats.skipped <- stats.Stats.skipped + (!i - (c + 1));
          while !i < n && posts.(!i) < posts.(c) do
            stats.Stats.scanned <- stats.Stats.scanned + 1;
            incr i
          done;
          !i
        | Exact_size ->
          stats.Stats.skipped <- stats.Stats.skipped + Doc.size doc c;
          c + Doc.size doc c + 1
      in
      (match mode with
      | No_skipping ->
        for i = start to n - 1 do
          stats.Stats.scanned <- stats.Stats.scanned + 1;
          if posts.(i) > posts.(c) then append i
        done
      | Skipping | Estimation | Exact_size ->
        (* the per-node rendition of the tail blit: one copied bump and
           one kind test per node *)
        for i = start to n - 1 do
          stats.Stats.copied <- stats.Stats.copied + 1;
          append i
        done);
      Nodeseq.of_sorted_array (Int_col.to_array result)

  let preceding ?exec doc context =
    let exec = ensure_exec exec in
    let stats = exec.Exec.stats in
    let context = prune_preceding_st stats doc context in
    match Nodeseq.first context with
    | None -> Nodeseq.empty
    | Some c ->
      let posts = Doc.post_array doc in
      let kinds = Doc.kind_array doc in
      let result = Int_col.create ~capacity:64 () in
      for i = 0 to c - 1 do
        stats.Stats.scanned <- stats.Stats.scanned + 1;
        if posts.(i) < posts.(c) && kinds.(i) <> Doc.Attribute then begin
          Int_col.append_unit result i;
          stats.Stats.appended <- stats.Stats.appended + 1
        end
      done;
      Nodeseq.of_sorted_array (Int_col.to_array result)
end
