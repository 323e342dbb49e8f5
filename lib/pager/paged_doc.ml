module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Int_col = Scj_bat.Int_col
module Stats = Scj_stats.Stats
module Exec = Scj_trace.Exec
module Sj = Scj_core.Staircase

type t = {
  pool : Buffer_pool.t;
  off : int;  (* integer offset of this document's extents in the pool
                 (base_page * page_ints); 0 for a single-document pool *)
  n : int;
  height : int;
  prefix_base : int;  (* first integer index of the attr-prefix extent *)
  size_base : int;  (* first integer index of the size extent *)
  tally : Buffer_pool.Tally.t option;
}

let ensure_exec = function None -> Exec.make () | Some e -> e

(* One query's working set: the index plans hold a post page pinned
   while the attribute test reads a prefix page, and the size column may
   be live as well — three simultaneously needed columns per stripe. *)
let min_frames_per_stripe = 3

let pages_for ~page_ints ints = (ints + page_ints - 1) / page_ints

(* Each column occupies a whole number of pages: post is n ints, the
   attr-prefix column n + 1, size n; the tail of a column's last page is
   zero padding.  The same extents are what [Scj_store] lays out in its
   page file, so a file-backed pool plugs in with identical geometry. *)
let extents ~page_ints ~n =
  let prefix_base = pages_for ~page_ints n * page_ints in
  let size_base = prefix_base + (pages_for ~page_ints (n + 1) * page_ints) in
  (prefix_base, size_base)

(* A tenth of the three extents' pages, never fewer than 24 frames. *)
let default_capacity ~page_ints n =
  let pages = pages_for ~page_ints n + pages_for ~page_ints (n + 1) + pages_for ~page_ints n in
  max 24 (pages / 10)

let guard_capacity ~who ~stripes ~capacity =
  if capacity < min_frames_per_stripe * stripes then
    invalid_arg
      (Printf.sprintf
         "%s: capacity %d cannot hold one query's working set (post, attr-prefix and size pages \
          may be live at once: need >= %d frames for %d stripe(s))"
         who capacity (min_frames_per_stripe * stripes) stripes)

(* column layout on the simulated disk: [post | attr_prefix | size],
   each extent page-aligned.  The attribute column is stored as its
   prefix sums (n + 1 ints, entry j = number of attributes with pre < j):
   a range's attribute count costs two reads, attribute runs are found by
   binary search, and the estimation copy phase can emit whole runs while
   faulting only prefix pages — never the post column. *)
(* The three extents of [doc] as a simulated-disk store — the in-memory
   page image behind [load], exposed separately so a multi-document
   catalog can concatenate several images (and file-backed stores)
   behind one shared pool. *)
let image_store ?(page_ints = 1024) ?fault_latency doc =
  let n = Doc.n_nodes doc in
  let prefix_base, size_base = extents ~page_ints ~n in
  let data = Array.make (size_base + n) 0 in
  let posts = Doc.post_array doc in
  let prefix = Doc.attr_prefix_array doc in
  let sizes = Doc.size_array doc in
  Array.blit posts 0 data 0 n;
  Array.blit prefix 0 data prefix_base (n + 1);
  Array.blit sizes 0 data size_base n;
  Buffer_pool.Store.create ?fault_latency ~page_ints data

let load ?(page_ints = 1024) ?(stripes = 1) ?fault_latency ~capacity doc =
  let stripes = max 1 stripes in
  guard_capacity ~who:"Paged_doc.load" ~stripes ~capacity;
  let store = image_store ~page_ints ?fault_latency doc in
  let n = Doc.n_nodes doc in
  let prefix_base, size_base = extents ~page_ints ~n in
  {
    pool = Buffer_pool.create ~stripes ~capacity store;
    off = 0;
    n;
    height = Doc.height doc;
    prefix_base;
    size_base;
    tally = None;
  }

(* Attach to a pool whose store already holds the three page-aligned
   extents — how a durable {!Scj_store} store exposes its page file as a
   paged document without re-encoding, and, with [base_page], how every
   document of a multi-document catalog views its own slice of one
   shared pool. *)
let attach ?(base_page = 0) ~n ~height pool =
  guard_capacity ~who:"Paged_doc.attach"
    ~stripes:(Buffer_pool.n_stripes pool)
    ~capacity:(Buffer_pool.capacity pool);
  if base_page < 0 then invalid_arg "Paged_doc.attach: base_page must be non-negative";
  let page_ints = Buffer_pool.page_ints pool in
  let off = base_page * page_ints in
  let prefix_base, size_base = extents ~page_ints ~n in
  { pool; off; n; height; prefix_base = off + prefix_base; size_base = off + size_base; tally = None }

let pool t = t.pool

let n_nodes t = t.n

(* [with_tally t tally] is a view of the same shared pool that attributes
   this reader's pool traffic to [tally] — how the query service gives
   every concurrent query its own hit/miss accounting over one pool. *)
let with_tally t tally = { t with tally = Some tally }

let check t i fn =
  if i < 0 || i >= t.n then invalid_arg (Printf.sprintf "Paged_doc.%s: rank %d out of bounds" fn i)

let read t i = Buffer_pool.read ?tally:t.tally t.pool i

let post t i =
  check t i "post";
  read t (t.off + i)

(* prefix-sum column entry j, 0 <= j <= n *)
let prefix t j = read t (t.prefix_base + j)

let is_attribute t i =
  check t i "is_attribute";
  prefix t (i + 1) - prefix t i = 1

let size t i =
  check t i "size";
  read t (t.size_base + i)

(* Visit ranks [from, upto] of the column extent starting at integer
   [extent]: pin each page once and run [f ~base data ~lo ~hi] over the
   page's slice of the range, where [data.(i - base)] is rank i's entry.
   [f] returns the next rank to visit; returning a rank past [hi] hops
   (pages wholly hopped over are never pinned), returning max_int stops
   the visit.  One latch acquisition and one hit/miss per page instead
   of one per integer. *)
let visit t ~extent ~from ~upto f =
  let page_ints = Buffer_pool.page_ints t.pool in
  (* extents are page-aligned, so rank-space page boundaries coincide
     with pool-page boundaries shifted by the extent's first page *)
  let first_page = extent / page_ints in
  let i = ref from in
  while !i <= upto do
    let base = !i / page_ints * page_ints in
    let hi = min upto (base + page_ints - 1) in
    let next =
      Buffer_pool.with_page ?tally:t.tally t.pool
        (first_page + (!i / page_ints))
        (fun data -> f ~base data ~lo:!i ~hi)
    in
    i := max next (!i + 1)
  done

(* Append the non-attribute ranks in [lo, hi] and return how many.  Two
   point reads of the prefix column settle the count and the common
   attribute-free range, which then costs no further page; otherwise
   each prefix page is pinned once and the shared run finder runs on its
   slice.  A rank's attribute flag spans prefix entries i and i + 1, so
   the rank just before a page boundary is settled on the next page
   against the entry carried over from the previous one. *)
let append_nonattr t out ~lo ~hi =
  if hi < lo then 0
  else begin
    let first = prefix t lo and last = prefix t (hi + 1) in
    if last = first then Int_col.append_range out ~lo ~hi
    else begin
      let carry = ref first in
      visit t ~extent:t.prefix_base ~from:lo ~upto:(hi + 1) (fun ~base data ~lo:e0 ~hi:e1 ->
          if e0 > lo && data.(0) = !carry then Int_col.append_unit out (e0 - 1);
          Doc.append_nonattr_runs data ~off:base out ~lo:e0 ~hi:e1;
          carry := data.(e1 - base);
          e1 + 1)
    end;
    hi - lo + 1 - (last - first)
  end

let prune ?stats t context =
  let out = Int_col.create ~capacity:(max 1 (Nodeseq.length context)) () in
  let prev = ref (-1) in
  Nodeseq.iter
    (fun c ->
      let p = post t c in
      if p > !prev then begin
        Int_col.append_unit out c;
        prev := p
      end
      else
        match stats with
        | Some s -> s.Stats.pruned <- s.Stats.pruned + 1
        | None -> ())
    context;
  Nodeseq.of_sorted_array (Int_col.to_array out)

(* Staircase join with estimation-based skipping (Algorithm 4) over the
   paged columns.  Per partition the comparison-free copy phase of
   [post c - pre c] nodes runs against the prefix column only, then the
   short scan phase (at most [height] comparisons) runs the shared
   descendant-scan kernel over the post pages until the boundary is
   crossed, and its matches are copied like the copy phase.  The kernels
   and counters are the in-memory join's, in [Estimation] mode;
   [Exec.checkpoint] runs between partitions, never with a page
   pinned. *)
let desc ?exec t context =
  let exec = ensure_exec exec in
  let stats = exec.Exec.stats in
  let context = prune ~stats t context in
  let result = Int_col.create ~capacity:64 () in
  let m = Nodeseq.length context in
  for k = 0 to m - 1 do
    Exec.checkpoint exec;
    let c = Nodeseq.get context k in
    let boundary = post t c in
    let scan_to = if k + 1 < m then Nodeseq.get context (k + 1) - 1 else t.n - 1 in
    let copy_to = min scan_to boundary in
    if copy_to > c then
      Sj.count_copy stats ~lo:(c + 1) ~hi:copy_to
        ~appended:(append_nonattr t result ~lo:(c + 1) ~hi:copy_to);
    let from = max (c + 1) (copy_to + 1) in
    let stop = ref from in
    visit t ~extent:t.off ~from ~upto:scan_to (fun ~base data ~lo ~hi ->
        stop := Sj.desc_scan ~skip:true stats data ~off:base ~lo ~hi ~limit:scan_to ~boundary;
        if !stop <= hi then max_int else hi + 1);
    stats.Stats.appended <- stats.Stats.appended + append_nonattr t result ~lo:from ~hi:(!stop - 1)
  done;
  Nodeseq.of_sorted_array (Int_col.to_array result)

(* the tree-unaware plan: per context node, a binary search on the packed
   (pre, post) index — random page probes — followed by the delimited
   range scan; duplicates removed afterwards *)
let index_desc ?exec t context =
  let exec = ensure_exec exec in
  let stats = exec.Exec.stats in
  let hits = Int_col.create ~capacity:64 () in
  Nodeseq.iter
    (fun c ->
      Exec.checkpoint exec;
      stats.Stats.index_probes <- stats.Stats.index_probes + 1;
      let post_c = post t c in
      (* binary search emulating the B-tree descent over paged leaves *)
      let lo = ref 0 and hi = ref (t.n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        (* probe the index page holding mid *)
        let (_ : int) = post t mid in
        stats.Stats.index_nodes <- stats.Stats.index_nodes + 1;
        if mid <= c then lo := mid + 1 else hi := mid
      done;
      let stop = min (t.n - 1) (post_c + t.height) in
      visit t ~extent:t.off ~from:(c + 1) ~upto:stop (fun ~base data ~lo ~hi ->
          for i = lo to hi do
            stats.Stats.scanned <- stats.Stats.scanned + 1;
            if data.(i - base) < post_c && not (is_attribute t i) then begin
              Int_col.append_unit hits i;
              stats.Stats.appended <- stats.Stats.appended + 1
            end
          done;
          hi + 1))
    context;
  let sorted = Int_col.to_array hits in
  stats.Stats.sorted <- stats.Stats.sorted + Array.length sorted;
  Array.sort Int.compare sorted;
  Nodeseq.of_unsorted (Array.to_list sorted)

let prune_anc ?stats t context =
  let m = Nodeseq.length context in
  let keep = Array.make m false in
  let min_post = ref max_int in
  for k = m - 1 downto 0 do
    let p = post t (Nodeseq.get context k) in
    if p < !min_post then begin
      keep.(k) <- true;
      min_post := p
    end
    else
      match stats with
      | Some s -> s.Stats.pruned <- s.Stats.pruned + 1
      | None -> ()
  done;
  let out = Int_col.create ~capacity:(max m 1) () in
  for k = 0 to m - 1 do
    if keep.(k) then Int_col.append_unit out (Nodeseq.get context k)
  done;
  Nodeseq.of_sorted_array (Int_col.to_array out)

let anc ?exec t context =
  let exec = ensure_exec exec in
  let stats = exec.Exec.stats in
  let context = prune_anc ~stats t context in
  let result = Int_col.create ~capacity:64 () in
  let m = Nodeseq.length context in
  for k = 0 to m - 1 do
    Exec.checkpoint exec;
    let c = Nodeseq.get context k in
    let boundary = post t c in
    let scan_from = if k = 0 then 0 else Nodeseq.get context (k - 1) + 1 in
    (* hops by the Equation-(1) lower bound never read the size column *)
    visit t ~extent:t.off ~from:scan_from ~upto:(c - 1) (fun ~base data ~lo ~hi ->
        Sj.anc_scan ~mode:Sj.Estimation stats ~posts:data ~sizes:[||] ~off:base ~lo ~hi
          ~limit:(c - 1) ~boundary result)
  done;
  Nodeseq.of_sorted_array (Int_col.to_array result)

let index_anc ?exec t context =
  let exec = ensure_exec exec in
  let stats = exec.Exec.stats in
  let hits = Int_col.create ~capacity:64 () in
  Nodeseq.iter
    (fun c ->
      Exec.checkpoint exec;
      stats.Stats.index_probes <- stats.Stats.index_probes + 1;
      let post_c = post t c in
      (* the index delimits only on pre: the whole prefix is scanned *)
      visit t ~extent:t.off ~from:0 ~upto:(c - 1) (fun ~base data ~lo ~hi ->
          for i = lo to hi do
            stats.Stats.scanned <- stats.Stats.scanned + 1;
            if data.(i - base) > post_c then begin
              Int_col.append_unit hits i;
              stats.Stats.appended <- stats.Stats.appended + 1
            end
          done;
          hi + 1))
    context;
  let sorted = Int_col.to_array hits in
  stats.Stats.sorted <- stats.Stats.sorted + Array.length sorted;
  Array.sort Int.compare sorted;
  Nodeseq.of_unsorted (Array.to_list sorted)
