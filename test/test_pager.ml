(* Tests for the disk-based substrate (lib/pager): buffer pool semantics
   and the paged staircase join. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Sj = Scj_core.Staircase
module Buffer_pool = Scj_pager.Buffer_pool
module Paged_doc = Scj_pager.Paged_doc

let nodeseq = Alcotest.testable Nodeseq.pp Nodeseq.equal

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_geometry () =
  let store = Buffer_pool.Store.create ~page_ints:4 (Array.init 10 Fun.id) in
  check_int "page_ints" 4 (Buffer_pool.Store.page_ints store);
  check_int "pages (partial last)" 3 (Buffer_pool.Store.n_pages store);
  check_int "length" 10 (Buffer_pool.Store.length store);
  Alcotest.check_raises "bad page size"
    (Invalid_argument "Buffer_pool.Store.create: page_ints must be positive") (fun () ->
      ignore (Buffer_pool.Store.create ~page_ints:0 [||]))

(* ------------------------------------------------------------------ *)
(* pool                                                                *)
(* ------------------------------------------------------------------ *)

let make_pool ?(n = 64) ?(page_ints = 8) ~capacity () =
  let store = Buffer_pool.Store.create ~page_ints (Array.init n (fun i -> i * 10)) in
  Buffer_pool.create ~capacity store

let test_pool_reads_all_values () =
  let pool = make_pool ~capacity:2 () in
  for i = 0 to 63 do
    check_int (Printf.sprintf "value %d" i) (i * 10) (Buffer_pool.read pool i)
  done

let test_pool_hit_fault_accounting () =
  let pool = make_pool ~capacity:4 () in
  (* first touch of a page faults, further touches hit *)
  ignore (Buffer_pool.read pool 0);
  ignore (Buffer_pool.read pool 1);
  ignore (Buffer_pool.read pool 7);
  ignore (Buffer_pool.read pool 8);
  let hits, faults, evictions = Buffer_pool.stats pool in
  check_int "hits" 2 hits;
  check_int "faults" 2 faults;
  check_int "no evictions yet" 0 evictions

let test_pool_capacity_respected () =
  let pool = make_pool ~capacity:3 () in
  for i = 0 to 63 do
    ignore (Buffer_pool.read pool i)
  done;
  check_bool "resident <= capacity" true (Buffer_pool.resident pool <= 3);
  let _, faults, evictions = Buffer_pool.stats pool in
  check_int "faulted every page once (sequential)" 8 faults;
  check_int "evicted the rest" 5 evictions

let test_pool_lru_order () =
  let pool = make_pool ~capacity:2 () in
  ignore (Buffer_pool.read pool 0) (* page 0 *);
  ignore (Buffer_pool.read pool 8) (* page 1 *);
  ignore (Buffer_pool.read pool 0) (* refresh page 0 *);
  ignore (Buffer_pool.read pool 16) (* page 2: evicts page 1 (LRU) *);
  check_bool "page 0 kept" true (Buffer_pool.is_resident pool 0);
  check_bool "page 1 evicted" false (Buffer_pool.is_resident pool 1);
  check_bool "page 2 resident" true (Buffer_pool.is_resident pool 2)

let test_pool_reset_flush () =
  let pool = make_pool ~capacity:2 () in
  ignore (Buffer_pool.read pool 0);
  Buffer_pool.reset_stats pool;
  let hits, faults, _ = Buffer_pool.stats pool in
  check_int "hits reset" 0 hits;
  check_int "faults reset" 0 faults;
  Buffer_pool.flush pool;
  check_int "flushed" 0 (Buffer_pool.resident pool);
  ignore (Buffer_pool.read pool 0);
  let _, faults, _ = Buffer_pool.stats pool in
  check_int "re-faulted after flush" 1 faults

let test_pool_bounds () =
  let pool = make_pool ~capacity:2 () in
  Alcotest.check_raises "negative" (Invalid_argument "Buffer_pool.read: index -1 out of bounds")
    (fun () -> ignore (Buffer_pool.read pool (-1)))

let prop_pool_transparent =
  QCheck.Test.make ~count:200 ~name:"pool reads = direct array reads (any capacity)"
    QCheck.(triple (int_range 1 6) (int_range 1 5) (list_of_size (Gen.int_range 1 60) (int_bound 59)))
    (fun (capacity, page_ints, accesses) ->
      let data = Array.init 60 (fun i -> (i * 7) mod 13) in
      let pool = Buffer_pool.create ~capacity (Buffer_pool.Store.create ~page_ints data) in
      List.for_all (fun i -> Buffer_pool.read pool i = data.(i)) accesses)

(* ------------------------------------------------------------------ *)
(* eviction policy vs a reference LRU simulation                        *)
(* ------------------------------------------------------------------ *)

(* Plain-list LRU model of one stripe: front of the list = most recently
   used.  The striped pool must agree exactly — same hit/fault/eviction
   totals and the same resident set — when driven single-threaded. *)
let lru_model_run ~stripes ~capacity ~n_pages accesses =
  let n_stripes = max 1 (min stripes capacity) in
  let cap i = (capacity / n_stripes) + if i < capacity mod n_stripes then 1 else 0 in
  let state = Array.init n_stripes (fun _ -> ref []) in
  let hits = ref 0 and faults = ref 0 and evictions = ref 0 in
  List.iter
    (fun page ->
      let s = page mod n_stripes in
      let lru = state.(s) in
      if List.mem page !lru then begin
        incr hits;
        lru := page :: List.filter (fun p -> p <> page) !lru
      end
      else begin
        incr faults;
        if List.length !lru >= cap s then begin
          lru := List.filteri (fun i _ -> i < cap s - 1) !lru;
          incr evictions
        end;
        lru := page :: !lru
      end)
    accesses;
  let resident = List.concat_map (fun lru -> !lru) (Array.to_list state) in
  (!hits, !faults, !evictions, List.sort_uniq compare resident, n_pages)

let check_lru_model ~stripes ~capacity accesses =
  let page_ints = 4 in
  let n_pages = 16 in
  let data = Array.init (page_ints * n_pages) Fun.id in
  let pool =
    Buffer_pool.create ~stripes ~capacity (Buffer_pool.Store.create ~page_ints data)
  in
  List.iter (fun page -> ignore (Buffer_pool.read pool (page * page_ints))) accesses;
  let hits, faults, evictions = Buffer_pool.stats pool in
  let m_hits, m_faults, m_evictions, m_resident, _ =
    lru_model_run ~stripes ~capacity ~n_pages accesses
  in
  check_int "model hits" m_hits hits;
  check_int "model faults" m_faults faults;
  check_int "model evictions" m_evictions evictions;
  check_int "model resident count" (List.length m_resident) (Buffer_pool.resident pool);
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "page %d residency" p)
        (List.mem p m_resident)
        (Buffer_pool.is_resident pool p))
    (List.init n_pages Fun.id)

let test_lru_model () =
  let st = Random.State.make [| 0xeded |] in
  List.iter
    (fun (stripes, capacity) ->
      let accesses = List.init 400 (fun _ -> Random.State.int st 16) in
      check_lru_model ~stripes ~capacity accesses)
    [ (1, 1); (1, 3); (1, 5); (2, 5); (4, 8); (8, 8); (3, 7) ]

(* ------------------------------------------------------------------ *)
(* 2Q eviction vs a reference model                                     *)
(* ------------------------------------------------------------------ *)

(* Plain-list model of one 2Q stripe, mirroring lib/pager/buffer_pool.ml:
   [am] is an LRU list (MRU first), [a1in] a FIFO of first-touch pages
   (newest admitted first, hits do not reorder), [ghost] the bounded
   A1out FIFO of page ids evicted from A1in.  Eviction happens before
   admission, skips pinned pages, and overflows (admits anyway) when
   every frame is pinned. *)
type twoq_model = {
  mutable am : int list;
  mutable a1in : int list;
  mutable ghost : int list;
  pins : (int, int) Hashtbl.t;
  cap : int;
  kin : int;
  kout : int;
  mutable m_hits : int;
  mutable m_faults : int;
  mutable m_evictions : int;
}

let twoq_model_create cap =
  {
    am = [];
    a1in = [];
    ghost = [];
    pins = Hashtbl.create 8;
    cap;
    kin = max 1 (cap / 4);
    kout = max 1 (cap / 2);
    m_hits = 0;
    m_faults = 0;
    m_evictions = 0;
  }

let model_pins m p = Option.value ~default:0 (Hashtbl.find_opt m.pins p)

(* last unpinned element of [l] = the oldest/least-recent evictable *)
let last_unpinned m l =
  List.fold_left (fun acc p -> if model_pins m p = 0 then Some p else acc) None l

let twoq_model_access m page =
  if List.mem page m.am then begin
    m.m_hits <- m.m_hits + 1;
    m.am <- page :: List.filter (fun p -> p <> page) m.am
  end
  else if List.mem page m.a1in then m.m_hits <- m.m_hits + 1
  else begin
    m.m_faults <- m.m_faults + 1;
    let continue_ = ref true in
    while !continue_ && List.length m.am + List.length m.a1in >= m.cap do
      let from_a1in = last_unpinned m m.a1in in
      let from_am = last_unpinned m m.am in
      let victim =
        if List.length m.a1in > m.kin then
          match from_a1in with Some _ -> `A1in from_a1in | None -> `Am from_am
        else match from_am with Some _ -> `Am from_am | None -> `A1in from_a1in
      in
      match victim with
      | `A1in None | `Am None -> continue_ := false
      | `A1in (Some p) ->
        m.a1in <- List.filter (fun q -> q <> p) m.a1in;
        m.ghost <- p :: List.filter (fun q -> q <> p) m.ghost;
        m.ghost <- List.filteri (fun i _ -> i < m.kout) m.ghost;
        m.m_evictions <- m.m_evictions + 1
      | `Am (Some p) ->
        m.am <- List.filter (fun q -> q <> p) m.am;
        m.m_evictions <- m.m_evictions + 1
    done;
    if List.mem page m.ghost then begin
      m.ghost <- List.filter (fun p -> p <> page) m.ghost;
      m.am <- page :: m.am
    end
    else m.a1in <- page :: m.a1in
  end

let model_resident m page = List.mem page m.am || List.mem page m.a1in

(* Nested random traces: plain reads, sequential scan bursts, and
   pinned spans (with_page held across the inner ops) — the access mix a
   multi-tenant pool actually sees. *)
type trace_op = Access of int | Scan of int * int | Pinned of int * trace_op list

let gen_trace ~n_pages seed =
  let st = Random.State.make [| 0x2b0f; seed |] in
  let rec ops depth budget =
    if !budget <= 0 then []
    else begin
      decr budget;
      let op =
        match Random.State.int st 10 with
        | 0 | 1 ->
          let start = Random.State.int st n_pages in
          Scan (start, 1 + Random.State.int st (n_pages / 2))
        | 2 when depth < 2 ->
          let inner_budget = ref (1 + Random.State.int st 6) in
          Pinned (Random.State.int st n_pages, ops (depth + 1) inner_budget)
        | _ -> Access (Random.State.int st n_pages)
      in
      op :: ops depth budget
    end
  in
  ops 0 (ref (120 + Random.State.int st 120))

(* Drive the same trace through a real pool and through one model per
   stripe; every access goes through a tally so the run also checks the
   Σ-tallies = pool-counters invariant under the 2Q policy. *)
let check_twoq_model ~stripes ~capacity seed =
  let page_ints = 4 in
  let n_pages = 16 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Alcotest.failf "2q-model cap=%d stripes=%d seed=%d: %s" capacity stripes seed msg)
      fmt
  in
  let data = Array.init (page_ints * n_pages) Fun.id in
  let pool =
    Buffer_pool.create ~policy:Buffer_pool.Two_q ~stripes ~capacity
      (Buffer_pool.Store.create ~page_ints data)
  in
  let n_stripes = max 1 (min stripes capacity) in
  let models =
    Array.init n_stripes (fun i ->
        twoq_model_create ((capacity / n_stripes) + if i < capacity mod n_stripes then 1 else 0))
  in
  let model_of page = models.(page mod n_stripes) in
  let tally = Buffer_pool.Tally.create () in
  let access page =
    let v = Buffer_pool.read ~tally pool (page * page_ints) in
    if v <> page * page_ints then fail "page %d read %d" page v;
    twoq_model_access (model_of page) page
  in
  let rec run_ops = function
    | [] -> ()
    | Access p :: rest ->
      access p;
      run_ops rest
    | Scan (start, len) :: rest ->
      for i = 0 to len - 1 do
        access ((start + i) mod n_pages)
      done;
      run_ops rest
    | Pinned (p, inner) :: rest ->
      Buffer_pool.with_page ~tally pool p (fun _ ->
          let m = model_of p in
          twoq_model_access m p;
          Hashtbl.replace m.pins p (model_pins m p + 1);
          run_ops inner;
          Hashtbl.replace m.pins p (model_pins m p - 1));
      run_ops rest
  in
  run_ops (gen_trace ~n_pages seed);
  let hits, faults, evictions = Buffer_pool.stats pool in
  let sum f = Array.fold_left (fun acc m -> acc + f m) 0 models in
  if hits <> sum (fun m -> m.m_hits) then fail "hits %d, model %d" hits (sum (fun m -> m.m_hits));
  if faults <> sum (fun m -> m.m_faults) then
    fail "faults %d, model %d" faults (sum (fun m -> m.m_faults));
  if evictions <> sum (fun m -> m.m_evictions) then
    fail "evictions %d, model %d" evictions (sum (fun m -> m.m_evictions));
  for page = 0 to n_pages - 1 do
    if Buffer_pool.is_resident pool page <> model_resident (model_of page) page then
      fail "page %d residency: pool %b, model %b" page
        (Buffer_pool.is_resident pool page)
        (model_resident (model_of page) page)
  done;
  if Buffer_pool.pinned pool <> 0 then fail "pins leaked: %d" (Buffer_pool.pinned pool);
  if Buffer_pool.Tally.total tally <> hits + faults then
    fail "tally %d <> pool counters %d" (Buffer_pool.Tally.total tally) (hits + faults)

let test_twoq_model () =
  List.iter
    (fun seed ->
      List.iter
        (fun (stripes, capacity) -> check_twoq_model ~stripes ~capacity seed)
        [ (1, 4); (1, 5); (1, 8); (1, 12); (2, 4); (2, 9) ])
    (Test_support.Fuzz.seeds 40)

(* The same random trace under both policies: the counting machinery is
   policy-independent, so Σ-tallies = pool-counters must survive an
   eviction-policy swap even though the hit/fault split differs. *)
let test_policy_swap_tally_invariant () =
  List.iter
    (fun seed ->
      let page_ints = 4 in
      let n_pages = 16 in
      let data = Array.init (page_ints * n_pages) Fun.id in
      let trace = gen_trace ~n_pages seed in
      let totals =
        List.map
          (fun policy ->
            let pool =
              Buffer_pool.create ~policy ~stripes:2 ~capacity:5
                (Buffer_pool.Store.create ~page_ints data)
            in
            let tally = Buffer_pool.Tally.create () in
            let rec run_ops = function
              | [] -> ()
              | Access p :: rest ->
                ignore (Buffer_pool.read ~tally pool (p * page_ints));
                run_ops rest
              | Scan (start, len) :: rest ->
                for i = 0 to len - 1 do
                  ignore (Buffer_pool.read ~tally pool ((start + i) mod n_pages * page_ints))
                done;
                run_ops rest
              | Pinned (p, inner) :: rest ->
                Buffer_pool.with_page ~tally pool p (fun _ -> run_ops inner);
                run_ops rest
            in
            run_ops trace;
            let hits, faults, _ = Buffer_pool.stats pool in
            check_int
              (Printf.sprintf "seed=%d %s: tally = pool counters" seed
                 (Buffer_pool.policy_to_string policy))
              (hits + faults)
              (Buffer_pool.Tally.total tally);
            check_int
              (Printf.sprintf "seed=%d %s: pins drained" seed
                 (Buffer_pool.policy_to_string policy))
              0 (Buffer_pool.pinned pool);
            hits + faults
          )
          [ Buffer_pool.Lru; Buffer_pool.Two_q ]
      in
      match totals with
      | [ lru_total; twoq_total ] ->
        check_int
          (Printf.sprintf "seed=%d: same access count under both policies" seed)
          lru_total twoq_total
      | _ -> assert false)
    (Test_support.Fuzz.seeds 20)

(* Pin exhaustion mid-scan under 2Q: the aborted fault stays counted
   (the invariant survives), the diagnosis points at the pins, and the
   pool works again once the pins drain. *)
let test_twoq_pin_exhaustion_mid_scan () =
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  let store = Buffer_pool.Store.create ~page_ints:4 (Array.init 64 Fun.id) in
  let pool = Buffer_pool.create ~policy:Buffer_pool.Two_q ~max_overflow:0 ~capacity:2 store in
  let tally = Buffer_pool.Tally.create () in
  let aborted = ref 0 in
  Buffer_pool.with_page ~tally pool 0 (fun _ ->
      Buffer_pool.with_page ~tally pool 1 (fun _ ->
          (* a sequential scan arrives while both frames are pinned *)
          for page = 2 to 5 do
            match Buffer_pool.read ~tally pool (page * 4) with
            | _ -> Alcotest.fail "fault over a fully pinned 2Q pool returned a value"
            | exception Buffer_pool.Exhausted msg ->
              incr aborted;
              check_bool "diagnosis names the pins" true (contains msg "pinned")
          done));
  check_int "every scan fault aborted" 4 !aborted;
  let hits, faults, _ = Buffer_pool.stats pool in
  check_int "aborted faults still counted" (hits + faults) (Buffer_pool.Tally.total tally);
  check_int "pins drained" 0 (Buffer_pool.pinned pool);
  (* pins gone: the same scan succeeds and lands in A1in *)
  for page = 2 to 5 do
    check_int "scan readable after pins drain" (page * 4) (Buffer_pool.read ~tally pool (page * 4))
  done;
  let hits2, faults2, _ = Buffer_pool.stats pool in
  check_int "invariant holds after recovery" (hits2 + faults2) (Buffer_pool.Tally.total tally)

(* The scan-resistance headline at pool sizes down to 4 frames: a hot
   page re-referenced through the ghost queue survives an arbitrarily
   long one-pass scan that would flush any LRU pool. *)
let test_twoq_scan_resistance () =
  List.iter
    (fun capacity ->
      let page_ints = 4 in
      let n_pages = 64 in
      let data = Array.init (page_ints * n_pages) Fun.id in
      let run policy =
        let pool =
          Buffer_pool.create ~policy ~capacity (Buffer_pool.Store.create ~page_ints data)
        in
        let touch page = ignore (Buffer_pool.read pool (page * page_ints)) in
        (* promote page 0 into Am: fault, get evicted into the ghost
           queue, ghost-hit re-fault (the re-touch comes right after the
           eviction, while the ghost entry is still live) *)
        touch 0;
        for p = 1 to capacity do
          touch p
        done;
        touch 0;
        (* one-pass cold scan over everything else *)
        for p = capacity + 1 to n_pages - 1 do
          touch p
        done;
        Buffer_pool.is_resident pool 0
      in
      check_bool
        (Printf.sprintf "capacity %d: 2Q keeps the hot page through a cold scan" capacity)
        true (run Buffer_pool.Two_q);
      check_bool
        (Printf.sprintf "capacity %d: LRU loses it (the A/B control)" capacity)
        false (run Buffer_pool.Lru))
    [ 4; 5; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* striped pool under concurrent reader domains                         *)
(* ------------------------------------------------------------------ *)

(* N domains hammer one pool with independent access patterns: every
   value must come back right, the global hit+fault totals must equal the
   summed per-domain tallies exactly, and no pin may survive. *)
let test_pool_concurrent_readers () =
  let n = 4096 in
  let data = Array.init n (fun i -> i * 3) in
  let store = Buffer_pool.Store.create ~fault_latency:0.00002 ~page_ints:32 data in
  let pool = Buffer_pool.create ~stripes:4 ~capacity:16 store in
  let reads_per_domain = 1500 in
  let reader seed () =
    let tally = Buffer_pool.Tally.create () in
    let st = Random.State.make [| seed |] in
    let ok = ref true in
    for _ = 1 to reads_per_domain do
      let i = Random.State.int st n in
      if Buffer_pool.read ~tally pool i <> i * 3 then ok := false
    done;
    (!ok, tally)
  in
  let domains = List.init 4 (fun w -> Domain.spawn (reader (w + 1))) in
  let results = List.map Domain.join domains in
  List.iter (fun (ok, _) -> check_bool "every value correct" true ok) results;
  let hits, faults, _ = Buffer_pool.stats pool in
  let t_hits =
    List.fold_left (fun acc (_, t) -> acc + t.Buffer_pool.Tally.hits) 0 results
  in
  let t_misses =
    List.fold_left (fun acc (_, t) -> acc + t.Buffer_pool.Tally.misses) 0 results
  in
  check_int "pool hits = summed tallies" t_hits hits;
  check_int "pool faults = summed tallies" t_misses faults;
  check_int "every access accounted" (4 * reads_per_domain) (hits + faults);
  check_int "pins drained" 0 (Buffer_pool.pinned pool);
  check_bool "capacity respected" true (Buffer_pool.resident pool <= 16)

(* ------------------------------------------------------------------ *)
(* pin exhaustion                                                      *)
(* ------------------------------------------------------------------ *)

let contains msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  go 0

(* Every frame pinned and no overflow allowance left: the fault must fail
   fast with a diagnosis, not spin — and the aborted access is still
   counted, so Σ-tallies = pool-counters survives the abort. *)
let test_pool_pin_exhaustion () =
  let store = Buffer_pool.Store.create ~page_ints:4 (Array.init 32 Fun.id) in
  let pool = Buffer_pool.create ~max_overflow:0 ~capacity:2 store in
  let tally = Buffer_pool.Tally.create () in
  let msg = ref None in
  Buffer_pool.with_page ~tally pool 0 (fun _ ->
      Buffer_pool.with_page ~tally pool 1 (fun _ ->
          match Buffer_pool.read ~tally pool 8 with
          | _ -> Alcotest.fail "fault over a fully pinned pool returned a value"
          | exception Buffer_pool.Exhausted m -> msg := Some m));
  (match !msg with
  | None -> Alcotest.fail "Exhausted not raised"
  | Some m ->
    check_bool "diagnosis names the pins" true (contains m "pinned");
    check_bool "diagnosis names the faulting page" true (contains m "page 2"));
  let hits, faults, _ = Buffer_pool.stats pool in
  check_int "aborted fault still counted" 3 (hits + faults);
  check_int "pool counters = tally after abort" (hits + faults) (Buffer_pool.Tally.total tally);
  check_int "pins drained after abort" 0 (Buffer_pool.pinned pool);
  (* with the pins gone the same access succeeds *)
  check_int "pool usable after abort" 8 (Buffer_pool.read ~tally pool 8)

(* A positive overflow allowance absorbs the same pressure instead. *)
let test_pool_pin_overflow_allowance () =
  let store = Buffer_pool.Store.create ~page_ints:4 (Array.init 32 Fun.id) in
  let pool = Buffer_pool.create ~max_overflow:1 ~capacity:2 store in
  Buffer_pool.with_page pool 0 (fun _ ->
      Buffer_pool.with_page pool 1 (fun _ ->
          check_int "overflow frame serves the fault" 8 (Buffer_pool.read pool 8)));
  check_int "pins drained" 0 (Buffer_pool.pinned pool)

(* ------------------------------------------------------------------ *)
(* paged document                                                      *)
(* ------------------------------------------------------------------ *)

let test_paged_accessors () =
  let d = Lazy.force Test_support.paper_doc in
  let pd = Paged_doc.load ~page_ints:4 ~capacity:4 d in
  check_int "n_nodes" (Doc.n_nodes d) (Paged_doc.n_nodes pd);
  for v = 0 to Doc.n_nodes d - 1 do
    check_int "post" (Doc.post d v) (Paged_doc.post pd v);
    check_int "size" (Doc.size d v) (Paged_doc.size pd v);
    check_bool "kind" (Doc.kind d v = Doc.Attribute) (Paged_doc.is_attribute pd v)
  done

(* Regression: a pool too small to hold one query's working set (a post
   page, an attr-prefix page and a size page may be pinned-hot at once)
   must be refused up front with a clear message, not starve mid-join. *)
let test_paged_capacity_guard () =
  let d = Lazy.force Test_support.paper_doc in
  let contains msg sub =
    let n = String.length msg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
    go 0
  in
  let expect_refusal ?stripes capacity =
    match Paged_doc.load ~page_ints:4 ?stripes ~capacity d with
    | _ -> Alcotest.failf "capacity %d accepted" capacity
    | exception Invalid_argument msg ->
      check_bool "message names the working set" true (contains msg "working set");
      check_bool "message names the capacity" true
        (contains msg (string_of_int capacity))
  in
  expect_refusal 1;
  expect_refusal 2;
  (* striping multiplies the floor: each stripe needs its own share *)
  expect_refusal ~stripes:4 11;
  ignore (Paged_doc.load ~page_ints:4 ~capacity:3 d);
  ignore (Paged_doc.load ~page_ints:4 ~stripes:4 ~capacity:12 d)

let prop_paged_desc_agrees =
  QCheck.Test.make ~count:200 ~name:"paged staircase desc = in-memory desc"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      let pd = Paged_doc.load ~page_ints:4 ~capacity:3 d in
      Nodeseq.equal (Paged_doc.desc pd ctx) (Sj.desc d ctx))

let prop_paged_index_desc_agrees =
  QCheck.Test.make ~count:200 ~name:"paged index plan desc = in-memory desc"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      let pd = Paged_doc.load ~page_ints:4 ~capacity:3 d in
      Nodeseq.equal (Paged_doc.index_desc pd ctx) (Sj.desc d ctx))

let prop_paged_anc_agrees =
  QCheck.Test.make ~count:200 ~name:"paged staircase anc = in-memory anc"
    (Test_support.doc_with_context_arbitrary ())
    (fun (d, ctx) ->
      let pd = Paged_doc.load ~page_ints:4 ~capacity:3 d in
      Nodeseq.equal (Paged_doc.anc pd ctx) (Sj.anc d ctx)
      && Nodeseq.equal (Paged_doc.index_anc pd ctx) (Sj.anc d ctx))

(* the headline of the disk experiment: under memory pressure the
   single-pass staircase join faults far less than the per-context prefix
   scans a tree-unaware index plan is stuck with (ancestor axis) *)
let test_fault_comparison_on_xmark () =
  let d = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.005 ())) in
  let increases = Nodeseq.of_sorted_array (Doc.tag_positions d "increase") in
  let faults step =
    let pd = Paged_doc.load ~page_ints:256 ~capacity:8 d in
    let result = step pd increases in
    let _, faults, _ = Buffer_pool.stats (Paged_doc.pool pd) in
    (result, faults)
  in
  let r_sj, f_sj = faults Paged_doc.anc in
  let r_ix, f_ix = faults Paged_doc.index_anc in
  Alcotest.check nodeseq "same result" r_sj r_ix;
  check_bool
    (Printf.sprintf "staircase faults %d <<< index faults %d" f_sj f_ix)
    true
    (f_sj * 10 < f_ix);
  (* the descendant step with the Eq.-1 delimiter has comparable locality:
     no dramatic gap expected, but staircase must not lose badly *)
  let profiles = Nodeseq.of_sorted_array (Doc.tag_positions d "profile") in
  let pd = Paged_doc.load ~page_ints:256 ~capacity:8 d in
  let _ = Paged_doc.desc pd profiles in
  let _, f_desc, _ = Buffer_pool.stats (Paged_doc.pool pd) in
  let pd2 = Paged_doc.load ~page_ints:256 ~capacity:8 d in
  let _ = Paged_doc.index_desc pd2 profiles in
  let _, f_ixdesc, _ = Buffer_pool.stats (Paged_doc.pool pd2) in
  check_bool
    (Printf.sprintf "desc faults comparable (%d vs %d)" f_desc f_ixdesc)
    true
    (f_desc < 2 * f_ixdesc)

(* the point of storing the attribute column as prefix sums: a pure
   copy-phase descendant step (root context) never reads the post column
   past the context node — the bulk fills run entirely against prefix
   pages *)
let test_copy_phase_avoids_post_pages () =
  let d = Doc.of_tree (Scj_xmlgen.Xmark.generate (Scj_xmlgen.Xmark.config ~scale:0.002 ())) in
  let n = Doc.n_nodes d in
  let page_ints = 256 in
  (* capacity large enough that nothing is evicted *)
  let pd = Paged_doc.load ~page_ints ~capacity:1000 d in
  let root = Nodeseq.singleton 0 in
  let tally = Buffer_pool.Tally.create () in
  let result = Paged_doc.desc (Paged_doc.with_tally pd tally) root in
  Alcotest.check nodeseq "matches in-memory desc" (Sj.desc d root) result;
  (* page at a time: each prefix page is pinned once per visit, not once
     per binary-search probe *)
  let prefix_pages = (n + 1 + page_ints - 1) / page_ints in
  let accesses = Buffer_pool.Tally.total tally in
  check_bool
    (Printf.sprintf "%d pool accesses <= 4 x %d prefix pages + 4" accesses prefix_pages)
    true
    (accesses <= (4 * prefix_pages) + 4);
  let pool = Paged_doc.pool pd in
  (* page 0 holds post(root) (touched by the prune); every other post page
     must stay untouched — the column extents are page-aligned, so no
     post page shares a frame with the prefix column *)
  let resident_post_pages = ref 0 in
  for page = 1 to (n - 1) / page_ints do
    if Buffer_pool.is_resident pool page then incr resident_post_pages
  done;
  check_int "interior post pages untouched" 0 !resident_post_pages

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_pool_transparent; prop_paged_desc_agrees; prop_paged_index_desc_agrees; prop_paged_anc_agrees ]

let () =
  Alcotest.run "scj_pager"
    [
      ("store", [ Alcotest.test_case "geometry" `Quick test_store_geometry ]);
      ( "pool",
        [
          Alcotest.test_case "reads all values" `Quick test_pool_reads_all_values;
          Alcotest.test_case "hit/fault accounting" `Quick test_pool_hit_fault_accounting;
          Alcotest.test_case "capacity respected" `Quick test_pool_capacity_respected;
          Alcotest.test_case "LRU eviction order" `Quick test_pool_lru_order;
          Alcotest.test_case "reset and flush" `Quick test_pool_reset_flush;
          Alcotest.test_case "bounds" `Quick test_pool_bounds;
          Alcotest.test_case "eviction = plain-list LRU model" `Quick test_lru_model;
          Alcotest.test_case "2Q eviction = plain-list 2Q model" `Quick test_twoq_model;
          Alcotest.test_case "tally invariant survives policy swap" `Quick
            test_policy_swap_tally_invariant;
          Alcotest.test_case "2Q pin exhaustion mid-scan" `Quick
            test_twoq_pin_exhaustion_mid_scan;
          Alcotest.test_case "2Q scan resistance (vs LRU control)" `Quick
            test_twoq_scan_resistance;
          Alcotest.test_case "concurrent readers" `Quick test_pool_concurrent_readers;
          Alcotest.test_case "pin exhaustion" `Quick test_pool_pin_exhaustion;
          Alcotest.test_case "pin overflow allowance" `Quick test_pool_pin_overflow_allowance;
        ] );
      ( "paged document",
        [
          Alcotest.test_case "accessors" `Quick test_paged_accessors;
          Alcotest.test_case "capacity guard" `Quick test_paged_capacity_guard;
          Alcotest.test_case "fault comparison (xmark)" `Quick test_fault_comparison_on_xmark;
          Alcotest.test_case "copy phase avoids post pages" `Quick test_copy_phase_avoids_post_pages;
        ] );
      ("properties", qsuite);
    ]
