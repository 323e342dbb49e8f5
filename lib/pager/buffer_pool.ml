module Store = struct
  type t = { page_ints : int; length : int; fault_latency : float; fetch : int -> int array }

  let of_fn ?(fault_latency = 0.0) ~page_ints ~length fetch =
    if page_ints <= 0 then invalid_arg "Buffer_pool.Store.create: page_ints must be positive";
    if length < 0 then invalid_arg "Buffer_pool.Store.of_fn: length must be non-negative";
    { page_ints; length; fault_latency = Float.max 0.0 fault_latency; fetch }

  let create ?fault_latency ~page_ints data =
    of_fn ?fault_latency ~page_ints ~length:(Array.length data) (fun page ->
        let start = page * page_ints in
        let len = min page_ints (Array.length data - start) in
        Array.sub data start len)

  let page_ints t = t.page_ints

  let n_pages t = (t.length + t.page_ints - 1) / t.page_ints

  let length t = t.length

  let fault_latency t = t.fault_latency

  (* Disk read: fetch the page from the backing store (an array copy for
     the simulated disk, a checksum-verified pread for a file-backed
     store), after the simulated device latency.  The sleep models a
     seek+transfer; it is what concurrent queries overlap. *)
  let read_page t page =
    if t.fault_latency > 0.0 then Unix.sleepf t.fault_latency;
    t.fetch page

  (* Concatenate several stores page-aligned into one address space —
     how a multi-document catalog puts every tenant's extents behind one
     shared pool.  Each component occupies a whole number of pages (its
     partial last page is padding in the combined space); faults route to
     the owning component, whose own fault latency applies.  Returns the
     combined store and each component's base page. *)
  let concat parts =
    match parts with
    | [] -> invalid_arg "Buffer_pool.Store.concat: need at least one store"
    | first :: rest ->
      let page_ints = first.page_ints in
      List.iter
        (fun p ->
          if p.page_ints <> page_ints then
            invalid_arg
              (Printf.sprintf "Buffer_pool.Store.concat: page_ints mismatch (%d vs %d)"
                 page_ints p.page_ints))
        rest;
      let parts = Array.of_list (first :: rest) in
      let bases = Array.make (Array.length parts) 0 in
      let total = ref 0 in
      Array.iteri
        (fun i p ->
          bases.(i) <- !total;
          total := !total + n_pages p)
        parts;
      let last = Array.length parts - 1 in
      let length = (bases.(last) * page_ints) + parts.(last).length in
      let fetch page =
        let i = ref last in
        while !i > 0 && bases.(!i) > page do
          decr i
        done;
        read_page parts.(!i) (page - bases.(!i))
      in
      (of_fn ~page_ints ~length fetch, Array.to_list bases)
end

(* A fault found every resident frame of the stripe pinned and the stripe
   already past its overflow allowance: refusing is the only alternative
   to unbounded growth or wedging on a latch. *)
exception Exhausted of string

module Tally = struct
  type t = { mutable hits : int; mutable misses : int }

  let create () = { hits = 0; misses = 0 }

  let total t = t.hits + t.misses
end

(* Which eviction policy the pool runs.  [Lru] is the historical
   behavior, reproduced bit for bit.  [Two_q] is the scan-resistant 2Q
   policy (Johnson & Shasha, VLDB '94, simplified 2Q): a first-touch
   FIFO [A1in], a ghost FIFO of recently evicted first-touch pages
   [A1out], and a main LRU [Am] reserved for pages proven hot by a
   second fault — a cold sequential scan churns only A1in and can never
   displace another tenant's working set out of Am. *)
type policy = Lru | Two_q

let policy_to_string = function Lru -> "lru" | Two_q -> "2q"

let policy_of_string = function
  | "lru" -> Some Lru
  | "2q" | "two_q" | "twoq" -> Some Two_q
  | _ -> None

(* [Main] is the only queue under Lru; under Two_q it is Am. *)
type queue_tag = Main | A1in

type frame = {
  page : int;
  mutable data : int array;  (* [||] while the page is being read in *)
  mutable last_used : int;  (* LRU key (Main); meaningless while in A1in *)
  mutable entered : int;  (* stripe clock at insertion: the A1in FIFO key *)
  mutable queue : queue_tag;
  mutable pins : int;
  mutable loading : bool;
}

(* One lock stripe: its own latch, frame table, LRU clock, 2Q queue
   bounds and capacity share.  A page maps to stripe [page mod n];
   eviction is local to the stripe (set-associative, like hash-bucket
   latches in a real buffer manager), so two queries faulting pages of
   different stripes never contend. *)
type stripe = {
  lock : Mutex.t;
  loaded : Condition.t;  (* signalled when an in-flight page finishes loading *)
  frames : (int, frame) Hashtbl.t;
  mutable clock : int;
  cap : int;
  (* 2Q state (unused under Lru).  [kin] bounds A1in (resident frames,
     pinned included), [kout] bounds the A1out ghost list — page ids
     only, no data.  [ghost] maps page -> insertion sequence; the FIFO
     carries (page, seq) with lazy deletion, so a promotion (which only
     removes the table entry) never disturbs another entry's order. *)
  kin : int;
  kout : int;
  ghost : (int, int) Hashtbl.t;
  ghost_fifo : (int * int) Queue.t;
  mutable gseq : int;
}

type t = {
  store : Store.t;
  capacity : int;
  max_overflow : int;
  policy : policy;
  stripes : stripe array;
  hits : int Atomic.t;
  faults : int Atomic.t;
  evictions : int Atomic.t;
}

(* 2Q tuning, derived from the stripe's capacity share as in the paper's
   recommendation: Kin ~ 25% of the buffer, Kout ~ 50% (in page ids). *)
let kin_of_cap cap = max 1 (cap / 4)

let kout_of_cap cap = max 1 (cap / 2)

let create ?(policy = Lru) ?(stripes = 1) ?(max_overflow = max_int) ~capacity store =
  if capacity <= 0 then invalid_arg "Buffer_pool.create: capacity must be positive";
  if max_overflow < 0 then invalid_arg "Buffer_pool.create: max_overflow must be non-negative";
  let n_stripes = max 1 (min stripes capacity) in
  let stripe i =
    (* distribute the capacity as evenly as possible; every stripe gets
       at least one frame because n_stripes <= capacity *)
    let cap = (capacity / n_stripes) + if i < capacity mod n_stripes then 1 else 0 in
    {
      lock = Mutex.create ();
      loaded = Condition.create ();
      frames = Hashtbl.create (2 * cap);
      clock = 0;
      cap;
      kin = kin_of_cap cap;
      kout = kout_of_cap cap;
      ghost = Hashtbl.create 8;
      ghost_fifo = Queue.create ();
      gseq = 0;
    }
  in
  {
    store;
    capacity;
    max_overflow;
    policy;
    stripes = Array.init n_stripes stripe;
    hits = Atomic.make 0;
    faults = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let capacity t = t.capacity

let policy t = t.policy

let n_stripes t = Array.length t.stripes

let page_ints t = Store.page_ints t.store

let stripe_of t page = t.stripes.(page mod Array.length t.stripes)

let touch s frame =
  s.clock <- s.clock + 1;
  frame.last_used <- s.clock

(* Remember an evicted A1in page in the bounded ghost FIFO: its next
   fault proves reuse and admits it straight into Am. *)
let ghost_add s page =
  s.gseq <- s.gseq + 1;
  Hashtbl.replace s.ghost page s.gseq;
  Queue.push (page, s.gseq) s.ghost_fifo;
  while Hashtbl.length s.ghost > s.kout do
    match Queue.take_opt s.ghost_fifo with
    | None -> Hashtbl.reset s.ghost
    | Some (p, g) -> (
      (* lazy deletion: drop the entry only if it is still current *)
      match Hashtbl.find_opt s.ghost p with
      | Some g' when g' = g -> Hashtbl.remove s.ghost p
      | _ -> ())
  done

(* A page faulting back while its ghost entry is live was evicted from
   A1in recently: the second touch that admits it into Am. *)
let ghost_take s page =
  match Hashtbl.find_opt s.ghost page with
  | Some _ ->
    Hashtbl.remove s.ghost page;
    true
  | None -> false

let victim_lru s =
  Hashtbl.fold
    (fun _ frame acc ->
      if frame.pins > 0 then acc
      else
        match acc with
        | None -> Some frame
        | Some best -> if frame.last_used < best.last_used then Some frame else acc)
    s.frames None

(* 2Q victim: when A1in holds more than its [kin] share, reclaim its
   FIFO head (oldest [entered]); otherwise reclaim the Am LRU tail.
   Pinned frames are skipped; when the preferred queue has no evictable
   frame, fall back to the other rather than wedging. *)
let victim_2q s =
  let a1in_count =
    Hashtbl.fold (fun _ f n -> if f.queue = A1in then n + 1 else n) s.frames 0
  in
  let best tag key =
    Hashtbl.fold
      (fun _ f acc ->
        if f.pins > 0 || f.queue <> tag then acc
        else
          match acc with
          | None -> Some f
          | Some b -> if key f < key b then Some f else acc)
      s.frames None
  in
  let from_a1in = best A1in (fun f -> f.entered) in
  let from_am = best Main (fun f -> f.last_used) in
  if a1in_count > s.kin then (match from_a1in with Some _ -> from_a1in | None -> from_am)
  else match from_am with Some _ -> from_am | None -> from_a1in

(* Evict unpinned frames until the stripe is under its capacity share:
   LRU order, or the 2Q discipline above.  Pinned (and in-flight) frames
   are skipped; if every frame is pinned the stripe temporarily
   overflows (up to [max_overflow] extra frames) rather than wedging —
   the excess is reclaimed by later faults once pins drain.  Past the
   allowance, the caller raises [Exhausted]. *)
let shrink t s =
  let continue_ = ref true in
  while !continue_ && Hashtbl.length s.frames >= s.cap do
    let victim = match t.policy with Lru -> victim_lru s | Two_q -> victim_2q s in
    match victim with
    | None -> continue_ := false
    | Some frame ->
      (* only first-touch evictions earn a ghost entry: an Am page that
         falls off the LRU tail is genuinely cold again *)
      if t.policy = Two_q && frame.queue = A1in then ghost_add s frame.page;
      Hashtbl.remove s.frames frame.page;
      Atomic.incr t.evictions
  done

(* Recency bookkeeping on a hit.  LRU: every hit refreshes.  2Q: only Am
   hits refresh — A1in is a FIFO, so repeat hits inside one scan window
   earn a page no recency and cannot promote it. *)
let on_hit t s frame =
  match t.policy with
  | Lru -> touch s frame
  | Two_q -> if frame.queue = Main then touch s frame

let record tally hit =
  match tally with
  | None -> ()
  | Some (tl : Tally.t) ->
    if hit then tl.Tally.hits <- tl.Tally.hits + 1 else tl.Tally.misses <- tl.Tally.misses + 1

(* Acquire the frame for [page] with one pin held.  The caller must
   release with [unpin].  The simulated disk read happens with the
   stripe lock released: the frame is inserted in a loading state (pinned
   so it cannot be evicted), concurrent readers of the same page wait on
   the stripe condition, and readers of other pages proceed — concurrent
   queries overlap their fault latencies. *)
let pin_frame ?tally t page =
  let s = stripe_of t page in
  Mutex.lock s.lock;
  let rec acquire () =
    match Hashtbl.find_opt s.frames page with
    | Some frame ->
      Atomic.incr t.hits;
      record tally true;
      frame.pins <- frame.pins + 1;
      while frame.loading do
        Condition.wait s.loaded s.lock
      done;
      (* the loader could have failed and dropped the frame: retry *)
      if not (Hashtbl.mem s.frames page) then begin
        frame.pins <- frame.pins - 1;
        acquire ()
      end
      else begin
        on_hit t s frame;
        Mutex.unlock s.lock;
        frame
      end
    | None ->
      Atomic.incr t.faults;
      record tally false;
      shrink t s;
      if Hashtbl.length s.frames >= s.cap && t.max_overflow < max_int
         && Hashtbl.length s.frames >= s.cap + t.max_overflow
      then begin
        (* the fault is already counted (pool and tally) so the
           Σ-tallies = pool-counters invariant survives the abort *)
        Mutex.unlock s.lock;
        raise
          (Exhausted
             (Printf.sprintf
                "Buffer_pool: stripe %d exhausted faulting page %d: all %d frames pinned \
                 (capacity %d, max_overflow %d)"
                (page mod Array.length t.stripes)
                page (Hashtbl.length s.frames) s.cap t.max_overflow))
      end;
      (* 2Q admission: a live ghost entry proves a recent first touch —
         the page goes straight to Am; otherwise it starts in A1in *)
      let queue =
        match t.policy with Lru -> Main | Two_q -> if ghost_take s page then Main else A1in
      in
      let frame = { page; data = [||]; last_used = 0; entered = 0; queue; pins = 1; loading = true } in
      touch s frame;
      frame.entered <- frame.last_used;
      Hashtbl.replace s.frames page frame;
      Mutex.unlock s.lock;
      (match Store.read_page t.store page with
      | data ->
        Mutex.lock s.lock;
        frame.data <- data;
        frame.loading <- false;
        Condition.broadcast s.loaded;
        Mutex.unlock s.lock
      | exception e ->
        (* never leave an unloadable frame behind *)
        Mutex.lock s.lock;
        Hashtbl.remove s.frames page;
        frame.pins <- frame.pins - 1;
        frame.loading <- false;
        Condition.broadcast s.loaded;
        Mutex.unlock s.lock;
        raise e);
      frame
  in
  acquire ()

let unpin t frame =
  let s = stripe_of t frame.page in
  Mutex.lock s.lock;
  frame.pins <- frame.pins - 1;
  Mutex.unlock s.lock

let with_page ?tally t page f =
  let frame = pin_frame ?tally t page in
  Fun.protect ~finally:(fun () -> unpin t frame) (fun () -> f frame.data)

let read ?tally t i =
  if i < 0 || i >= Store.length t.store then
    invalid_arg (Printf.sprintf "Buffer_pool.read: index %d out of bounds" i);
  let page_ints = Store.page_ints t.store in
  let page = i / page_ints in
  let frame = pin_frame ?tally t page in
  let v = frame.data.(i - (page * page_ints)) in
  unpin t frame;
  v

let fold_stripes t f init =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let acc = f acc s in
      Mutex.unlock s.lock;
      acc)
    init t.stripes

let resident t = fold_stripes t (fun acc s -> acc + Hashtbl.length s.frames) 0

let pinned t =
  fold_stripes t
    (fun acc s -> Hashtbl.fold (fun _ frame acc -> acc + frame.pins) s.frames acc)
    0

let is_resident t page =
  let s = stripe_of t page in
  Mutex.lock s.lock;
  let r = Hashtbl.mem s.frames page in
  Mutex.unlock s.lock;
  r

let stats t = (Atomic.get t.hits, Atomic.get t.faults, Atomic.get t.evictions)

let reset_stats t =
  Atomic.set t.hits 0;
  Atomic.set t.faults 0;
  Atomic.set t.evictions 0

(* Drop every unpinned frame and all ghost history (keeps counters;
   pinned frames stay). *)
let flush t =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      let victims =
        Hashtbl.fold (fun page frame acc -> if frame.pins = 0 then page :: acc else acc) s.frames []
      in
      List.iter (Hashtbl.remove s.frames) victims;
      Hashtbl.reset s.ghost;
      Queue.clear s.ghost_fifo;
      Mutex.unlock s.lock)
    t.stripes
