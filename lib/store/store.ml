module Doc = Scj_encoding.Doc
module Update = Scj_encoding.Update
module Error = Scj_error.Error
module Buffer_pool = Scj_pager.Buffer_pool
module Paged_doc = Scj_pager.Paged_doc
module Guide = Scj_guide.Guide

exception Corrupt of string

(* ------------------------------------------------------------------ *)
(* On-disk format                                                      *)
(*                                                                     *)
(* A store is a directory holding two files:                           *)
(*                                                                     *)
(*   pages.scj   [superblock | post | attr_prefix | size | meta]       *)
(*   wal.scj     the write-ahead log (see Wal)                         *)
(*                                                                     *)
(* Every file page has the same stride: page_ints * 8 data bytes plus  *)
(* an 8-byte little-endian CRC-32 trailer.  File page 0 is the         *)
(* superblock; the three column extents follow, page-aligned with the  *)
(* geometry Paged_doc.attach expects, so pool page p maps to file page *)
(* p + 1.  The meta extent carries the non-columnar remainder of the   *)
(* document (level/parent/kind columns, tag dictionary, text contents) *)
(* as one length-prefixed blob packed into pages.                      *)
(*                                                                     *)
(* Format version 2 adds logical mutation records (Wal kind 4) to the  *)
(* log: a committed mutation lives only in the WAL until the next      *)
(* checkpoint rewrites the extents.  The page file layout is unchanged *)
(* and version-1 stores open fine.                                     *)
(*                                                                     *)
(* Format version 3 appends a dataguide extent after the meta extent   *)
(* (the serialized path summary, packed into CRC-trailed pages like    *)
(* meta) and two superblock ints for its page/byte counts.  Pre-guide  *)
(* stores (v1/v2) open fine: the guide is rebuilt lazily from the      *)
(* document and persisted at the next checkpoint.  A v3 store with no  *)
(* guide extent is written as v2 — the two formats differ only in the  *)
(* extent's presence.                                                  *)
(* ------------------------------------------------------------------ *)

let pages_file = "pages.scj"

let wal_file = "wal.scj"

let version = 3

let supported_version v = v = 1 || v = 2 || v = 3

(* "SCJSTOR1" as a little-endian int64 *)
let magic_int = Int64.to_int (Bytes.get_int64_le (Bytes.of_string "SCJSTOR1") 0)

let min_page_ints = 16

let max_page_ints = 1 lsl 20

let superblock_ints = 12

let set_int b off v = Bytes.set_int64_le b off (Int64.of_int v)

let get_int b off = Int64.to_int (Bytes.get_int64_le b off)

let stride ~page_ints = (page_ints * 8) + 8

let pages_for ~page_ints ints = (ints + page_ints - 1) / page_ints

type geometry = {
  page_ints : int;
  n_nodes : int;
  height : int;
  post_pages : int;
  prefix_pages : int;
  size_pages : int;
  meta_pages : int;
  meta_bytes : int;
  guide_pages : int;
  guide_bytes : int;
}

let blob_pages ~page_ints bytes = (bytes + (page_ints * 8) - 1) / (page_ints * 8)

let geometry ~page_ints ~n_nodes ~height ~meta_bytes ~guide_bytes =
  {
    page_ints;
    n_nodes;
    height;
    post_pages = pages_for ~page_ints n_nodes;
    prefix_pages = pages_for ~page_ints (n_nodes + 1);
    size_pages = pages_for ~page_ints n_nodes;
    meta_pages = blob_pages ~page_ints meta_bytes;
    meta_bytes;
    guide_pages = blob_pages ~page_ints guide_bytes;
    guide_bytes;
  }

(* pool pages = the three column extents Paged_doc reads *)
let pool_pages g = g.post_pages + g.prefix_pages + g.size_pages

let file_pages g = 1 + pool_pages g + g.meta_pages + g.guide_pages

(* pool logical length in integers: matches Paged_doc's extent layout *)
let pool_length g = ((g.post_pages + g.prefix_pages) * g.page_ints) + g.n_nodes

(* ------------------------------------------------------------------ *)
(* Page encode/decode                                                  *)
(* ------------------------------------------------------------------ *)

(* encode [ints.(off .. off+len-1)] (zero-padded to page_ints) as one
   checksummed file page *)
let encode_page ~page_ints ints off len =
  let b = Bytes.make (stride ~page_ints) '\000' in
  for i = 0 to len - 1 do
    set_int b (8 * i) ints.(off + i)
  done;
  set_int b (page_ints * 8) (Crc32.digest b ~pos:0 ~len:(page_ints * 8));
  b

(* encode a slice of a raw byte blob as one checksummed file page *)
let encode_meta_page ~page_ints blob off len =
  let b = Bytes.make (stride ~page_ints) '\000' in
  Bytes.blit blob off b 0 len;
  set_int b (page_ints * 8) (Crc32.digest b ~pos:0 ~len:(page_ints * 8));
  b

let check_page ~page_ints ~what b =
  let stored = get_int b (page_ints * 8) in
  let computed = Crc32.digest b ~pos:0 ~len:(page_ints * 8) in
  if stored <> computed then
    raise
      (Corrupt (Printf.sprintf "checksum mismatch on %s (stored %d, computed %d)" what stored
                  computed))

(* ------------------------------------------------------------------ *)
(* Meta blob: the non-columnar document fields, Codec-style            *)
(* ------------------------------------------------------------------ *)

let kind_code = function
  | Doc.Element -> 0
  | Doc.Attribute -> 1
  | Doc.Text -> 2
  | Doc.Comment -> 3
  | Doc.Pi -> 4

let kind_of_code = function
  | 0 -> Doc.Element
  | 1 -> Doc.Attribute
  | 2 -> Doc.Text
  | 3 -> Doc.Comment
  | 4 -> Doc.Pi
  | c -> raise (Corrupt (Printf.sprintf "corrupt kind code %d in meta extent" c))

let buf_int buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let buf_string buf s =
  buf_int buf (String.length s);
  Buffer.add_string buf s

let encode_meta doc =
  let n = Doc.n_nodes doc in
  let buf = Buffer.create (n * 24) in
  Array.iter (buf_int buf) (Doc.level_array doc);
  Array.iter (buf_int buf) (Doc.parent_array doc);
  Array.iter (fun k -> buf_int buf (kind_code k)) (Doc.kind_array doc);
  for pre = 0 to n - 1 do
    match Doc.tag_name doc pre with
    | None -> buf_int buf 0
    | Some name ->
      buf_int buf 1;
      buf_string buf name
  done;
  for pre = 0 to n - 1 do
    match (Doc.kind doc pre, Doc.content doc pre) with
    | (Doc.Text | Doc.Comment | Doc.Attribute | Doc.Pi), Some s ->
      buf_int buf 1;
      buf_string buf s
    | _, _ -> buf_int buf 0
  done;
  Buffer.to_bytes buf

type cursor = { blob : Bytes.t; mutable pos : int }

let cur_int c =
  if c.pos + 8 > Bytes.length c.blob then raise (Corrupt "meta extent truncated");
  let v = get_int c.blob c.pos in
  c.pos <- c.pos + 8;
  v

let cur_string c =
  let len = cur_int c in
  if len < 0 || c.pos + len > Bytes.length c.blob then
    raise (Corrupt "corrupt string length in meta extent");
  let s = Bytes.sub_string c.blob c.pos len in
  c.pos <- c.pos + len;
  s

let decode_meta ~n ~height ~post blob =
  let c = { blob; pos = 0 } in
  let level = Array.init n (fun _ -> cur_int c) in
  let parent = Array.init n (fun _ -> cur_int c) in
  let kind = Array.init n (fun _ -> kind_of_code (cur_int c)) in
  let tags = Array.init n (fun _ -> if cur_int c = 1 then Some (cur_string c) else None) in
  let contents = Array.init n (fun _ -> if cur_int c = 1 then Some (cur_string c) else None) in
  let doc = Doc.Internal.assemble ~post ~level ~parent ~kind ~tags ~contents ~height () in
  match Doc.validate doc with
  | Ok () -> doc
  | Error e -> raise (Corrupt (Printf.sprintf "recovered document is inconsistent: %s" e))

(* ------------------------------------------------------------------ *)
(* Store handle                                                        *)
(* ------------------------------------------------------------------ *)

type t = {
  io : Io.t;
  path : string;
  pages : Io.file;
  walf : Io.file;
  wal : Wal.t;
  mutable geo : geometry;  (* rewritten by a checkpoint with mutations *)
  last_recovery : Wal.recovery;
  bytes_read : int Atomic.t;
  lock : Mutex.t;  (* guards the memos, the pending list and the WAL *)
  mutable doc : Doc.t option;
  mutable paged : Paged_doc.t option;
  mutable guide_memo : Guide.t option;  (* maintained incrementally by apply *)
  mutable pending : Update.op list;  (* committed, not yet checkpointed; oldest first *)
  mutable next_txid : int;
}

let page_ints t = t.geo.page_ints

let path t = t.path

let last_recovery t = t.last_recovery

let bytes_read t = Atomic.get t.bytes_read

let pending_mutations t = List.length t.pending

(* current-rendition dimensions: the geometry describes the page file,
   which lags behind committed logical mutations until checkpoint *)
let n_nodes t =
  match t.doc with Some d when t.pending <> [] -> Doc.n_nodes d | _ -> t.geo.n_nodes

let height t = match t.doc with Some d when t.pending <> [] -> Doc.height d | _ -> t.geo.height

(* read + checksum-verify one file page into [buf] (a fresh buffer by
   default); every byte is counted *)
let read_file_page ?buf t fpage =
  let page_ints = t.geo.page_ints in
  let st = stride ~page_ints in
  let b = match buf with Some b -> b | None -> Bytes.create st in
  let got = t.pages.Io.pread ~pos:(fpage * st) b 0 st in
  Atomic.fetch_and_add t.bytes_read got |> ignore;
  if got < st then
    raise (Corrupt (Printf.sprintf "short read on file page %d (%d of %d bytes)" fpage got st));
  check_page ~page_ints ~what:(Printf.sprintf "file page %d" fpage) b;
  b

(* decode a column page into ints; [len] trims the pool's last page *)
let ints_of_page b len = Array.init len (fun i -> get_int b (8 * i))

(* the Buffer_pool store: pool page p lives on file page p + 1.  A
   fault reads into the one spare buffer, taken and returned with an
   atomic exchange, so concurrent faults never share it (a fault that
   finds it taken reads into a fresh one) and a stream of faults does
   not allocate a page-sized buffer each. *)
let pool_store t =
  let g = t.geo in
  let length = pool_length g in
  let spare = Atomic.make None in
  Buffer_pool.Store.of_fn ~page_ints:g.page_ints ~length (fun p ->
      let b = read_file_page ?buf:(Atomic.exchange spare None) t (p + 1) in
      let len = min g.page_ints (length - (p * g.page_ints)) in
      let ints = ints_of_page b len in
      Atomic.set spare (Some b);
      ints)

(* Materialize the base (page-file) rendition: post extent + meta
   extent, read directly (checksum-verified) — deliberately not through
   the buffer pool, whose stats stay pure query traffic.  Caller holds
   the lock. *)
let materialize_base t =
  let g = t.geo in
  let post = Array.make g.n_nodes 0 in
  for p = 0 to g.post_pages - 1 do
    let b = read_file_page t (1 + p) in
    let len = min g.page_ints (g.n_nodes - (p * g.page_ints)) in
    for i = 0 to len - 1 do
      post.((p * g.page_ints) + i) <- get_int b (8 * i)
    done
  done;
  let blob = Bytes.create g.meta_bytes in
  let meta_base = 1 + pool_pages g in
  for p = 0 to g.meta_pages - 1 do
    let b = read_file_page t (meta_base + p) in
    let len = min (g.page_ints * 8) (g.meta_bytes - (p * g.page_ints * 8)) in
    Bytes.blit b 0 blob (p * g.page_ints * 8) len
  done;
  decode_meta ~n:g.n_nodes ~height:g.height ~post blob

let doc_locked t =
  match t.doc with
  | Some d -> d
  | None ->
    let d = materialize_base t in
    t.doc <- Some d;
    d

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let doc t = with_lock t (fun () -> doc_locked t)

(* read the serialized dataguide extent of the base rendition *)
let read_guide_blob t =
  let g = t.geo in
  let blob = Bytes.create g.guide_bytes in
  let guide_base = 1 + pool_pages g + g.meta_pages in
  for p = 0 to g.guide_pages - 1 do
    let b = read_file_page t (guide_base + p) in
    let len = min (g.page_ints * 8) (g.guide_bytes - (p * g.page_ints * 8)) in
    Bytes.blit b 0 blob (p * g.page_ints * 8) len
  done;
  blob

let guide_banner t reason =
  Printf.eprintf "[scj] store %s: %s -- rebuilt the dataguide in memory; the next checkpoint persists it\n%!"
    t.path reason

(* The store's dataguide.  Clean v3 store: deserialized straight from
   its extent (no document rescan).  Pre-guide (v1/v2) store, a guide
   extent that fails its page checksums or does not decode, or a base
   rendition lagging committed mutations: rebuilt from the current
   document — one banner line in the pre-guide/corrupt cases, and the
   next checkpoint writes the extent.  Once materialized, [apply]
   maintains the memo incrementally. *)
let guide_locked t =
  match t.guide_memo with
  | Some g -> g
  | None ->
    let d = doc_locked t in
    let g =
      if t.geo.guide_pages = 0 then begin
        guide_banner t "pre-guide store format";
        Guide.build d
      end
      else if t.pending <> [] then
        (* the extent describes the base rendition, not the pending one *)
        Guide.build d
      else
        let blob = try Ok (read_guide_blob t) with Corrupt msg -> Error msg in
        match Result.bind blob Guide.deserialize with
        | Ok g when Guide.doc_nodes g = Doc.n_nodes d -> g
        | Ok _ ->
          guide_banner t "guide extent disagrees with the document";
          Guide.build d
        | Error msg ->
          guide_banner t (Printf.sprintf "guide extent invalid (%s)" msg);
          Guide.build d
    in
    t.guide_memo <- Some g;
    g

let guide t = with_lock t (fun () -> guide_locked t)

let paged ?(stripes = 8) ?capacity t =
  with_lock t (fun () ->
      match t.paged with
      | Some p -> p
      | None ->
        let page_ints = t.geo.page_ints in
        let capacity =
          match capacity with
          | Some c -> c
          | None -> Paged_doc.default_capacity ~page_ints (n_nodes t)
        in
        let stripes = max 1 (min stripes (capacity / 3)) in
        let p =
          if t.pending = [] then
            (* clean store: serve queries straight off the page file *)
            Paged_doc.attach ~n:t.geo.n_nodes ~height:t.geo.height
              (Buffer_pool.create ~stripes ~capacity (pool_store t))
          else
            (* the page file lags the committed mutations: page an
               in-memory image of the current rendition instead of the
               stale extents *)
            Paged_doc.load ~page_ints ~stripes ~capacity (doc_locked t)
        in
        t.paged <- Some p;
        p)

let pool t = Paged_doc.pool (paged t)

let verify t =
  try
    for fpage = 0 to file_pages t.geo - 1 do
      ignore (read_file_page t fpage)
    done;
    Ok ()
  with Corrupt msg -> Error (Error.corrupt msg)

let close t =
  t.pages.Io.close ();
  t.walf.Io.close ()

(* ------------------------------------------------------------------ *)
(* Page-image transactions (creation and checkpoint)                   *)
(* ------------------------------------------------------------------ *)

let superblock_page g =
  (* no guide extent ⇒ the image is bit-identical to a version-2 store *)
  let ver = if g.guide_pages = 0 then 2 else version in
  let ints =
    [|
      magic_int;
      ver;
      g.page_ints;
      g.n_nodes;
      g.height;
      g.post_pages;
      g.prefix_pages;
      g.size_pages;
      g.meta_pages;
      g.meta_bytes;
      g.guide_pages;
      g.guide_bytes;
    |]
  in
  encode_page ~page_ints:g.page_ints ints 0 superblock_ints

(* iterate (file_page, encoded page) over one column's extent *)
let iter_column_pages g ~base column len f =
  let n_pages = pages_for ~page_ints:g.page_ints len in
  for p = 0 to n_pages - 1 do
    let off = p * g.page_ints in
    let page_len = min g.page_ints (len - off) in
    f (base + p) (encode_page ~page_ints:g.page_ints column off page_len)
  done

let iter_blob_pages g ~base ~pages ~bytes blob f =
  for p = 0 to pages - 1 do
    let off = p * g.page_ints * 8 in
    let len = min (g.page_ints * 8) (bytes - off) in
    f (base + p) (encode_meta_page ~page_ints:g.page_ints blob off len)
  done

let iter_meta_pages g ~base blob f =
  iter_blob_pages g ~base ~pages:g.meta_pages ~bytes:g.meta_bytes blob f

let iter_guide_pages g ~base blob f =
  iter_blob_pages g ~base ~pages:g.guide_pages ~bytes:g.guide_bytes blob f

(* every (file_page, bytes) of a complete store image, in file order,
   split into one iterator per extent (superblock last: applying it is
   the commit point of the image, and during recovery it rebases away
   any logical mutations logged before it) *)
let store_image_iters g doc meta gblob =
  let post_base = 1 in
  let prefix_base = post_base + g.post_pages in
  let size_base = prefix_base + g.prefix_pages in
  let meta_base = size_base + g.size_pages in
  let guide_base = meta_base + g.meta_pages in
  [
    (fun f -> iter_column_pages g ~base:post_base (Doc.post_array doc) g.n_nodes f);
    (fun f -> iter_column_pages g ~base:prefix_base (Doc.attr_prefix_array doc) (g.n_nodes + 1) f);
    (fun f -> iter_column_pages g ~base:size_base (Doc.size_array doc) g.n_nodes f);
    (fun f -> iter_meta_pages g ~base:meta_base meta f);
    (fun f -> iter_guide_pages g ~base:guide_base gblob f);
    (fun f -> f 0 (superblock_page g));
  ]

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* Commit one structural update: validate it against the current
   rendition, log it as a single-record WAL transaction (the commit
   fsync is the durability barrier), then install the new rendition in
   the memo.  The page file is untouched — the mutation lives in the
   log until the next checkpoint. *)
let apply t op =
  with_lock t (fun () ->
      let base = doc_locked t in
      match Update.apply base op with
      | Error e -> Error e
      | Ok applied ->
        let txid = t.next_txid in
        t.next_txid <- txid + 1;
        Wal.begin_ t.wal ~txid;
        Wal.mutation t.wal ~txid (Bytes.of_string (Update.encode op));
        Wal.commit t.wal ~txid;
        (* splice the materialized path summary alongside the document,
           so Store.guide never pays a rescan after writes *)
        (match t.guide_memo with
        | None -> ()
        | Some g ->
          t.guide_memo <-
            Some
              (Guide.update g ~old_doc:base ~doc:applied.Update.doc
                 ~splice:applied.Update.splice ~delta:applied.Update.delta));
        t.doc <- Some applied.Update.doc;
        t.pending <- t.pending @ [ op ];
        (* readers holding the previous paged rendition keep it; the
           memo now points at nothing until someone asks again *)
        t.paged <- None;
        Ok applied)

(* Checkpoint.  Clean store: fsync + reset the log.  With pending
   mutations: write the complete current rendition as ONE WAL
   transaction (extents + superblock, one commit fsync), apply it to
   the page file, fsync, then truncate the log.  Crash-safe in every
   window: before the commit record is durable, recovery still has the
   old extents + the logical mutations; after it, recovery replays the
   images and the applied superblock rebases the mutations away. *)
let checkpoint t =
  with_lock t (fun () ->
      (* a clean pre-guide store still rewrites once, to gain its guide
         extent (the format upgrade promised by the open-time banner) *)
      if t.pending = [] && t.geo.guide_pages > 0 then begin
        t.pages.Io.fsync ();
        Wal.truncate t.wal
      end
      else begin
        let d = doc_locked t in
        let meta = encode_meta d in
        let gblob = Guide.serialize (guide_locked t) in
        let g =
          geometry ~page_ints:t.geo.page_ints ~n_nodes:(Doc.n_nodes d) ~height:(Doc.height d)
            ~meta_bytes:(Bytes.length meta) ~guide_bytes:(Bytes.length gblob)
        in
        let iters = store_image_iters g d meta gblob in
        let txid = t.next_txid in
        t.next_txid <- txid + 1;
        Wal.begin_ t.wal ~txid;
        List.iter (fun iter -> iter (fun fpage img -> Wal.page_image t.wal ~txid ~page:fpage img)) iters;
        Wal.commit t.wal ~txid;
        let st = stride ~page_ints:g.page_ints in
        List.iter
          (fun iter -> iter (fun fpage img -> t.pages.Io.pwrite ~pos:(fpage * st) img 0 st))
          iters;
        t.pages.Io.truncate (file_pages g * st);
        t.pages.Io.fsync ();
        Wal.truncate t.wal;
        t.geo <- g;
        t.pending <- [];
        (* the file-backed pool (if any) addressed the old extents *)
        t.paged <- None
      end)

(* ------------------------------------------------------------------ *)
(* Creation and opening                                                *)
(* ------------------------------------------------------------------ *)

let open_files io ~path ~create =
  if create then io.Io.mkdir path;
  let pages = io.Io.openf ~path:(Filename.concat path pages_file) ~rw:true ~create in
  let wal = io.Io.openf ~path:(Filename.concat path wal_file) ~rw:true ~create in
  (pages, wal)

let make_handle io ~path ~pages ~walf ~wal ~geo ~recovery =
  {
    io;
    path;
    pages;
    walf;
    wal;
    geo;
    last_recovery = recovery;
    bytes_read = Atomic.make 0;
    lock = Mutex.create ();
    doc = None;
    paged = None;
    guide_memo = None;
    pending = [];
    next_txid = 100 + recovery.Wal.committed;
  }

(* Parse and sanity-check the superblock.  Incomplete means "creation
   never committed" (a clean state, not damage); Corrupt means the
   store lies. *)
let read_superblock t =
  let st_size = t.pages.Io.size () in
  (* peek page_ints before we know the stride *)
  let peek = Bytes.create 24 in
  let got = t.pages.Io.pread ~pos:0 peek 0 24 in
  Atomic.fetch_and_add t.bytes_read got |> ignore;
  if got < 24 then Error (Error.incomplete "no superblock (creation never committed)")
  else begin
    let magic = get_int peek 0 and ver = get_int peek 8 and page_ints = get_int peek 16 in
    if magic <> magic_int then Error (Error.incomplete "bad superblock magic (incomplete or foreign)")
    else if not (supported_version ver) then
      Error (Error.validation (Printf.sprintf "unsupported store format version %d" ver))
    else if page_ints < min_page_ints || page_ints > max_page_ints then
      Error (Error.corrupt (Printf.sprintf "corrupt superblock: implausible page_ints %d" page_ints))
    else if st_size < stride ~page_ints then
      Error (Error.incomplete "superblock page torn (creation never committed)")
    else begin
      match read_file_page { t with geo = { t.geo with page_ints } } 0 with
      | exception Corrupt msg -> Error (Error.corrupt msg)
      | b ->
        let f i = get_int b (8 * i) in
        (* pre-guide formats (v1/v2) carry no guide ints; the zero-pad
           reads back as an absent extent either way *)
        let g =
          {
            page_ints;
            n_nodes = f 3;
            height = f 4;
            post_pages = f 5;
            prefix_pages = f 6;
            size_pages = f 7;
            meta_pages = f 8;
            meta_bytes = f 9;
            guide_pages = (if ver >= 3 then f 10 else 0);
            guide_bytes = (if ver >= 3 then f 11 else 0);
          }
        in
        let expect =
          geometry ~page_ints ~n_nodes:g.n_nodes ~height:g.height ~meta_bytes:g.meta_bytes
            ~guide_bytes:g.guide_bytes
        in
        if g.n_nodes <= 0 || g.height < 0 || g.meta_bytes < 0 || g.guide_bytes < 0 then
          Error (Error.corrupt "corrupt superblock: implausible document dimensions")
        else if g <> expect then Error (Error.corrupt "corrupt superblock: extent geometry inconsistent")
        else if t.pages.Io.size () < file_pages g * stride ~page_ints then
          Error (Error.incomplete "page file shorter than its extents")
        else Ok g
    end
  end

let open_ ?(io = Io.real) path =
  if not (io.Io.exists path) then Error (Error.io (Printf.sprintf "no store at %s" path))
  else if not (io.Io.exists (Filename.concat path pages_file)) then
    Error (Error.io (Printf.sprintf "no store at %s: missing %s" path pages_file))
  else begin
    let pages, walf = open_files io ~path ~create:false in
    let wal = Wal.attach walf in
    let cleanup () =
      pages.Io.close ();
      walf.Io.close ()
    in
    (* Redo pass first: a committed creation/checkpoint whose page
       writes never landed is completed here.  Every logged image is a
       full page (stride bytes), so its file offset is page * image
       length.  Committed logical mutations are collected for replay
       on top of the base document — unless a later committed
       superblock image (a completed checkpoint) rebases them away. *)
    let mutations = ref [] in
    match
      Wal.recover wal
        ~apply:(fun ~page img ->
          pages.Io.pwrite ~pos:(page * Bytes.length img) img 0 (Bytes.length img);
          if page = 0 then mutations := [])
        ~apply_mutation:(fun payload -> mutations := Bytes.to_string payload :: !mutations)
    with
    | exception e ->
      cleanup ();
      Error (Error.recovery (Printf.sprintf "WAL recovery failed: %s" (Printexc.to_string e)))
    | recovery ->
      if recovery.Wal.replayed_pages > 0 then pages.Io.fsync ();
      let pending_payloads = List.rev !mutations in
      (* a log with pending mutations must survive the next crash; a
         clean one resets to its bare header *)
      if pending_payloads = [] then Wal.truncate wal
      else Wal.trim wal ~pos:recovery.Wal.committed_end;
      let t =
        make_handle io ~path ~pages ~walf ~wal
          ~geo:(geometry ~page_ints:min_page_ints ~n_nodes:1 ~height:0 ~meta_bytes:0 ~guide_bytes:0)
          ~recovery
      in
      (match read_superblock t with
      | Error e ->
        cleanup ();
        Error e
      | Ok geo ->
        t.geo <- geo;
        if pending_payloads = [] then Ok t
        else begin
          (* replay the logical mutations on the base rendition *)
          match
            List.fold_left
              (fun acc payload ->
                match acc with
                | Error _ as e -> e
                | Ok (d, ops) -> (
                  match Update.decode payload with
                  | Error e ->
                    Error (Error.recovery (Printf.sprintf "undecodable mutation record: %s" e))
                  | Ok op -> (
                    match Update.apply d op with
                    | Error e ->
                      Error
                        (Error.recovery
                           (Printf.sprintf "logged mutation no longer applies (%s): %s"
                              (Update.op_to_string op) (Error.to_string e)))
                    | Ok applied -> Ok (applied.Update.doc, op :: ops))))
              (match materialize_base t with
              | d -> Ok (d, [])
              | exception Corrupt msg -> Error (Error.corrupt msg))
              pending_payloads
          with
          | Error e ->
            cleanup ();
            Error e
          | Ok (d, rev_ops) ->
            t.doc <- Some d;
            t.pending <- List.rev rev_ops;
            Ok t
        end)
  end

let create ?(io = Io.real) ?(page_ints = 1024) ?(guide = true) ~path doc =
  if page_ints < min_page_ints || page_ints > max_page_ints then
    invalid_arg
      (Printf.sprintf "Store.create: page_ints must be in [%d, %d]" min_page_ints max_page_ints);
  (match Doc.validate doc with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Store.create: document invalid: %s" e));
  let meta = encode_meta doc in
  (* ~guide:false writes a bona-fide version-2 (pre-guide) store — the
     compatibility fixture the tests open to exercise the lazy-rebuild
     path *)
  let gblob = if guide then Guide.serialize (Guide.build doc) else Bytes.empty in
  let g =
    geometry ~page_ints ~n_nodes:(Doc.n_nodes doc) ~height:(Doc.height doc)
      ~meta_bytes:(Bytes.length meta) ~guide_bytes:(Bytes.length gblob)
  in
  let pages, walf = open_files io ~path ~create:true in
  let wal = Wal.attach walf in
  Fun.protect
    ~finally:(fun () ->
      pages.Io.close ();
      walf.Io.close ())
    (fun () ->
      (* clean slate: a retried creation after a crash starts over *)
      pages.Io.truncate 0;
      Wal.truncate wal;
      (* one transaction per extent; each commit is an fsync barrier.
         The superblock goes last: it commits creation — until it is
         durable, open_ refuses the store as incomplete. *)
      let txns = List.mapi (fun i iter -> (i + 1, iter)) (store_image_iters g doc meta gblob) in
      (* 1. log everything *)
      List.iter
        (fun (txid, iter) ->
          Wal.begin_ wal ~txid;
          iter (fun fpage img -> Wal.page_image wal ~txid ~page:fpage img);
          Wal.commit wal ~txid)
        txns;
      (* 2. apply to the page file — safe in any order now: the whole log
         is durable, so a crash here replays it *)
      let st = stride ~page_ints in
      List.iter (fun (_, iter) -> iter (fun fpage img -> pages.Io.pwrite ~pos:(fpage * st) img 0 st)) txns;
      pages.Io.fsync ();
      (* 3. checkpoint: the log has done its job *)
      Wal.truncate wal);
  match open_ ~io path with
  | Ok t -> t
  | Error e ->
    raise (Corrupt (Printf.sprintf "store just created failed to open: %s" (Error.to_string e)))
