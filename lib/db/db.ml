module Doc = Scj_encoding.Doc
module Codec = Scj_encoding.Codec
module Update = Scj_encoding.Update
module Nodeseq = Scj_encoding.Nodeseq
module Error = Scj_error.Error
module Paged_doc = Scj_pager.Paged_doc
module Store = Scj_store.Store
module Eval = Scj_xpath.Eval
module Guide = Scj_guide.Guide

type backing = Memory | File of string | Stored of Store.t

type t = {
  strategy : Eval.strategy option;
  backing : backing;
  lock : Mutex.t;  (* guards the memos *)
  mutable doc : Doc.t;
  mutable paged : Paged_doc.t option;
  mutable session : Eval.session option;
  mutable guide : Guide.t option;  (* non-store backings only; stores keep their own memo *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let make ?strategy backing doc =
  { strategy; backing; lock = Mutex.create (); doc; paged = None; session = None;
    guide = None }

let of_doc ?strategy doc = make ?strategy Memory doc

let of_store ?strategy store =
  match Store.doc store with
  | doc -> Ok (make ?strategy (Stored store) doc)
  | exception Store.Corrupt msg -> Error (Error.corrupt msg)

let is_store_dir path =
  Sys.file_exists path && Sys.is_directory path
  && Sys.file_exists (Filename.concat path Store.pages_file)

let open_ ?strategy path =
  if not (Sys.file_exists path) then Error (Error.io (Printf.sprintf "no such document: %s" path))
  else if Sys.is_directory path then
    if Sys.file_exists (Filename.concat path Store.pages_file) then
      Result.bind (Store.open_ path) (of_store ?strategy)
    else Error (Error.io (Printf.sprintf "%s is a directory but not a store (no %s)" path Store.pages_file))
  else begin
    let probe =
      In_channel.with_open_bin path (fun ic ->
          really_input_string ic (min (String.length Codec.magic) (In_channel.length ic |> Int64.to_int)))
    in
    if String.equal probe Codec.magic then
      match Codec.read_file path with
      | Ok doc -> Ok (make ?strategy (File path) doc)
      | Error e -> Error (Error.corrupt e)
    else begin
      let content = In_channel.with_open_bin path In_channel.input_all in
      match Doc.of_string content with
      | Ok doc -> Ok (make ?strategy (File path) doc)
      | Error e -> Error (Error.parse e)
    end
  end

let doc t = with_lock t (fun () -> t.doc)

let store t = match t.backing with Stored s -> Some s | Memory | File _ -> None

let strategy t = t.strategy

(* Store-backed handles read the persisted guide extent (or its
   rebuilt-in-memory stand-in); others build once over the current
   rendition and maintain the memo across [apply]. *)
let guide_locked t =
  match t.backing with
  | Stored s -> Store.guide s
  | Memory | File _ ->
    (match t.guide with
     | Some g -> g
     | None ->
       let g = Guide.build t.doc in
       t.guide <- Some g;
       g)

let guide t = with_lock t (fun () -> guide_locked t)

let describe t =
  match t.backing with
  | Stored _ -> "durable store, zero re-encoding"
  | File path -> Printf.sprintf "encoded from %s" (Filename.basename path)
  | Memory -> "in-memory document"

let paged ?page_ints ?stripes ?capacity t =
  with_lock t (fun () ->
      match t.paged with
      | Some p -> p
      | None ->
        let p =
          match t.backing with
          | Stored s -> Store.paged ?stripes ?capacity s
          | Memory | File _ ->
            let page_ints = Option.value page_ints ~default:1024 in
            let capacity =
              match capacity with
              | Some c -> c
              | None -> Paged_doc.default_capacity ~page_ints (Doc.n_nodes t.doc)
            in
            Paged_doc.load ~page_ints ?stripes ~capacity t.doc
        in
        t.paged <- Some p;
        p)

let attach_paged t p = with_lock t (fun () -> t.paged <- Some p)

(* The session is built over the paged rendition only when one is
   already materialized: asking a question must not silently build a
   buffer pool. *)
let session t =
  with_lock t (fun () ->
      match t.session with
      | Some s -> s
      | None ->
        (* seed the planner with the backing's guide so a store open
           never rescans the document for path statistics *)
        let s = Eval.session ?strategy:t.strategy ?paged:t.paged ~guide:(guide_locked t) t.doc in
        t.session <- Some s;
        s)

let query ?exec ?context t src = Eval.run ?exec ?context (session t) src

let apply t op =
  with_lock t (fun () ->
      let result =
        match t.backing with
        | Stored s -> Store.apply s op
        | Memory | File _ -> Update.apply t.doc op
      in
      match result with
      | Error _ as e -> e
      | Ok applied ->
        let old_doc = t.doc in
        t.doc <- applied.Update.doc;
        t.guide <-
          Option.map
            (fun g ->
              Guide.update g ~old_doc ~doc:applied.Update.doc ~splice:applied.Update.splice
                ~delta:applied.Update.delta)
            t.guide;
        (* the paged memo belongs to the retired rendition; the session
           evolves incrementally (guide spliced, statistics dropped and
           refolded on first use, index spliced) *)
        t.paged <- None;
        t.session <- Option.map (fun s -> Eval.evolve s applied) t.session;
        Ok applied)

let pending_mutations t =
  match t.backing with Stored s -> Store.pending_mutations s | Memory | File _ -> 0

let checkpoint t = match t.backing with Stored s -> Store.checkpoint s | Memory | File _ -> ()

let close t = match t.backing with Stored s -> Store.close s | Memory | File _ -> ()
