module Doc = Scj_encoding.Doc
module Error = Scj_error.Error
module Buffer_pool = Scj_pager.Buffer_pool
module Paged_doc = Scj_pager.Paged_doc
module Store = Scj_store.Store

type entry = {
  eid : string;
  edb : Db.t;
  base_page : int;
  mutable epaged : Paged_doc.t option;  (* set once during construction *)
}

type t = {
  pool : Buffer_pool.t;
  entries : entry array;  (* sorted by id: document order across the corpus *)
}

(* A document's slice of the shared address space: the store's real page
   file when the geometry matches (zero re-encoding, faults are
   checksum-verified preads), an in-memory page image otherwise
   (page_ints mismatch, pending mutations, or no store at all). *)
let component_store ~page_ints ?fault_latency db =
  match Db.store db with
  | Some s when Store.page_ints s = page_ints && Store.pending_mutations s = 0 ->
    Store.pool_store s
  | Some _ | None -> Paged_doc.image_store ~page_ints ?fault_latency (Db.doc db)

let default_capacity total_pages = max 24 (total_pages / 10)

let of_dbs ?(policy = Buffer_pool.Lru) ?(page_ints = 1024) ?(stripes = 1) ?capacity
    ?fault_latency dbs =
  if dbs = [] then invalid_arg "Catalog.of_dbs: need at least one document";
  let dbs = List.sort (fun (a, _) (b, _) -> String.compare a b) dbs in
  let rec check_dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then
        invalid_arg (Printf.sprintf "Catalog.of_dbs: duplicate document id %S" a);
      check_dup rest
    | _ -> ()
  in
  check_dup dbs;
  let parts = List.map (fun (_, db) -> component_store ~page_ints ?fault_latency db) dbs in
  let combined, bases = Buffer_pool.Store.concat parts in
  let capacity =
    match capacity with
    | Some c -> c
    | None -> default_capacity (Buffer_pool.Store.n_pages combined)
  in
  (* the shared pool must hold one query's working set per stripe *)
  let stripes = max 1 (min stripes (capacity / 3)) in
  let pool = Buffer_pool.create ~policy ~stripes ~capacity combined in
  let entries =
    List.map2
      (fun (id, db) base_page ->
        let doc = Db.doc db in
        let paged =
          Paged_doc.attach ~base_page ~n:(Doc.n_nodes doc) ~height:(Doc.height doc) pool
        in
        Db.attach_paged db paged;
        { eid = id; edb = db; base_page; epaged = Some paged })
      dbs bases
  in
  { pool; entries = Array.of_list entries }

let of_docs ?policy ?page_ints ?stripes ?capacity ?fault_latency ?strategy docs =
  of_dbs ?policy ?page_ints ?stripes ?capacity ?fault_latency
    (List.map (fun (id, doc) -> (id, Db.of_doc ?strategy doc)) docs)

(* A directory entry is a document when it is a store directory (id =
   the directory name) or an [.xml]/[.scj] file (id = the basename
   without its extension). *)
let id_of_name path name =
  let full = Filename.concat path name in
  if Sys.is_directory full then if Db.is_store_dir full then Some (name, full) else None
  else if Filename.check_suffix name ".xml" then
    Some (Filename.chop_suffix name ".xml", full)
  else if Filename.check_suffix name ".scj" then
    Some (Filename.chop_suffix name ".scj", full)
  else None

let open_dir ?policy ?page_ints ?stripes ?capacity ?fault_latency ?strategy dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Error.io (Printf.sprintf "no such document directory: %s" dir))
  else begin
    let names = Sys.readdir dir in
    Array.sort String.compare names;
    let members = List.filter_map (id_of_name dir) (Array.to_list names) in
    if members = [] then
      Error (Error.io (Printf.sprintf "%s: no documents (store dirs, .xml or .scj files)" dir))
    else begin
      let rec open_all acc = function
        | [] -> Ok (List.rev acc)
        | (id, path) :: rest -> (
          match Db.open_ ?strategy path with
          | Ok db -> open_all ((id, db) :: acc) rest
          | Error e ->
            List.iter (fun (_, db) -> Db.close db) acc;
            Error (Error.io (Printf.sprintf "%s: %s" id (Error.to_string e))))
      in
      match open_all [] members with
      | Error _ as e -> e
      | Ok dbs -> (
        match of_dbs ?policy ?page_ints ?stripes ?capacity ?fault_latency dbs with
        | catalog -> Ok catalog
        | exception Invalid_argument msg ->
          List.iter (fun (_, db) -> Db.close db) dbs;
          Error (Error.io msg))
    end
  end

let pool t = t.pool

let n_docs t = Array.length t.entries

let ids t = Array.to_list (Array.map (fun e -> e.eid) t.entries)

let find t id =
  let n = Array.length t.entries in
  let rec go lo hi =
    if lo >= hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let e = t.entries.(mid) in
      let c = String.compare id e.eid in
      if c = 0 then Some e else if c < 0 then go lo mid else go (mid + 1) hi
    end
  in
  go 0 n

let db t id = Option.map (fun e -> e.edb) (find t id)

let paged t id = Option.bind (find t id) (fun e -> e.epaged)

let base_page t id = Option.map (fun e -> e.base_page) (find t id)

let to_list t = Array.to_list (Array.map (fun e -> (e.eid, e.edb)) t.entries)

let close t = Array.iter (fun e -> Db.close e.edb) t.entries
