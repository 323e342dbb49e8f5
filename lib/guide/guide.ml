module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Int_col = Scj_bat.Int_col

(* ------------------------------------------------------------------ *)
(* Representation                                                      *)
(*                                                                     *)
(* Summary nodes live in a growable array; the tree structure is the   *)
(* per-node distinct-child map plus a top-level map for root paths     *)
(* (one live entry — the document root element — but renames can       *)
(* leave retired siblings behind).  A node whose member column is      *)
(* empty is retired: maintenance never deletes nodes (children of a    *)
(* pruned subtree could come back on the next splice), the query/dump  *)
(* API simply skips them, and serialization drops them — so a freshly  *)
(* deserialized or rebuilt guide is the canonical compact form.        *)
(* ------------------------------------------------------------------ *)

type node = {
  parent : int;  (* summary-parent id, -1 for a root path *)
  kind : Doc.kind;
  name : string;  (* "" for unnamed kinds (text, comment) *)
  members : Int_col.t;  (* pre ranks on this path, strictly increasing *)
  children : (Doc.kind * string, int) Hashtbl.t;
}

type t = {
  mutable nodes : node array;  (* first [n_summary] entries are live *)
  mutable n_summary : int;
  roots : (Doc.kind * string, int) Hashtbl.t;
  mutable doc_nodes : int;
}

let doc_nodes t = t.doc_nodes

let node t g = t.nodes.(g)

let n_summary t = t.n_summary

let parent t g = (node t g).parent

let kind t g = (node t g).kind

let name t g = (node t g).name

let count t g = Int_col.length (node t g).members

let populated t g = count t g > 0

let n_paths t =
  let n = ref 0 in
  for g = 0 to t.n_summary - 1 do
    if populated t g then incr n
  done;
  !n

let label nd =
  match nd.kind with
  | Doc.Element -> nd.name
  | Doc.Attribute -> "@" ^ nd.name
  | Doc.Text -> "#text"
  | Doc.Comment -> "#comment"
  | Doc.Pi -> "?" ^ nd.name

let path t g =
  let rec up g acc = if g < 0 then acc else up (node t g).parent (label (node t g) :: acc) in
  "/" ^ String.concat "/" (up g [])

(* ------------------------------------------------------------------ *)
(* Construction and splice maintenance                                 *)
(* ------------------------------------------------------------------ *)

let empty () = { nodes = [||]; n_summary = 0; roots = Hashtbl.create 4; doc_nodes = 0 }

let push_node t nd =
  let cap = Array.length t.nodes in
  if t.n_summary = cap then begin
    let bigger = Array.make (max 8 (2 * cap)) nd in
    Array.blit t.nodes 0 bigger 0 t.n_summary;
    t.nodes <- bigger
  end;
  t.nodes.(t.n_summary) <- nd;
  t.n_summary <- t.n_summary + 1;
  t.n_summary - 1

let child_table t gp = if gp < 0 then t.roots else (node t gp).children

let find_or_add t gp ((kind, name) as key) =
  let table = child_table t gp in
  match Hashtbl.find_opt table key with
  | Some g -> g
  | None ->
    let g =
      push_node t
        { parent = gp; kind; name; members = Int_col.create ~capacity:4 (); children = Hashtbl.create 2 }
    in
    Hashtbl.add table key g;
    g

let key_of doc v =
  (Doc.kind doc v, match Doc.tag_name doc v with Some s -> s | None -> "")

(* Replay rows [splice .. n-1] of [doc] into [t]: parents precede their
   children in preorder, so a row's summary parent is either already
   replayed (parent >= splice) or an untouched prefix row resolved by
   walking its ancestor chain through the child maps (memoized — the
   chain is shared by every row of the spliced tail). *)
let replay_tail t doc ~splice =
  let n = Doc.n_nodes doc in
  let parents = Doc.parent_array doc in
  let gid_new = Array.make (max 1 (n - splice)) (-1) in
  let cache = Hashtbl.create 16 in
  let rec resolve p =
    match Hashtbl.find_opt cache p with
    | Some g -> g
    | None ->
      let gp = if parents.(p) < 0 then -1 else resolve parents.(p) in
      let g = find_or_add t gp (key_of doc p) in
      Hashtbl.add cache p g;
      g
  in
  for v = splice to n - 1 do
    let p = parents.(v) in
    let gp = if p < 0 then -1 else if p >= splice then gid_new.(p - splice) else resolve p in
    let g = find_or_add t gp (key_of doc v) in
    Int_col.append_unit (node t g).members v;
    gid_new.(v - splice) <- g
  done;
  t.doc_nodes <- n

let build doc =
  let t = empty () in
  replay_tail t doc ~splice:0;
  t

let update t ~old_doc:_ ~doc ~splice ~delta:_ =
  let clone nd =
    let cut = Int_col.first_ge nd.members splice in
    { nd with members = Int_col.sub nd.members ~pos:0 ~len:cut; children = Hashtbl.copy nd.children }
  in
  let u =
    {
      nodes = Array.init t.n_summary (fun g -> clone t.nodes.(g));
      n_summary = t.n_summary;
      roots = Hashtbl.copy t.roots;
      doc_nodes = 0;
    }
  in
  replay_tail u doc ~splice;
  u

(* ------------------------------------------------------------------ *)
(* Cursors                                                             *)
(* ------------------------------------------------------------------ *)

type cursor = int list (* sorted, populated summary ids *)

let is_empty c = c = []

let cursor_size = List.length

let norm c = List.sort_uniq Int.compare c

let cursor_union a b = norm (a @ b)

let root_cursor t =
  norm (Hashtbl.fold (fun _ g acc -> if populated t g then g :: acc else acc) t.roots [])

let matches t g ~kind ~name =
  let nd = node t g in
  nd.kind = kind && String.equal nd.name name && populated t g

let self_step t cur ~kind ~name = List.filter (fun g -> matches t g ~kind ~name) cur

let child_step t cur ~kind ~name =
  norm
    (List.concat_map
       (fun g ->
         match Hashtbl.find_opt (node t g).children (kind, name) with
         | Some c when populated t c -> [ c ]
         | Some _ | None -> [])
       cur)

(* The sweep keeps its own stack: a summary is as deep as the document,
   and a recursive walk would grow the call stack with it. *)
let descendant_step t ?(or_self = false) cur ~name =
  let seen = Bytes.make t.n_summary '\000' in
  let hits = ref [] in
  let todo = Stack.create () in
  let push_children g = Hashtbl.iter (fun _ c -> Stack.push c todo) (node t g).children in
  List.iter push_children cur;
  while not (Stack.is_empty todo) do
    let g = Stack.pop todo in
    if Bytes.get seen g = '\000' then begin
      Bytes.set seen g '\001';
      if matches t g ~kind:Doc.Element ~name then hits := g :: !hits;
      push_children g
    end
  done;
  if or_self then List.iter (fun g -> if matches t g ~kind:Doc.Element ~name then hits := g :: !hits) cur;
  norm !hits

(* A climb stops at the first summary node already climbed through: its
   ancestors were climbed through then, so the walk is linear in the
   summary however many cursor nodes share one root path. *)
let ancestor_step t ?(or_self = false) cur ~name =
  let seen = Bytes.make t.n_summary '\000' in
  let hits = ref [] in
  let rec up g =
    if g >= 0 && Bytes.get seen g = '\000' then begin
      Bytes.set seen g '\001';
      if matches t g ~kind:Doc.Element ~name then hits := g :: !hits;
      up (node t g).parent
    end
  in
  List.iter (fun g -> up (if or_self then g else (node t g).parent)) cur;
  norm !hits

let card t cur = List.fold_left (fun acc g -> acc + count t g) 0 cur

let cursor_ids cur = cur

(* Member columns of distinct summary nodes are sorted and disjoint: one
   path's partition is a copy of its column, k paths merge through a
   binary min-heap of column indices keyed by each column's next member,
   in O(members × log k) with one output array.  Retired (empty) columns
   are left out, so every heap entry has a next member. *)
let members t ids =
  match List.filter (populated t) ids with
  | [] -> Nodeseq.empty
  | [ g ] -> Nodeseq.of_sorted_array (Int_col.to_array (node t g).members)
  | ids ->
    let cols = Array.of_list (List.map (fun g -> (node t g).members) ids) in
    let k = Array.length cols in
    let next = Array.make k 0 in
    let key c = Int_col.unsafe_get cols.(c) next.(c) in
    let heap = Array.init k Fun.id in
    let sift_down size i =
      let i = ref i and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let c = if l + 1 < size && key heap.(l + 1) < key heap.(l) then l + 1 else l in
        if l < size && key heap.(c) < key heap.(!i) then begin
          let tmp = heap.(c) in
          heap.(c) <- heap.(!i);
          heap.(!i) <- tmp;
          i := c
        end
        else sifting := false
      done
    in
    for i = (k / 2) - 1 downto 0 do
      sift_down k i
    done;
    let total = Array.fold_left (fun acc c -> acc + Int_col.length c) 0 cols in
    let out = Array.make total 0 in
    let size = ref k in
    for o = 0 to total - 1 do
      let c = heap.(0) in
      out.(o) <- key c;
      next.(c) <- next.(c) + 1;
      if next.(c) = Int_col.length cols.(c) then begin
        decr size;
        heap.(0) <- heap.(!size)
      end;
      sift_down !size 0
    done;
    Nodeseq.of_sorted_array out

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

type info = {
  path : string;
  depth : int;
  kind : Doc.kind;
  label : string;
  count : int;
  attrs : int;
  min_pre : int;
  max_pre : int;
  n_children : int;
}

let sorted_children t g =
  let table = child_table t g in
  let kids = Hashtbl.fold (fun _ c acc -> if populated t c then c :: acc else acc) table [] in
  List.sort (fun a b -> compare (label (node t a)) (label (node t b))) kids

let attrs_of t g =
  Hashtbl.fold
    (fun (kind, _) c acc -> if kind = Doc.Attribute then acc + count t c else acc)
    (node t g).children 0

let info_of t ~depth g =
  let nd = node t g in
  let m = nd.members in
  {
    path = path t g;
    depth;
    kind = nd.kind;
    label = label nd;
    count = Int_col.length m;
    attrs = attrs_of t g;
    min_pre = Int_col.get m 0;
    max_pre = Int_col.last m;
    n_children = List.length (sorted_children t g);
  }

let infos t =
  let out = ref [] in
  let rec walk depth g =
    out := info_of t ~depth g :: !out;
    List.iter (walk (depth + 1)) (sorted_children t g)
  in
  List.iter (walk 0) (sorted_children t (-1));
  List.rev !out

let pp ppf t =
  List.iter
    (fun i ->
      Format.fprintf ppf "%s%s  count=%d attrs=%d pre=%d..%d@."
        (String.make (2 * i.depth) ' ')
        i.label i.count i.attrs i.min_pre i.max_pre)
    (infos t)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 1024 in
  let rec emit g =
    let nd = node t g in
    let m = nd.members in
    Buffer.add_string buf
      (Printf.sprintf "{\"label\":\"%s\",\"kind\":\"%s\",\"count\":%d,\"attrs\":%d,\"min_pre\":%d,\"max_pre\":%d,\"children\":["
         (json_escape (label nd))
         (Doc.kind_to_string nd.kind)
         (Int_col.length m) (attrs_of t g) (Int_col.get m 0) (Int_col.last m));
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char buf ',';
        emit c)
      (sorted_children t g);
    Buffer.add_string buf "]}"
  in
  Buffer.add_string buf (Printf.sprintf "{\"doc_nodes\":%d,\"paths\":%d,\"tree\":[" t.doc_nodes (n_paths t));
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_char buf ',';
      emit g)
    (sorted_children t (-1));
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(*                                                                     *)
(* Flat preorder over the populated tree: per node its parent's index  *)
(* in the emitted sequence, kind code, name, and member ranks.  The    *)
(* store wraps the blob in CRC-trailed pages; decode revalidates the   *)
(* structural invariants so a corrupt extent surfaces as Error, never  *)
(* as a quietly wrong guide.                                           *)
(* ------------------------------------------------------------------ *)

(* "SCJGUIDE" little-endian *)
let magic_int = Int64.to_int (Bytes.get_int64_le (Bytes.of_string "SCJGUIDE") 0)

let format_version = 1

let kind_code = function
  | Doc.Element -> 0
  | Doc.Attribute -> 1
  | Doc.Text -> 2
  | Doc.Comment -> 3
  | Doc.Pi -> 4

let kind_of_code = function
  | 0 -> Ok Doc.Element
  | 1 -> Ok Doc.Attribute
  | 2 -> Ok Doc.Text
  | 3 -> Ok Doc.Comment
  | 4 -> Ok Doc.Pi
  | c -> Error (Printf.sprintf "corrupt kind code %d" c)

let buf_int buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int v);
  Buffer.add_bytes buf b

let buf_string buf s =
  buf_int buf (String.length s);
  Buffer.add_string buf s

let serialize t =
  let buf = Buffer.create 4096 in
  buf_int buf magic_int;
  buf_int buf format_version;
  buf_int buf t.doc_nodes;
  let order = ref [] and n_emitted = ref 0 in
  let seq = Hashtbl.create 64 in
  let rec number g =
    Hashtbl.add seq g !n_emitted;
    incr n_emitted;
    order := g :: !order;
    List.iter number (sorted_children t g)
  in
  List.iter number (sorted_children t (-1));
  buf_int buf !n_emitted;
  List.iter
    (fun g ->
      let nd = node t g in
      let parent_seq = if nd.parent < 0 then -1 else Hashtbl.find seq nd.parent in
      buf_int buf parent_seq;
      buf_int buf (kind_code nd.kind);
      buf_string buf nd.name;
      buf_int buf (Int_col.length nd.members);
      Int_col.iter (buf_int buf) nd.members)
    (List.rev !order);
  Buffer.to_bytes buf

exception Bad of string

let deserialize blob =
  let pos = ref 0 in
  let rd_int () =
    if !pos + 8 > Bytes.length blob then raise (Bad "guide blob truncated");
    let v = Int64.to_int (Bytes.get_int64_le blob !pos) in
    pos := !pos + 8;
    v
  in
  let rd_string () =
    let len = rd_int () in
    if len < 0 || len > Bytes.length blob - !pos then
      raise (Bad "corrupt string length in guide blob");
    let s = Bytes.sub_string blob !pos len in
    pos := !pos + len;
    s
  in
  try
    if rd_int () <> magic_int then raise (Bad "bad guide blob magic");
    let ver = rd_int () in
    if ver <> format_version then raise (Bad (Printf.sprintf "unsupported guide format version %d" ver));
    let doc_nodes = rd_int () in
    let n = rd_int () in
    if doc_nodes < 0 || n < 0 || n > max 1 doc_nodes then
      raise (Bad "implausible guide dimensions");
    let t = empty () in
    let summed = ref 0 in
    for i = 0 to n - 1 do
      let parent = rd_int () in
      if parent < -1 || parent >= i then raise (Bad "guide parent out of preorder");
      let kind = match kind_of_code (rd_int ()) with Ok k -> k | Error e -> raise (Bad e) in
      let name = rd_string () in
      let n_members = rd_int () in
      if n_members <= 0 then raise (Bad "empty summary node in guide blob");
      if n_members > (Bytes.length blob - !pos) / 8 then
        raise (Bad "guide member count exceeds the blob");
      let members = Int_col.create ~capacity:n_members () in
      let prev = ref (-1) in
      for _ = 1 to n_members do
        let v = rd_int () in
        if v <= !prev then raise (Bad "guide member ranks not increasing");
        prev := v;
        Int_col.append_unit members v
      done;
      if !prev >= doc_nodes then raise (Bad "guide member rank out of range");
      summed := !summed + n_members;
      let key = (kind, name) in
      let table = child_table t parent in
      if Hashtbl.mem table key then raise (Bad "duplicate child path in guide blob");
      let g = push_node t { parent; kind; name; members; children = Hashtbl.create 2 } in
      Hashtbl.add table key g
    done;
    if !summed <> doc_nodes then raise (Bad "guide member counts disagree with document size");
    t.doc_nodes <- doc_nodes;
    Ok t
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Testing support                                                     *)
(* ------------------------------------------------------------------ *)

let members_alist t =
  let out = ref [] in
  for g = 0 to t.n_summary - 1 do
    if populated t g then out := (path t g, Int_col.to_array (node t g).members) :: !out
  done;
  List.sort compare !out

let equal a b = a.doc_nodes = b.doc_nodes && members_alist a = members_alist b
