module Tree = Scj_xml.Tree
module Int_col = Scj_bat.Int_col
module Str_col = Scj_bat.Str_col
module Dict = Scj_bat.Dict

type kind = Element | Attribute | Text | Comment | Pi

let kind_to_string = function
  | Element -> "elem"
  | Attribute -> "attr"
  | Text -> "text"
  | Comment -> "comm"
  | Pi -> "pi"

type t = {
  post : int array;
  level : int array;
  parent : int array;
  size : int array;
  kind : kind array;
  tag : int array;
  content : int array;
  names : Dict.t;
  texts : Str_col.t;
  height : int;
  pre_of_post : int array;
  attr_prefix : int array;
      (* [attr_prefix.(i)] = number of attribute nodes with pre < i
         (length n+1): O(1) attribute counts over any pre range, and the
         substrate of the blit copy-phase kernel *)
}

let make_attr_prefix kind n =
  let prefix = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    prefix.(i + 1) <- prefix.(i) + if kind.(i) = Attribute then 1 else 0
  done;
  prefix

(* ------------------------------------------------------------------ *)
(* loading                                                              *)
(* ------------------------------------------------------------------ *)

type builder = {
  b_post : Int_col.t;
  b_level : Int_col.t;
  b_parent : Int_col.t;
  b_size : Int_col.t;
  mutable b_kind : kind array;
  b_tag : Int_col.t;
  b_content : Int_col.t;
  b_names : Dict.t;
  b_texts : Str_col.t;
  mutable next_pre : int;
  mutable next_post : int;
  mutable max_level : int;
}

let new_builder () =
  {
    b_post = Int_col.create ~capacity:1024 ();
    b_level = Int_col.create ~capacity:1024 ();
    b_parent = Int_col.create ~capacity:1024 ();
    b_size = Int_col.create ~capacity:1024 ();
    b_kind = Array.make 1024 Element;
    b_tag = Int_col.create ~capacity:1024 ();
    b_content = Int_col.create ~capacity:1024 ();
    b_names = Dict.create ();
    b_texts = Str_col.create ~capacity:256 ();
    next_pre = 0;
    next_post = 0;
    max_level = 0;
  }

let set_kind b pre k =
  let cap = Array.length b.b_kind in
  if pre >= cap then begin
    let fresh = Array.make (max (2 * cap) (pre + 1)) Element in
    Array.blit b.b_kind 0 fresh 0 cap;
    b.b_kind <- fresh
  end;
  b.b_kind.(pre) <- k

(* Allocate the node's row; post and size are patched when known. *)
let open_node b ~level ~parent ~kind ~tag ~content =
  let pre = b.next_pre in
  b.next_pre <- pre + 1;
  if level > b.max_level then b.max_level <- level;
  Int_col.append_unit b.b_post (-1);
  Int_col.append_unit b.b_level level;
  Int_col.append_unit b.b_parent parent;
  Int_col.append_unit b.b_size (-1);
  set_kind b pre kind;
  Int_col.append_unit b.b_tag tag;
  Int_col.append_unit b.b_content content;
  pre

let close_node b pre =
  Int_col.set b.b_post pre b.next_post;
  b.next_post <- b.next_post + 1;
  Int_col.set b.b_size pre (b.next_pre - pre - 1)

let finish_builder b =
  let post = Int_col.to_array b.b_post in
  let n = Array.length post in
  let pre_of_post = Array.make n 0 in
  Array.iteri (fun pre p -> pre_of_post.(p) <- pre) post;
  let kind = Array.sub b.b_kind 0 n in
  {
    post;
    level = Int_col.to_array b.b_level;
    parent = Int_col.to_array b.b_parent;
    size = Int_col.to_array b.b_size;
    kind;
    tag = Int_col.to_array b.b_tag;
    content = Int_col.to_array b.b_content;
    names = b.b_names;
    texts = b.b_texts;
    height = b.max_level;
    pre_of_post;
    attr_prefix = make_attr_prefix kind n;
  }

let of_tree tree =
  let b = new_builder () in
  let intern name = Dict.intern b.b_names name in
  let store_text s = Str_col.append b.b_texts s in
  let rec visit node ~level ~parent =
    match node with
    | Tree.Text s ->
      let pre =
        open_node b ~level ~parent ~kind:Text ~tag:(-1) ~content:(store_text s)
      in
      close_node b pre
    | Tree.Comment s ->
      let pre =
        open_node b ~level ~parent ~kind:Comment ~tag:(-1) ~content:(store_text s)
      in
      close_node b pre
    | Tree.Pi { target; data } ->
      let pre =
        open_node b ~level ~parent ~kind:Pi ~tag:(intern target) ~content:(store_text data)
      in
      close_node b pre
    | Tree.Element { name; attributes; children } ->
      let pre = open_node b ~level ~parent ~kind:Element ~tag:(intern name) ~content:(-1) in
      (* attributes first: the paper's special encoding places them as the
         leading leaves of the element's subtree *)
      List.iter
        (fun (k, v) ->
          let apre =
            open_node b ~level:(level + 1) ~parent:pre ~kind:Attribute ~tag:(intern k)
              ~content:(store_text v)
          in
          close_node b apre)
        attributes;
      List.iter (fun c -> visit c ~level:(level + 1) ~parent:pre) children;
      close_node b pre
  in
  visit tree ~level:0 ~parent:(-1);
  finish_builder b

(* Streaming loader: the SAX event fold drives the same builder the tree
   loader uses, with an explicit stack of open elements; [depth] is the
   stack's length, kept alongside so a node's level costs O(1). *)
type sax_state = { builder : builder; mutable open_elements : int list; mutable depth : int }

let of_string xml =
  let st = { builder = new_builder (); open_elements = []; depth = 0 } in
  let b = st.builder in
  let intern name = Dict.intern b.b_names name in
  let store_text s = Str_col.append b.b_texts s in
  let level () = st.depth in
  let parent () = match st.open_elements with [] -> -1 | p :: _ -> p in
  let leaf ~kind ~tag ~content =
    let pre = open_node b ~level:(level ()) ~parent:(parent ()) ~kind ~tag ~content in
    close_node b pre
  in
  let step () ev =
    match ev with
    | Scj_xml.Parser.Start_element { name; attributes } ->
      let pre =
        open_node b ~level:(level ()) ~parent:(parent ()) ~kind:Element ~tag:(intern name)
          ~content:(-1)
      in
      st.open_elements <- pre :: st.open_elements;
      st.depth <- st.depth + 1;
      List.iter
        (fun (k, v) ->
          let apre =
            open_node b ~level:(level ()) ~parent:pre ~kind:Attribute ~tag:(intern k)
              ~content:(store_text v)
          in
          close_node b apre)
        attributes
    | Scj_xml.Parser.End_element _ -> (
      match st.open_elements with
      | pre :: rest ->
        close_node b pre;
        st.open_elements <- rest;
        st.depth <- st.depth - 1
      | [] -> ())
    | Scj_xml.Parser.Text s -> leaf ~kind:Text ~tag:(-1) ~content:(store_text s)
    | Scj_xml.Parser.Comment s -> leaf ~kind:Comment ~tag:(-1) ~content:(store_text s)
    | Scj_xml.Parser.Pi { target; data } ->
      leaf ~kind:Pi ~tag:(intern target) ~content:(store_text data)
  in
  match Scj_xml.Parser.fold ~strip_ws:true xml ~init:() ~f:step with
  | Ok () ->
    if b.next_pre = 0 then Error "empty document" else Ok (finish_builder b)
  | Error e -> Error (Scj_xml.Parser.error_to_string e)

let of_file path =
  let content = In_channel.with_open_bin path In_channel.input_all in
  of_string content

(* ------------------------------------------------------------------ *)
(* accessors                                                            *)
(* ------------------------------------------------------------------ *)

let n_nodes t = Array.length t.post

let height t = t.height

let root _ = 0

let check t pre fn =
  if pre < 0 || pre >= n_nodes t then
    invalid_arg (Printf.sprintf "Doc.%s: preorder rank %d out of bounds [0,%d)" fn pre (n_nodes t))

let post t pre =
  check t pre "post";
  t.post.(pre)

let level t pre =
  check t pre "level";
  t.level.(pre)

let parent t pre =
  check t pre "parent";
  t.parent.(pre)

let size t pre =
  check t pre "size";
  t.size.(pre)

let kind t pre =
  check t pre "kind";
  t.kind.(pre)

let tag t pre =
  check t pre "tag";
  t.tag.(pre)

let tag_name t pre =
  let sym = tag t pre in
  if sym < 0 then None else Some (Dict.name t.names sym)

let content t pre =
  check t pre "content";
  let slot = t.content.(pre) in
  if slot < 0 then None else Some (Str_col.get t.texts slot)

let pre_of_post t p =
  if p < 0 || p >= n_nodes t then
    invalid_arg (Printf.sprintf "Doc.pre_of_post: postorder rank %d out of bounds" p);
  t.pre_of_post.(p)

let string_value t pre =
  check t pre "string_value";
  match t.kind.(pre) with
  | Text | Comment | Attribute | Pi -> (
    match content t pre with Some s -> s | None -> "")
  | Element ->
    let buf = Buffer.create 64 in
    let last = pre + t.size.(pre) in
    for v = pre + 1 to last do
      if t.kind.(v) = Text then Buffer.add_string buf (Str_col.get t.texts t.content.(v))
    done;
    Buffer.contents buf

let tag_symbol t name = Dict.find_opt t.names name

let names t = t.names

let tag_positions t name =
  match tag_symbol t name with
  | None -> [||]
  | Some sym ->
    let hits = Int_col.create () in
    Array.iteri (fun pre s -> if s = sym then Int_col.append_unit hits pre) t.tag;
    Int_col.to_array hits

let post_array t = t.post

let kind_array t = t.kind

let tag_array t = t.tag

let level_array t = t.level

let size_array t = t.size

let parent_array t = t.parent

let size_lower_bound t pre =
  check t pre "size_lower_bound";
  t.post.(pre) - pre

let size_upper_bound t pre =
  check t pre "size_upper_bound";
  t.post.(pre) - pre + t.height

(* ------------------------------------------------------------------ *)
(* attribute prefix sums and the blit copy-phase kernel                 *)
(* ------------------------------------------------------------------ *)

let attr_prefix_array t = t.attr_prefix

let attr_count_range t ~lo ~hi =
  if hi < lo then 0
  else begin
    if lo < 0 || hi >= n_nodes t then
      invalid_arg
        (Printf.sprintf "Doc.attr_count_range: range [%d,%d] out of bounds [0,%d)" lo hi
           (n_nodes t));
    t.attr_prefix.(hi + 1) - t.attr_prefix.(lo)
  end

(* Attributes sit in contiguous runs right after their owner element, so
   the non-attribute entries of a window form a handful of maximal runs,
   each emitted with one range fill (ranks) or slice blit (a view's pre
   column).  The next attribute is located by binary search on the
   prefix sums, so the cost is O(runs * log n) — independent of the run
   lengths. *)
let append_nonattr_runs (prefix : int array) ~off ?pres out ~lo ~hi =
  (* work in slice coordinates: index k here is entry k + off *)
  let lo = lo - off and hi = hi - off in
  if hi - lo < 16 then
    (* short windows: a straight loop beats the run bookkeeping *)
    for i = lo to hi - 1 do
      if prefix.(i + 1) = prefix.(i) then
        Int_col.append_unit out (match pres with None -> i + off | Some p -> p.(i + off))
    done
  else begin
    let i = ref lo in
    while !i < hi do
      let base = prefix.(!i) in
      (* first attribute at or after !i, or hi: the entry just before the
         smallest j in (!i, hi] with prefix.(j) > base *)
      let a =
        if prefix.(hi) = base then hi
        else begin
          let l = ref (!i + 1) and r = ref hi in
          while !l < !r do
            let mid = (!l + !r) / 2 in
            if prefix.(mid) > base then r := mid else l := mid + 1
          done;
          !l - 1
        end
      in
      if a > !i then begin
        match pres with
        | None -> Int_col.append_range out ~lo:(!i + off) ~hi:(a + off - 1)
        | Some p -> Int_col.append_slice out p ~pos:(!i + off) ~len:(a - !i)
      end;
      (* hop over the contiguous attribute run *)
      let j = ref a in
      while !j < hi && prefix.(!j + 1) > prefix.(!j) do
        incr j
      done;
      i := !j
    done
  end

let append_nonattr_range t col ~lo ~hi =
  if hi < lo then 0
  else begin
    if lo < 0 || hi >= n_nodes t then
      invalid_arg
        (Printf.sprintf "Doc.append_nonattr_range: range [%d,%d] out of bounds [0,%d)" lo hi
           (n_nodes t));
    let ap = t.attr_prefix in
    let nonattr = hi - lo + 1 - (ap.(hi + 1) - ap.(lo)) in
    Int_col.reserve col nonattr;
    append_nonattr_runs ap ~off:0 col ~lo ~hi:(hi + 1);
    nonattr
  end

(* ------------------------------------------------------------------ *)
(* reconstruction                                                       *)
(* ------------------------------------------------------------------ *)

let rec to_tree t pre =
  check t pre "to_tree";
  let slot_content pre = match content t pre with Some s -> s | None -> "" in
  match t.kind.(pre) with
  | Text -> Tree.Text (slot_content pre)
  | Comment -> Tree.Comment (slot_content pre)
  | Attribute -> Tree.Text (slot_content pre)
  | Pi ->
    Tree.Pi
      {
        target = (match tag_name t pre with Some n -> n | None -> "");
        data = slot_content pre;
      }
  | Element ->
    let name = match tag_name t pre with Some n -> n | None -> "" in
    let stop = pre + t.size.(pre) in
    (* attributes are the leading leaves of the subtree *)
    let rec attrs i acc =
      if i <= stop && t.kind.(i) = Attribute && t.parent.(i) = pre then
        attrs (i + 1)
          ((Option.value ~default:"" (tag_name t i), slot_content i) :: acc)
      else (List.rev acc, i)
    in
    let attributes, first_child = attrs (pre + 1) [] in
    let rec children i acc =
      if i > stop then List.rev acc
      else children (i + t.size.(i) + 1) (to_tree t i :: acc)
    in
    Tree.Element { name; attributes; children = children first_child [] }

(* ------------------------------------------------------------------ *)
(* validation                                                           *)
(* ------------------------------------------------------------------ *)

let validate t =
  let exception Bad of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt in
  let n = n_nodes t in
  try
    if n = 0 then fail "empty document";
    if t.parent.(0) <> -1 then fail "root has a parent";
    if t.level.(0) <> 0 then fail "root level is not 0";
    if t.size.(0) <> n - 1 then fail "root size does not cover the document";
    (* post is a permutation *)
    let seen = Array.make n false in
    Array.iteri
      (fun pre p ->
        if p < 0 || p >= n then fail "post rank %d out of range at pre %d" p pre;
        if seen.(p) then fail "duplicate post rank %d" p;
        seen.(p) <- true;
        if t.pre_of_post.(p) <> pre then fail "pre_of_post inconsistent at post %d" p)
      t.post;
    for pre = 0 to n - 1 do
      (* Equation (1), exactly *)
      if t.size.(pre) <> t.post.(pre) - pre + t.level.(pre) then
        fail "Equation (1) violated at pre %d" pre;
      if t.level.(pre) > t.height then fail "level exceeds height at pre %d" pre;
      if t.size.(pre) < 0 || pre + t.size.(pre) >= n then fail "size out of range at pre %d" pre;
      if pre > 0 then begin
        let p = t.parent.(pre) in
        if p < 0 || p >= pre then fail "parent of %d must precede it, got %d" pre p;
        if t.level.(pre) <> t.level.(p) + 1 then fail "level does not chain at pre %d" pre;
        (* parent's subtree must enclose the child's *)
        if not (pre + t.size.(pre) <= p + t.size.(p)) then
          fail "subtree of %d escapes its parent %d" pre p;
        if t.kind.(p) <> Element then fail "non-element parent at pre %d" pre
      end;
      (match t.kind.(pre) with
      | Attribute ->
        if t.size.(pre) <> 0 then fail "attribute %d has children" pre;
        if t.tag.(pre) < 0 then fail "attribute %d lacks a name" pre;
        if t.content.(pre) < 0 then fail "attribute %d lacks a value" pre
      | Text | Comment ->
        if t.size.(pre) <> 0 then fail "leaf %d has children" pre;
        if t.content.(pre) < 0 then fail "text/comment %d lacks content" pre
      | Pi -> if t.size.(pre) <> 0 then fail "pi %d has children" pre
      | Element -> if t.tag.(pre) < 0 then fail "element %d lacks a tag" pre)
    done;
    Ok ()
  with Bad msg -> Error msg

module Internal = struct
  let assemble ?seed_names ~post ~level ~parent ~kind ~tags ~contents ~height () =
    let n = Array.length post in
    let names = Dict.create () in
    (* seeding keeps symbol ids stable across renditions so structures
       caching interned tags (the B+-tree index values) stay valid for
       rows the splice did not touch *)
    (match seed_names with
    | None -> ()
    | Some d ->
      for sym = 0 to Dict.size d - 1 do
        ignore (Dict.intern names (Dict.name d sym))
      done);
    let texts = Str_col.create ~capacity:(max 16 (n / 4)) () in
    let tag =
      Array.mapi (fun _ name -> match name with None -> -1 | Some s -> Dict.intern names s) tags
    in
    let content =
      Array.map (function None -> -1 | Some s -> Str_col.append texts s) contents
    in
    let size = Array.init n (fun pre -> post.(pre) - pre + level.(pre)) in
    let pre_of_post = Array.make n 0 in
    Array.iteri (fun pre p -> if p >= 0 && p < n then pre_of_post.(p) <- pre) post;
    {
      post;
      level;
      parent;
      size;
      kind;
      tag;
      content;
      names;
      texts;
      height;
      pre_of_post;
      attr_prefix = make_attr_prefix kind n;
    }
end

let pp_table ppf t =
  Format.fprintf ppf "@[<v>%4s %4s %5s %4s %6s %s@," "pre" "post" "level" "size" "kind" "name";
  for pre = 0 to n_nodes t - 1 do
    Format.fprintf ppf "%4d %4d %5d %4d %6s %s@," pre t.post.(pre) t.level.(pre) t.size.(pre)
      (kind_to_string t.kind.(pre))
      (match tag_name t pre with
      | Some name -> name
      | None -> ( match content t pre with Some s -> Printf.sprintf "%S" s | None -> ""))
  done;
  Format.fprintf ppf "@]"
