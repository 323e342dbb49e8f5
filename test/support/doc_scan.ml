(* The planner statistics counted straight off the document columns: the
   scan that computed them before they were folded from the dataguide,
   kept as the oracle of that fold. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Guide = Scj_guide.Guide
module Doc_stats = Scj_guide.Doc_stats

(* What the statistics state about the document, summary ids aside: the
   totals, then per element name and per attribute name the count,
   Σ subtree sizes and Σ levels, sorted by name. *)
type figures = {
  totals : int list;
  tags : (string * (int * int * int)) list;
  attributes : (string * (int * int * int)) list;
}

let sorted table f =
  List.sort compare (Hashtbl.fold (fun name v acc -> (name, f v) :: acc) table [])

let of_stats (s : Doc_stats.t) =
  let sums (ts : Doc_stats.tag_stats) = (ts.count, ts.subtree_sum, ts.level_sum) in
  {
    totals =
      [
        s.n_nodes; s.n_elements; s.n_attributes; s.n_texts; s.n_comments; s.n_pis; s.height;
        s.root_size; s.element_subtree_sum; s.element_level_sum;
      ];
    tags = sorted s.tags sums;
    attributes = sorted s.attributes sums;
  }

let scan doc =
  let n = Doc.n_nodes doc in
  let by_kind = Hashtbl.create 5 in
  let tags = Hashtbl.create 64 and attributes = Hashtbl.create 16 in
  let bump table name size level =
    let c, s, l = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt table name) in
    Hashtbl.replace table name (c + 1, s + size, l + level)
  in
  let element_subtree_sum = ref 0 and element_level_sum = ref 0 in
  for v = 0 to n - 1 do
    let kind = Doc.kind doc v and size = Doc.size doc v and level = Doc.level doc v in
    Hashtbl.replace by_kind kind (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind kind));
    match (kind, Doc.tag_name doc v) with
    | Doc.Element, Some name ->
      element_subtree_sum := !element_subtree_sum + size;
      element_level_sum := !element_level_sum + level;
      bump tags name size level
    | Doc.Attribute, Some name -> bump attributes name size level
    | (Doc.Element | Doc.Attribute | Doc.Text | Doc.Comment | Doc.Pi), _ -> ()
  done;
  let count kind = Option.value ~default:0 (Hashtbl.find_opt by_kind kind) in
  {
    totals =
      [
        n; count Doc.Element; count Doc.Attribute; count Doc.Text; count Doc.Comment;
        count Doc.Pi; Doc.height doc; (if n = 0 then 0 else Doc.size doc (Doc.root doc));
        !element_subtree_sum; !element_level_sum;
      ];
    tags = sorted tags Fun.id;
    attributes = sorted attributes Fun.id;
  }

(* The names whose partition — the members of their summary paths — is
   not the name's positions of its kind in [Doc.tag_positions]. *)
let partition_mismatches doc g (s : Doc_stats.t) =
  let check kind table =
    Hashtbl.fold
      (fun name (ts : Doc_stats.tag_stats) acc ->
        let want =
          List.filter (fun v -> Doc.kind doc v = kind) (Array.to_list (Doc.tag_positions doc name))
        in
        if Nodeseq.to_list (Guide.members g ts.paths) = want then acc else name :: acc)
      table []
  in
  List.sort compare (check Doc.Element s.tags @ check Doc.Attribute s.attributes)

(* [check what doc g s]: [s], folded from [doc]'s guide [g], states the
   figures the scan counts, and every name's partition is its fragment. *)
let check what doc g s =
  if of_stats s <> scan doc then
    Printf.ksprintf failwith "%s: guide statistics differ from the document scan" what;
  match partition_mismatches doc g s with
  | [] -> ()
  | names ->
    Printf.ksprintf failwith "%s: partitions differ from the tag positions of %s" what
      (String.concat ", " names)
