(* Deterministic random-document generator for the differential fuzzing
   harness: a (shape, seed) pair fully determines the document and the
   context sequence, so every failure report is replayable by quoting the
   pair.  Shapes stress the corners where the axis implementations
   diverge historically: skewed depths and fan-outs, attribute-heavy
   trees (the prefix-sum copy kernels), degenerate single paths (maximal
   scan phases), and empty/tiny documents. *)

module Tree = Scj_xml.Tree
module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq

type shape = Uniform | Deep | Wide | Attr_heavy | Single_path | Tiny

let all_shapes = [ Uniform; Deep; Wide; Attr_heavy; Single_path; Tiny ]

let shape_to_string = function
  | Uniform -> "uniform"
  | Deep -> "deep"
  | Wide -> "wide"
  | Attr_heavy -> "attr-heavy"
  | Single_path -> "single-path"
  | Tiny -> "tiny"

let names = [| "a"; "b"; "item"; "x"; "y" |]

let pick_name st = names.(Random.State.int st (Array.length names))

let attrs st ~p_attr ~max_attrs =
  if Random.State.float st 1.0 >= p_attr then []
  else
    List.init
      (1 + Random.State.int st (max max_attrs 1))
      (fun i ->
        let v = Random.State.int st 100 in
        (* numeric strings in mixed spellings: a general comparison is
           numeric whenever the other side is a number, so "07" and
           "7.0" must behave like 7 against an at/let-bound key — the
           FLWOR join suite relies on these non-canonical forms *)
        let s =
          match Random.State.int st 4 with
          | 0 -> Printf.sprintf "%02d" v
          | 1 -> Printf.sprintf "%d.0" v
          | _ -> string_of_int v
        in
        (Printf.sprintf "k%d" i, s))

let leaf st ~p_attr ~max_attrs =
  match Random.State.int st 8 with
  | 0 | 1 -> Tree.text "t"
  | 2 -> Tree.Comment "c"
  | 3 -> Tree.Pi { target = "pi"; data = "d" }
  | _ -> Tree.elem ~attributes:(attrs st ~p_attr ~max_attrs) (pick_name st) []

(* Budgeted recursive tree: [fanout] draws the child count, [p_attr] /
   [max_attrs] control the attribute density. *)
let rec node st ~budget ~fanout ~p_attr ~max_attrs =
  if !budget <= 1 then leaf st ~p_attr ~max_attrs
  else begin
    let n_children = fanout st in
    decr budget;
    let children =
      List.filter_map
        (fun _ ->
          if !budget <= 0 then None
          else Some (node st ~budget ~fanout ~p_attr ~max_attrs))
        (List.init n_children Fun.id)
    in
    Tree.elem ~attributes:(attrs st ~p_attr ~max_attrs) (pick_name st) children
  end

let tree shape seed =
  let st = Random.State.make [| 0x5c1; seed; Hashtbl.hash (shape_to_string shape) |] in
  let build ~budget ~fanout ~p_attr ~max_attrs =
    let budget = ref budget in
    let children =
      List.filter_map
        (fun _ ->
          if !budget <= 0 then None else Some (node st ~budget ~fanout ~p_attr ~max_attrs))
        (List.init 8 Fun.id)
    in
    Tree.elem "root" children
  in
  match shape with
  | Uniform ->
    build
      ~budget:(20 + Random.State.int st 60)
      ~fanout:(fun st -> Random.State.int st 4)
      ~p_attr:0.3 ~max_attrs:2
  | Deep ->
    (* fanout mostly 1: long chains, tall staircases, maximal heights *)
    build
      ~budget:(20 + Random.State.int st 50)
      ~fanout:(fun st -> if Random.State.int st 5 = 0 then 2 else 1)
      ~p_attr:0.15 ~max_attrs:1
  | Wide ->
    (* one shallow layer of many siblings: lots of partitions, no depth *)
    let n = 15 + Random.State.int st 40 in
    Tree.elem "root"
      (List.init n (fun _ ->
           Tree.elem
             ~attributes:(attrs st ~p_attr:0.2 ~max_attrs:1)
             (pick_name st)
             (if Random.State.int st 3 = 0 then [ leaf st ~p_attr:0.2 ~max_attrs:1 ] else [])))
  | Attr_heavy ->
    (* attribute runs everywhere: stresses the prefix-sum copy kernels *)
    build
      ~budget:(15 + Random.State.int st 45)
      ~fanout:(fun st -> Random.State.int st 3)
      ~p_attr:0.9 ~max_attrs:4
  | Single_path ->
    (* a pure chain: one partition spanning the whole document *)
    let depth = 5 + Random.State.int st 30 in
    let rec chain d =
      if d = 0 then leaf st ~p_attr:0.2 ~max_attrs:1
      else Tree.elem (pick_name st) [ chain (d - 1) ]
    in
    Tree.elem "root" [ chain depth ]
  | Tiny ->
    (* 1-4 nodes, including the empty-ish documents *)
    Tree.elem "root"
      (List.init (Random.State.int st 3) (fun _ -> leaf st ~p_attr:0.3 ~max_attrs:1))

let doc shape seed = Doc.of_tree (tree shape seed)

(* Replay hook shared by every property/fuzz suite: failures print their
   (shape, seed) pair, and SCJ_FUZZ_SEED=<seed> narrows a suite to that
   single seed so the quoted failure replays directly. *)
let env_seed () =
  match Sys.getenv_opt "SCJ_FUZZ_SEED" with None -> None | Some s -> int_of_string_opt s

let seeds default_count =
  match env_seed () with Some s -> [ s ] | None -> List.init default_count Fun.id

(* A small multi-document corpus: 2-4 documents of the same shape family
   under independent sub-seeds, named in their catalog document order
   ("doc00" < "doc01" < ...). *)
let corpus shape seed =
  let st = Random.State.make [| 0xd0c5; seed; Hashtbl.hash (shape_to_string shape) |] in
  let n = 2 + Random.State.int st 3 in
  List.init n (fun i -> (Printf.sprintf "doc%02d" i, doc shape (seed + (31 * (i + 1)))))

(* A random context over [doc]'s nodes, deterministic in [seed]:
   sometimes empty, sometimes a single node, usually a small unsorted
   pick (Nodeseq sorts and dedups). *)
let context doc seed =
  let st = Random.State.make [| 0xc0; seed |] in
  let n = Doc.n_nodes doc in
  let size =
    match Random.State.int st 5 with
    | 0 -> 0
    | 1 -> 1
    | _ -> 1 + Random.State.int st (min n 12)
  in
  Nodeseq.of_unsorted (List.init size (fun _ -> Random.State.int st n))
