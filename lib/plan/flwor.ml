(* Loop-lifted FLWOR operators: the iteration scope is a list of
   variable-binding rows (one [value] slot per compile-resolved
   variable); [for] multiplies rows against its source, [let] fills a
   column, and an isolated value join replaces the nested-loop pairing
   of two [for] scopes with a sort-merge over atomized keys.  The
   executor mirrors the interpreter oracle's evaluation order exactly
   (per-row path evaluations through the same session plan cache), so
   work counters stay bit-comparable wherever no join was isolated —
   the join is the one deliberate divergence, and the speedup. *)

module Doc = Scj_encoding.Doc
module Nodeseq = Scj_encoding.Nodeseq
module Tree = Scj_xml.Tree
module Exec = Scj_trace.Exec
module Trace = Scj_trace.Trace
module Stats = Scj_stats.Stats

type atom = Str of string | Num of float | Bool of bool

type item = Node of int | Atom of atom | Tree of Tree.t

type value = item list

exception Error of string

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* the value model                                                      *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal string that round-trips to the same double;
   integral values (up to the point where %.0f is still exact) print as
   plain digit runs, matching XQuery's xs:double canonical forms. *)
let float_to_string f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else if Float.is_integer f && Float.abs f < 1e18 then Printf.sprintf "%.0f" f
  else begin
    let rec go p =
      if p >= 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else go (p + 1)
    in
    go 1
  end

let atom_to_string = function
  | Str s -> s
  | Bool b -> if b then "true" else "false"
  | Num f -> float_to_string f

let number_of_atom = function
  | Num f -> f
  | Bool b -> if b then 1.0 else 0.0
  | Str s -> ( match float_of_string_opt (String.trim s) with Some f -> f | None -> Float.nan)

let ebv = function
  | [] -> false
  | Node _ :: _ | Tree _ :: _ -> true
  | [ Atom (Bool b) ] -> b
  | [ Atom (Num f) ] -> f <> 0.0 && not (Float.is_nan f)
  | [ Atom (Str s) ] -> String.length s > 0
  | Atom _ :: _ :: _ -> fail "effective boolean value of a multi-atom sequence"

let atomize doc = function
  | Atom a -> a
  | Node v -> Str (Doc.string_value doc v)
  | Tree t -> Str (Tree.string_value t)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

let cmp_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let compare_atoms op a b =
  let num_cmp x y =
    match op with
    | Eq -> x = y
    | Neq -> x <> y
    | Lt -> x < y
    | Le -> x <= y
    | Gt -> x > y
    | Ge -> x >= y
  in
  match (a, b) with
  | Num x, y | y, Num x ->
    (* numeric comparison when either side is a number *)
    let other = number_of_atom y in
    if a = Num x then num_cmp x other else num_cmp other x
  | Bool _, _ | _, Bool _ -> num_cmp (number_of_atom a) (number_of_atom b)
  | Str x, Str y -> (
    match op with
    | Eq -> String.equal x y
    | Neq -> not (String.equal x y)
    | Lt | Le | Gt | Ge -> num_cmp (number_of_atom a) (number_of_atom b))

let node_context value =
  let pres =
    List.map
      (function
        | Node v -> v
        | Atom _ -> fail "path step applied to an atomic value"
        | Tree _ -> fail "path step applied to a constructed tree")
      value
  in
  Nodeseq.of_unsorted pres

(* element-constructor content: adjacent atoms merge into one text node
   separated by spaces (XQuery 3.7.1), attribute nodes become
   attributes of the constructed element *)
let content_of_value doc value =
  let attributes = ref [] in
  let flush_atoms atoms acc =
    match atoms with
    | [] -> acc
    | _ -> Tree.Text (String.concat " " (List.rev_map atom_to_string atoms)) :: acc
  in
  let rec walk atoms acc = function
    | [] -> List.rev (flush_atoms atoms acc)
    | Atom a :: rest -> walk (a :: atoms) acc rest
    | Node v :: rest when Doc.kind doc v = Doc.Attribute ->
      let name = Option.value ~default:"" (Doc.tag_name doc v) in
      let value = Option.value ~default:"" (Doc.content doc v) in
      attributes := (name, value) :: !attributes;
      walk atoms acc rest
    | Node v :: rest -> walk [] (Doc.to_tree doc v :: flush_atoms atoms acc) rest
    | Tree t :: rest -> walk [] (t :: flush_atoms atoms acc) rest
  in
  let children = walk [] [] value in
  (List.rev !attributes, children)

let serialize doc value =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i item ->
      if i > 0 then Buffer.add_char buf '\n';
      match item with
      | Atom a -> Buffer.add_string buf (atom_to_string a)
      | Node v -> Buffer.add_string buf (Scj_xml.Printer.to_string (Doc.to_tree doc v))
      | Tree t -> Buffer.add_string buf (Scj_xml.Printer.to_string t))
    value;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* the operator IR                                                      *)
(* ------------------------------------------------------------------ *)

type fn =
  | Count
  | Exists
  | Empty
  | Not
  | String_fn
  | Number_fn
  | Sum
  | Name_fn
  | Data
  | Distinct_values
  | Concat_fn

let fn_name = function
  | Count -> "count"
  | Exists -> "exists"
  | Empty -> "empty"
  | Not -> "not"
  | String_fn -> "string"
  | Number_fn -> "number"
  | Sum -> "sum"
  | Name_fn -> "name"
  | Data -> "data"
  | Distinct_values -> "distinct-values"
  | Concat_fn -> "concat"

type arith = Add | Sub | Mul | Div | Mod

let arith_name = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "div" | Mod -> "mod"

type order = Ascending | Descending

type path_op = {
  psrc : string;
  phys : Plan.physical;
  run : Exec.t -> Nodeseq.t option -> Nodeseq.t;
}

type slot = { id : int; sname : string }

type expr =
  | Const of atom
  | Slot of slot
  | Doc_path of path_op
  | Rel_path of expr * path_op
  | Seq_ctor of expr list
  | Block of block
  | Cond of expr * expr * expr
  | Elem_ctor of string * expr
  | Text_ctor of expr
  | Fn_call of fn * expr list
  | Arith of arith * expr * expr
  | Compare of cmp * expr * expr
  | And_ebv of expr * expr
  | Or_ebv of expr * expr

and block = {
  ops : op list;
  where : expr option;
  order_by : (expr * order) option;
  return : expr;
  notes : string list;
}

and op = For_op of binder | Let_op of { slot : slot; def : expr } | Join_op of join

and binder = { slot : slot; at : slot option; source : expr }

and join = {
  outer_key : expr;
  inner : binder;
  inner_key : expr;
  jcmp : cmp;
  est_outer : int;
  est_inner : int;
  cost : float;
  alternatives : (string * float) list;
}

type program = { width : int; body : expr; query : string; strategy : string }

(* ------------------------------------------------------------------ *)
(* labels                                                               *)
(* ------------------------------------------------------------------ *)

let rec pp_label ppf = function
  | Const (Str s) -> Format.fprintf ppf "'%s'" s
  | Const (Num f) ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Format.fprintf ppf "%d" (int_of_float f)
    else Format.fprintf ppf "%g" f
  | Const (Bool b) -> Format.fprintf ppf "%s()" (if b then "true" else "false")
  | Slot s -> Format.fprintf ppf "$%s" s.sname
  | Doc_path p -> Format.pp_print_string ppf p.psrc
  | Rel_path (e, p) -> Format.fprintf ppf "%a/%s" pp_label e p.psrc
  | Seq_ctor es ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_label)
      es
  | Block b ->
    List.iter
      (fun op ->
        match op with
        | For_op { slot; at = None; source } ->
          Format.fprintf ppf "for $%s in %a " slot.sname pp_label source
        | For_op { slot; at = Some i; source } ->
          Format.fprintf ppf "for $%s at $%s in %a " slot.sname i.sname pp_label source
        | Let_op { slot; def } -> Format.fprintf ppf "let $%s := %a " slot.sname pp_label def
        | Join_op j ->
          Format.fprintf ppf "for $%s in %a " j.inner.slot.sname pp_label j.inner.source)
      b.ops;
    (let conjuncts =
       List.filter_map
         (function
           | Join_op j ->
             Some
               (Format.asprintf "%a %s %a" pp_label j.outer_key (cmp_to_string j.jcmp)
                  pp_label j.inner_key)
           | For_op _ | Let_op _ -> None)
         b.ops
       @ match b.where with None -> [] | Some w -> [ Format.asprintf "%a" pp_label w ]
     in
     match conjuncts with
     | [] -> ()
     | cs -> Format.fprintf ppf "where %s " (String.concat " and " cs));
    (match b.order_by with
    | None -> ()
    | Some (k, Ascending) -> Format.fprintf ppf "order by %a " pp_label k
    | Some (k, Descending) -> Format.fprintf ppf "order by %a descending " pp_label k);
    Format.fprintf ppf "return %a" pp_label b.return
  | Cond (c, t, e) ->
    Format.fprintf ppf "if (%a) then %a else %a" pp_label c pp_label t pp_label e
  | Elem_ctor (name, body) -> Format.fprintf ppf "element %s { %a }" name pp_label body
  | Text_ctor body -> Format.fprintf ppf "text { %a }" pp_label body
  | Fn_call (fn, args) ->
    Format.fprintf ppf "%s(%a)" (fn_name fn)
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_label)
      args
  | Arith (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp_label a (arith_name op) pp_label b
  | Compare (op, a, b) -> Format.fprintf ppf "%a %s %a" pp_label a (cmp_to_string op) pp_label b
  | And_ebv (a, b) -> Format.fprintf ppf "(%a and %a)" pp_label a pp_label b
  | Or_ebv (a, b) -> Format.fprintf ppf "(%a or %a)" pp_label a pp_label b

let expr_label e = Format.asprintf "%a" pp_label e

(* ------------------------------------------------------------------ *)
(* execution                                                            *)
(* ------------------------------------------------------------------ *)

(* [tick] is one {!Exec.poller} for the whole program: every row loop
   below ticks it, since a clause whose expressions run no path never
   reaches the joins' checkpoints, and a deadline must still interrupt
   a large cross product — nested blocks included. *)
type rt = { doc : Doc.t; exec : Exec.t; tick : unit -> unit }

let nodes_of seq = List.map (fun v -> Node v) (Nodeseq.to_list seq)

let op_label = function
  | For_op { slot; at = _; source } ->
    Printf.sprintf "for $%s in %s" slot.sname (expr_label source)
  | Let_op { slot; def } -> Printf.sprintf "let $%s := %s" slot.sname (expr_label def)
  | Join_op j ->
    Printf.sprintf "value join: %s %s %s" (expr_label j.outer_key) (cmp_to_string j.jcmp)
      (expr_label j.inner_key)

let rec eval rt (row : value array) (e : expr) : value =
  match e with
  | Const a -> [ Atom a ]
  | Slot s -> row.(s.id)
  | Doc_path p -> nodes_of (p.run rt.exec None)
  | Rel_path (e, p) ->
    let ctx = node_context (eval rt row e) in
    if Nodeseq.is_empty ctx then [] else nodes_of (p.run rt.exec (Some ctx))
  | Seq_ctor es -> List.concat_map (eval rt row) es
  | Block b -> eval_block rt row b
  | Cond (c, t, e) -> if ebv (eval rt row c) then eval rt row t else eval rt row e
  | Elem_ctor (name, body) ->
    let attributes, children = content_of_value rt.doc (eval rt row body) in
    [ Tree (Tree.elem ~attributes name children) ]
  | Text_ctor body ->
    let atoms = List.map (atomize rt.doc) (eval rt row body) in
    [ Tree (Tree.text (String.concat " " (List.map atom_to_string atoms))) ]
  | Fn_call (fn, args) -> eval_fn rt row fn args
  | Arith (op, a, b) -> (
    match (eval rt row a, eval rt row b) with
    | [], _ | _, [] -> [] (* arithmetic on () is () *)
    | va, vb ->
      let x = number_of_atom (atomize rt.doc (List.hd va)) in
      let y = number_of_atom (atomize rt.doc (List.hd vb)) in
      let r =
        match op with
        | Add -> x +. y
        | Sub -> x -. y
        | Mul -> x *. y
        | Div -> x /. y
        | Mod -> Float.rem x y
      in
      [ Atom (Num r) ])
  | Compare (op, a, b) ->
    let va = List.map (atomize rt.doc) (eval rt row a) in
    let vb = List.map (atomize rt.doc) (eval rt row b) in
    [ Atom (Bool (List.exists (fun x -> List.exists (fun y -> compare_atoms op x y) vb) va)) ]
  | And_ebv (a, b) -> [ Atom (Bool (ebv (eval rt row a) && ebv (eval rt row b))) ]
  | Or_ebv (a, b) -> [ Atom (Bool (ebv (eval rt row a) || ebv (eval rt row b))) ]

and eval_block rt row b =
  let rows = List.fold_left (eval_op rt) [ row ] b.ops in
  let rows =
    match b.where with
    | None -> rows
    | Some w ->
      List.filter
        (fun r ->
          rt.tick ();
          ebv (eval rt r w))
        rows
  in
  let rows =
    match b.order_by with None -> rows | Some (key, dir) -> sort_rows rt key dir rows
  in
  List.concat_map
    (fun r ->
      rt.tick ();
      eval rt r b.return)
    rows

and eval_op rt rows op =
  if Exec.tracing rt.exec then
    Exec.span rt.exec (op_label op) (fun () ->
        Exec.annot rt.exec "rows_in" (string_of_int (List.length rows));
        let out = run_op rt rows op in
        Exec.annot rt.exec "rows_out" (string_of_int (List.length out));
        out)
  else run_op rt rows op

and run_op rt rows op =
  match op with
  | Let_op { slot; def } ->
    List.map
      (fun r ->
        rt.tick ();
        let r' = Array.copy r in
        r'.(slot.id) <- eval rt r def;
        r')
      rows
  | For_op b ->
    List.concat_map
      (fun r ->
        List.mapi
          (fun i item ->
            rt.tick ();
            bind_row r b i item)
          (eval rt r b.source))
      rows
  | Join_op j -> eval_join rt rows j

and bind_row r (b : binder) i item =
  let r' = Array.copy r in
  r'.(b.slot.id) <- [ item ];
  (match b.at with
  | None -> ()
  | Some s -> r'.(s.id) <- [ Atom (Num (float_of_int (i + 1))) ]);
  r'

(* The isolated value join.  The inner source is loop-invariant (the
   compiler only isolates closed sources), so it is evaluated once and
   both key tables are sorted and merged in one pass instead of the
   interpreter's per-row nested-loop re-evaluation — this is where the
   compiled pipeline deliberately does less work than the oracle. *)
and eval_join rt rows (j : join) =
  match rows with
  | [] -> []
  | sample :: _ ->
    let stats = rt.exec.Exec.stats in
    let items = Array.of_list (eval rt sample j.inner.source) in
    let n_rows = List.length rows in
    let matched = Array.make n_rows [] in
    (* scratch row for inner-key evaluation: the key may only reference
       the inner binder, so stale outer slots are never read *)
    let scratch = Array.copy sample in
    let inner_key_atoms jx =
      rt.tick ();
      scratch.(j.inner.slot.id) <- [ items.(jx) ];
      (match j.inner.at with
      | None -> ()
      | Some s -> scratch.(s.id) <- [ Atom (Num (float_of_int (jx + 1))) ]);
      List.map (atomize rt.doc) (eval rt scratch j.inner_key)
    in
    let outer_key_atoms r =
      rt.tick ();
      List.map (atomize rt.doc) (eval rt r j.outer_key)
    in
    (match j.jcmp with
    | Neq -> fail "internal: != is not a mergeable join predicate"
    | Eq ->
      (* general-comparison semantics, exactly as [compare_atoms]: a
         pair of atoms compares numerically when either side is a Num
         or Bool, and as strings only when both are Str.  Each side
         therefore feeds two merge tables — a string table (Str atoms
         verbatim) and a numeric table (every atom's numeric value,
         tagged with whether it came from a Str so a Str–Str pair,
         which only matches by string, is skipped in the numeric merge:
         '1.0' = '1' must stay false).  Per-tuple dedup keeps a
         multi-atom key from emitting a pair twice per table; a pair
         found by both tables collapses in the final sort_uniq. *)
      let entries side_keys n =
        let strs = ref [] and nums = ref [] in
        for i = n - 1 downto 0 do
          let keys = side_keys i in
          List.iter
            (fun s -> strs := (s, i) :: !strs)
            (List.sort_uniq String.compare
               (List.filter_map
                  (function Str s -> Some s | Num _ | Bool _ -> None)
                  keys));
          List.iter
            (fun (f, from_str) -> nums := (f, (from_str, i)) :: !nums)
            (List.sort_uniq compare
               (List.filter_map
                  (fun a ->
                    let f = number_of_atom a in
                    if Float.is_nan f then None
                    else Some (f, match a with Str _ -> true | Num _ | Bool _ -> false))
                  keys))
        done;
        (Array.of_list !strs, Array.of_list !nums)
      in
      let rows_arr = Array.of_list rows in
      let ls, ln = entries (fun i -> outer_key_atoms rows_arr.(i)) n_rows in
      let rs, rn = entries inner_key_atoms (Array.length items) in
      stats.Stats.sorted <-
        stats.Stats.sorted + Array.length ls + Array.length rs + Array.length ln
        + Array.length rn;
      (* one pass over two key-sorted tables; [emit] sees the payloads
         of every equal-key pair *)
      let merge_pass cmp la ra emit =
        Array.sort (fun (a, _) (b, _) -> cmp a b) la;
        Array.sort (fun (a, _) (b, _) -> cmp a b) ra;
        let i = ref 0 and jp = ref 0 in
        let nl = Array.length la and nr = Array.length ra in
        while !i < nl && !jp < nr do
          stats.Stats.compared <- stats.Stats.compared + 1;
          let ka = fst la.(!i) and kb = fst ra.(!jp) in
          let c = cmp ka kb in
          if c < 0 then incr i
          else if c > 0 then incr jp
          else begin
            let jend = ref !jp in
            while !jend < nr && cmp (fst ra.(!jend)) ka = 0 do
              incr jend
            done;
            while !i < nl && cmp (fst la.(!i)) ka = 0 do
              for g = !jp to !jend - 1 do
                rt.tick ();
                emit (snd la.(!i)) (snd ra.(g))
              done;
              incr i
            done;
            jp := !jend
          end
        done
      in
      merge_pass String.compare ls rs (fun ri jx -> matched.(ri) <- jx :: matched.(ri));
      merge_pass Float.compare ln rn (fun (o_str, ri) (i_str, jx) ->
          if not (o_str && i_str) then matched.(ri) <- jx :: matched.(ri))
    | (Lt | Le | Gt | Ge) as op ->
      (* range keys compare numerically: reduce each tuple's key set to
         the one scalar that decides the existential comparison, sort
         the inner scalars, and answer each outer tuple with one binary
         search over the sorted build side *)
      let reduce pick keys =
        List.fold_left
          (fun acc a ->
            let f = number_of_atom a in
            if Float.is_nan f then acc
            else
              match acc with None -> Some f | Some g -> Some (pick f g))
          None keys
      in
      let outer_pick, inner_pick =
        match op with
        | Lt | Le -> (Float.min, Float.max) (* exists l < r  <=>  min l < max r *)
        | Gt | Ge -> (Float.max, Float.min)
        | Eq | Neq -> assert false
      in
      let inner_scalars =
        Array.to_list
          (Array.mapi
             (fun jx _ ->
               match reduce inner_pick (inner_key_atoms jx) with
               | None -> None
               | Some f -> Some (f, jx))
             items)
      in
      let scal = Array.of_list (List.filter_map Fun.id inner_scalars) in
      stats.Stats.sorted <- stats.Stats.sorted + Array.length scal + n_rows;
      Array.sort (fun (a, _) (b, _) -> Float.compare a b) scal;
      let n = Array.length scal in
      (* first index whose scalar satisfies [sat] (scalars ascending and
         [sat] upward-closed), by binary search *)
      let lower_bound sat =
        let lo = ref 0 and hi = ref n in
        while !lo < !hi do
          stats.Stats.compared <- stats.Stats.compared + 1;
          let mid = (!lo + !hi) / 2 in
          if sat (fst scal.(mid)) then hi := mid else lo := mid + 1
        done;
        !lo
      in
      List.iteri
        (fun ri r ->
          match reduce outer_pick (outer_key_atoms r) with
          | None -> ()
          | Some ok ->
            let first, last =
              match op with
              | Lt -> (lower_bound (fun s -> ok < s), n)
              | Le -> (lower_bound (fun s -> ok <= s), n)
              | Gt -> (0, lower_bound (fun s -> not (ok > s)))
              | Ge -> (0, lower_bound (fun s -> not (ok >= s)))
              | Eq | Neq -> assert false
            in
            for g = first to last - 1 do
              rt.tick ();
              matched.(ri) <- snd scal.(g) :: matched.(ri)
            done)
        rows);
    List.concat
      (List.mapi
         (fun ri r ->
           let idxs = List.sort_uniq compare matched.(ri) in
           List.map
             (fun jx ->
               rt.tick ();
               bind_row r j.inner jx items.(jx))
             idxs)
         rows)

and sort_rows rt key dir rows =
  let keyed =
    List.map
      (fun r ->
        rt.tick ();
        let k =
          match eval rt r key with
          | [] -> `Empty
          | item :: _ -> (
            match atomize rt.doc item with
            | Num f -> `Num f
            | a -> (
              (* untyped values sort numerically when they parse *)
              let s = atom_to_string a in
              match float_of_string_opt (String.trim s) with
              | Some f -> `Num f
              | None -> `Str s))
        in
        (k, r))
      rows
  in
  let compare_keys a b =
    match (a, b) with
    | `Empty, `Empty -> 0
    | `Empty, _ -> -1 (* empty least, as with "empty least" default *)
    | _, `Empty -> 1
    | `Num x, `Num y -> Float.compare x y
    | `Num _, `Str _ -> -1
    | `Str _, `Num _ -> 1
    | `Str x, `Str y -> String.compare x y
  in
  (* descending flips the comparator rather than reversing the
     ascending result: equal-key rows keep their iteration order
     (stable sort) and () stays the least value — last in descending
     output *)
  let cmp =
    match dir with
    | Ascending -> fun (a, _) (b, _) -> compare_keys a b
    | Descending -> fun (a, _) (b, _) -> compare_keys b a
  in
  List.map snd (List.stable_sort cmp keyed)

and eval_fn rt row fn args =
  let arity n =
    if List.length args <> n then fail "%s() expects %d argument(s)" (fn_name fn) n
  in
  match fn with
  | Count ->
    arity 1;
    [ Atom (Num (float_of_int (List.length (eval rt row (List.hd args))))) ]
  | Exists ->
    arity 1;
    [ Atom (Bool (eval rt row (List.hd args) <> [])) ]
  | Empty ->
    arity 1;
    [ Atom (Bool (eval rt row (List.hd args) = [])) ]
  | Not ->
    arity 1;
    [ Atom (Bool (not (ebv (eval rt row (List.hd args))))) ]
  | String_fn ->
    arity 1;
    let s =
      match eval rt row (List.hd args) with
      | [] -> ""
      | item :: _ -> atom_to_string (atomize rt.doc item)
    in
    [ Atom (Str s) ]
  | Number_fn ->
    arity 1;
    let f =
      match eval rt row (List.hd args) with
      | [] -> Float.nan
      | item :: _ -> number_of_atom (atomize rt.doc item)
    in
    [ Atom (Num f) ]
  | Sum ->
    arity 1;
    let total =
      List.fold_left
        (fun acc item -> acc +. number_of_atom (atomize rt.doc item))
        0.0
        (eval rt row (List.hd args))
    in
    [ Atom (Num total) ]
  | Name_fn -> (
    arity 1;
    match eval rt row (List.hd args) with
    | Node v :: _ -> (
      match Doc.tag_name rt.doc v with
      | Some n -> [ Atom (Str n) ]
      | None -> [ Atom (Str "") ])
    | Tree (Tree.Element { name; _ }) :: _ -> [ Atom (Str name) ]
    | _ -> [ Atom (Str "") ])
  | Data ->
    arity 1;
    List.map (fun item -> Atom (atomize rt.doc item)) (eval rt row (List.hd args))
  | Distinct_values ->
    arity 1;
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun item ->
        let a = atomize rt.doc item in
        let key = atom_to_string a in
        if Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (Atom a)
        end)
      (eval rt row (List.hd args))
  | Concat_fn ->
    if List.length args < 2 then fail "concat() expects at least 2 arguments";
    let parts =
      List.map
        (fun a ->
          match eval rt row a with
          | [] -> ""
          | item :: _ -> atom_to_string (atomize rt.doc item))
        args
    in
    [ Atom (Str (String.concat "" parts)) ]

let execute ~doc ?(exec = Exec.make ()) (p : program) : value =
  let row = Array.make (max p.width 1) [] in
  eval { doc; exec; tick = Exec.poller exec } row p.body

(* ------------------------------------------------------------------ *)
(* rendering                                                            *)
(* ------------------------------------------------------------------ *)

let add_line buf indent s =
  Buffer.add_string buf (String.make indent ' ');
  Buffer.add_string buf s;
  Buffer.add_char buf '\n'

(* re-indent a multi-line rendering (e.g. an embedded staircase plan) *)
let add_block buf indent s =
  List.iter
    (fun line -> if line <> "" then add_line buf indent line)
    (String.split_on_char '\n' s)

let merge_backend_label = "value merge join (mpmgjn over atomized keys)"

let rec render_expr buf indent = function
  | Block b -> render_block buf indent b
  | Doc_path p ->
    add_line buf indent ("path: " ^ p.psrc);
    add_block buf (indent + 2) (Plan.physical_to_string p.phys)
  | Rel_path (e, p) ->
    add_line buf indent (Printf.sprintf "path: %s/%s" (expr_label e) p.psrc);
    add_block buf (indent + 2) (Plan.physical_to_string p.phys)
  | Elem_ctor (name, body) ->
    add_line buf indent (Printf.sprintf "element %s:" name);
    render_expr buf (indent + 2) body
  | Text_ctor body ->
    add_line buf indent "text:";
    render_expr buf (indent + 2) body
  | Seq_ctor es ->
    add_line buf indent (Printf.sprintf "sequence: %d item(s)" (List.length es));
    List.iter (render_expr buf (indent + 2)) es
  | Cond (c, t, e) ->
    add_line buf indent ("if: " ^ expr_label c);
    add_line buf (indent + 2) "then:";
    render_expr buf (indent + 4) t;
    add_line buf (indent + 2) "else:";
    render_expr buf (indent + 4) e
  | (Const _ | Slot _ | Fn_call _ | Arith _ | Compare _ | And_ebv _ | Or_ebv _) as e ->
    add_line buf indent ("expr: " ^ expr_label e)

and render_block buf indent b =
  add_line buf indent "flwor:";
  List.iter (render_op buf (indent + 2)) b.ops;
  (match b.where with
  | None -> ()
  | Some w -> add_line buf (indent + 2) ("where: " ^ expr_label w ^ "  (ebv filter)"));
  (match b.order_by with
  | None -> ()
  | Some (k, dir) ->
    add_line buf (indent + 2)
      (Printf.sprintf "order by: %s%s  (stable sort, empty least)" (expr_label k)
         (match dir with Ascending -> "" | Descending -> " descending")));
  List.iter (fun n -> add_line buf (indent + 2) ("note: " ^ n)) b.notes;
  add_line buf (indent + 2) ("return: " ^ expr_label b.return);
  match b.return with
  | Block _ | Elem_ctor _ -> render_expr buf (indent + 4) b.return
  | _ -> ()

and render_source buf indent source =
  match source with
  | Doc_path p -> add_block buf indent (Plan.physical_to_string p.phys)
  | Rel_path (_, p) -> add_block buf indent (Plan.physical_to_string p.phys)
  | Block _ -> render_expr buf indent source
  | _ -> ()

and render_op buf indent = function
  | For_op b ->
    add_line buf indent
      (Printf.sprintf "for: $%s%s in %s" b.slot.sname
         (match b.at with None -> "" | Some s -> " at $" ^ s.sname)
         (expr_label b.source));
    render_source buf (indent + 2) b.source
  | Let_op { slot; def } ->
    add_line buf indent (Printf.sprintf "let: $%s := %s" slot.sname (expr_label def));
    render_source buf (indent + 2) def
  | Join_op j ->
    add_line buf indent
      (Printf.sprintf "value join: %s %s %s" (expr_label j.outer_key)
         (cmp_to_string j.jcmp) (expr_label j.inner_key));
    add_line buf (indent + 2) ("backend: " ^ merge_backend_label);
    add_line buf (indent + 2)
      (Printf.sprintf "est: outer=%d inner=%d cost=%.0f" j.est_outer j.est_inner j.cost);
    (match j.alternatives with
    | [] -> ()
    | alts ->
      add_line buf (indent + 2)
        ("rejected: "
        ^ String.concat ", "
            (List.map (fun (name, cost) -> Printf.sprintf "%s cost=%.0f" name cost) alts)));
    add_line buf (indent + 2)
      (Printf.sprintf "build: for $%s in %s  [evaluated once]" j.inner.slot.sname
         (expr_label j.inner.source));
    render_source buf (indent + 4) j.inner.source

let program_to_string (p : program) =
  let buf = Buffer.create 512 in
  add_line buf 0 ("xquery: " ^ p.query);
  add_line buf 0 ("strategy: " ^ p.strategy);
  add_line buf 0 "plan:";
  render_expr buf 2 p.body;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let json_str s = "\"" ^ Trace.json_escape s ^ "\""

let rec expr_to_json = function
  | Const a -> Printf.sprintf "{\"op\":\"const\",\"value\":%s}" (json_str (atom_to_string a))
  | Slot s -> Printf.sprintf "{\"op\":\"var\",\"name\":%s}" (json_str s.sname)
  | Doc_path p ->
    Printf.sprintf "{\"op\":\"path\",\"src\":%s,\"plan\":%s}" (json_str p.psrc)
      (Plan.physical_to_json p.phys)
  | Rel_path (e, p) ->
    Printf.sprintf "{\"op\":\"step-path\",\"input\":%s,\"src\":%s,\"plan\":%s}"
      (expr_to_json e) (json_str p.psrc)
      (Plan.physical_to_json p.phys)
  | Seq_ctor es ->
    "{\"op\":\"seq\",\"items\":[" ^ String.concat "," (List.map expr_to_json es) ^ "]}"
  | Block b -> block_to_json b
  | Cond (c, t, e) ->
    Printf.sprintf "{\"op\":\"if\",\"cond\":%s,\"then\":%s,\"else\":%s}" (expr_to_json c)
      (expr_to_json t) (expr_to_json e)
  | Elem_ctor (name, body) ->
    Printf.sprintf "{\"op\":\"element\",\"name\":%s,\"content\":%s}" (json_str name)
      (expr_to_json body)
  | Text_ctor body -> Printf.sprintf "{\"op\":\"text\",\"content\":%s}" (expr_to_json body)
  | Fn_call (fn, args) ->
    Printf.sprintf "{\"op\":\"fn\",\"name\":%s,\"args\":[%s]}"
      (json_str (fn_name fn))
      (String.concat "," (List.map expr_to_json args))
  | Arith (op, a, b) ->
    Printf.sprintf "{\"op\":\"arith\",\"fn\":%s,\"lhs\":%s,\"rhs\":%s}"
      (json_str (arith_name op)) (expr_to_json a) (expr_to_json b)
  | Compare (op, a, b) ->
    Printf.sprintf "{\"op\":\"compare\",\"cmp\":%s,\"lhs\":%s,\"rhs\":%s}"
      (json_str (cmp_to_string op))
      (expr_to_json a) (expr_to_json b)
  | And_ebv (a, b) ->
    Printf.sprintf "{\"op\":\"and\",\"lhs\":%s,\"rhs\":%s}" (expr_to_json a) (expr_to_json b)
  | Or_ebv (a, b) ->
    Printf.sprintf "{\"op\":\"or\",\"lhs\":%s,\"rhs\":%s}" (expr_to_json a) (expr_to_json b)

and block_to_json b =
  let ops = String.concat "," (List.map op_to_json b.ops) in
  let where =
    match b.where with
    | None -> ""
    | Some w -> ",\"where\":" ^ expr_to_json w
  in
  let order =
    match b.order_by with
    | None -> ""
    | Some (k, dir) ->
      Printf.sprintf ",\"order_by\":{\"key\":%s,\"dir\":%s}" (expr_to_json k)
        (json_str (match dir with Ascending -> "ascending" | Descending -> "descending"))
  in
  let notes =
    match b.notes with
    | [] -> ""
    | ns -> ",\"notes\":[" ^ String.concat "," (List.map json_str ns) ^ "]"
  in
  Printf.sprintf "{\"op\":\"flwor\",\"ops\":[%s]%s%s%s,\"return\":%s}" ops where order notes
    (expr_to_json b.return)

and binder_to_json (b : binder) =
  Printf.sprintf "{\"var\":%s%s,\"source\":%s}" (json_str b.slot.sname)
    (match b.at with None -> "" | Some s -> ",\"at\":" ^ json_str s.sname)
    (expr_to_json b.source)

and op_to_json = function
  | For_op b -> Printf.sprintf "{\"op\":\"for\",\"binder\":%s}" (binder_to_json b)
  | Let_op { slot; def } ->
    Printf.sprintf "{\"op\":\"let\",\"var\":%s,\"def\":%s}" (json_str slot.sname)
      (expr_to_json def)
  | Join_op j ->
    let alts =
      match j.alternatives with
      | [] -> ""
      | alts ->
        ",\"rejected\":["
        ^ String.concat ","
            (List.map
               (fun (name, cost) ->
                 Printf.sprintf "{\"backend\":%s,\"cost\":%.1f}" (json_str name) cost)
               alts)
        ^ "]"
    in
    Printf.sprintf
      "{\"op\":\"value-join\",\"backend\":%s,\"cmp\":%s,\"outer_key\":%s,\"inner_key\":%s,\"build\":%s,\"est\":{\"outer\":%d,\"inner\":%d,\"cost\":%.1f}%s}"
      (json_str merge_backend_label)
      (json_str (cmp_to_string j.jcmp))
      (expr_to_json j.outer_key) (expr_to_json j.inner_key) (binder_to_json j.inner)
      j.est_outer j.est_inner j.cost alts

let program_to_json (p : program) =
  Printf.sprintf "{\"query\":%s,\"strategy\":%s,\"plan\":%s}" (json_str p.query)
    (json_str p.strategy) (expr_to_json p.body)
