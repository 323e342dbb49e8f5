module Axis = Scj_encoding.Axis
module Nodeseq = Scj_encoding.Nodeseq
module Exec = Scj_trace.Exec
module Trace = Scj_trace.Trace

type node_test =
  | Name of string
  | Wildcard
  | Any_node
  | Text_node
  | Comment_node
  | Pi_node of string option

type predicate = {
  label : string;
  positional : bool;
  rank : int;
  form : form option;
  eval : Exec.t -> node:int -> pos:int -> last:int -> bool;
}

and form =
  | Exists of step list
  | Value of step list * (int -> bool)
  | And of form * form
  | Or of form * form
  | Not of form

and step = { axis : Axis.t; test : node_test; predicates : predicate list }

type source = Root | Document | Context

type logical = L_source of source | L_step of logical * step | L_union of logical list

type backend =
  | Serial of Exec.skip_mode
  | Morsel of Exec.skip_mode
  | Paged
  | Btree of { delimiter : bool }
  | Mpmgjn
  | Structjoin
  | Naive

type push = No_push | Push_tag of string | Push_guide of int list | Push_test

type direction = Desc | Anc | Following | Preceding

type estimate = { card_in : int; touches : int; card_out : int; cost : float }

type impl =
  | Join of { dir : direction; or_self : bool; backend : backend; push : push }
  | Structural
  | Select_self
  | Empty_result

type phys_step = {
  step : step;
  impl : impl;
  est : estimate;
  alternatives : (string * float) list;
  push_note : string option;
  guide_note : string option;
  per_node : bool;
  semijoin : bool;
  pred_note : string option;
}

type physical =
  | P_source of source * int
  | P_step of physical * phys_step
  | P_union of physical list

(* ------------------------------------------------------------------ *)
(* rendering                                                            *)
(* ------------------------------------------------------------------ *)

let test_to_string = function
  | Name n -> n
  | Wildcard -> "*"
  | Any_node -> "node()"
  | Text_node -> "text()"
  | Comment_node -> "comment()"
  | Pi_node None -> "processing-instruction()"
  | Pi_node (Some t) -> Printf.sprintf "processing-instruction('%s')" t

let step_to_string s =
  let buf = Buffer.create 32 in
  Buffer.add_string buf (Axis.to_string s.axis);
  Buffer.add_string buf "::";
  Buffer.add_string buf (test_to_string s.test);
  List.iter (fun p -> Buffer.add_string buf ("[" ^ p.label ^ "]")) s.predicates;
  Buffer.contents buf

let source_to_string = function
  | Root -> "root element (pre=0)"
  | Document -> "document node (emulated at the root element)"
  | Context -> "caller context"

let skip_mode_to_string = Exec.skip_mode_to_string

let backend_to_string = function
  | Serial mode -> Printf.sprintf "staircase join (serial, %s)" (skip_mode_to_string mode)
  | Morsel mode -> Printf.sprintf "staircase join (morsel, %s)" (skip_mode_to_string mode)
  | Paged -> "staircase join (paged, estimation)"
  | Btree { delimiter } ->
    if delimiter then "sql b-tree plan (fig. 3, eq.-1 delimiter)" else "sql b-tree plan (fig. 3)"
  | Mpmgjn -> "mpmgjn"
  | Structjoin -> "structural join"
  | Naive -> "naive region queries"

let push_to_string = function
  | No_push -> "none"
  | Push_tag t -> "tag '" ^ t ^ "'"
  | Push_guide ids -> Printf.sprintf "guide partition (%d path(s))" (List.length ids)
  | Push_test -> "node test in the join kernel"

let predicate_mode ps =
  if ps.per_node then "positional, per-context-node"
  else if not ps.semijoin then "per-node filter"
  else if List.for_all (fun p -> p.form <> None) ps.step.predicates then "semijoin"
  else "semijoin, then per-node filter"

let direction_to_string = function
  | Desc -> "descendant"
  | Anc -> "ancestor"
  | Following -> "following"
  | Preceding -> "preceding"

let rec logical_to_string = function
  | L_source Root -> "root()"
  | L_source Document -> "/"
  | L_source Context -> "."
  | L_step (input, s) ->
    let prefix =
      match input with
      | L_source Document -> "/"
      | L_source Root -> "root()/"
      | L_source Context -> ""
      | (L_step _ | L_union _) as i -> logical_to_string i ^ "/"
    in
    prefix ^ step_to_string s
  | L_union ls -> "(" ^ String.concat " | " (List.map logical_to_string ls) ^ ")"

let impl_header ps =
  match ps.impl with
  | Join _ -> "join: " ^ step_to_string ps.step
  | Structural -> "struct: " ^ step_to_string ps.step
  | Select_self -> "select: " ^ step_to_string ps.step
  | Empty_result -> "empty: " ^ step_to_string ps.step

let add_line buf indent s =
  Buffer.add_string buf (String.make indent ' ');
  Buffer.add_string buf s;
  Buffer.add_char buf '\n'

let render_step buf indent ps =
  add_line buf indent (impl_header ps);
  (match ps.impl with
  | Join { dir; or_self; backend; push = _ } ->
    add_line buf (indent + 2)
      (Printf.sprintf "backend: %s%s" (backend_to_string backend)
         (if or_self then " + self" else ""));
    (match dir with
    | Following | Preceding ->
      add_line buf (indent + 2) "note: context prunes to a single region query (§3.1)"
    | Desc | Anc -> ())
  | Structural -> add_line buf (indent + 2) "impl: structural size/parent arithmetic"
  | Select_self -> add_line buf (indent + 2) "impl: filter over the context"
  | Empty_result -> add_line buf (indent + 2) "impl: statically empty");
  (match ps.push_note with
  | Some note -> add_line buf (indent + 2) ("pushdown: " ^ note)
  | None -> ());
  (match ps.guide_note with
  | Some note -> add_line buf (indent + 2) ("guide: " ^ note)
  | None -> ());
  (match ps.step.predicates with
  | [] -> ()
  | preds ->
    add_line buf (indent + 2)
      (Printf.sprintf "predicates: %d (%s)" (List.length preds) (predicate_mode ps)));
  (match ps.pred_note with
  | Some note -> add_line buf (indent + 2) ("semijoin: " ^ note)
  | None -> ());
  add_line buf (indent + 2)
    (Printf.sprintf "est: in=%d touches=%d out=%d cost=%.0f" ps.est.card_in ps.est.touches
       ps.est.card_out ps.est.cost);
  match ps.alternatives with
  | [] -> ()
  | alts ->
    add_line buf (indent + 2)
      ("rejected: "
      ^ String.concat ", "
          (List.map (fun (name, cost) -> Printf.sprintf "%s cost=%.0f" name cost) alts))

let rec render buf indent = function
  | P_source (s, card) ->
    add_line buf indent (Printf.sprintf "source: %s  [est card=%d]" (source_to_string s) card)
  | P_step (input, ps) ->
    render buf indent input;
    render_step buf indent ps
  | P_union ps ->
    add_line buf indent
      (Printf.sprintf "union: %d branch(es), duplicate-eliminating merge" (List.length ps));
    List.iteri
      (fun i p ->
        add_line buf (indent + 2) (Printf.sprintf "branch %d:" (i + 1));
        render buf (indent + 4) p)
      ps

let physical_to_string p =
  let buf = Buffer.create 512 in
  render buf 0 p;
  Buffer.contents buf

let pp_physical ppf p = Format.pp_print_string ppf (physical_to_string p)

(* ------------------------------------------------------------------ *)
(* JSON                                                                 *)
(* ------------------------------------------------------------------ *)

let json_str s = "\"" ^ Trace.json_escape s ^ "\""

let est_to_json e =
  Printf.sprintf "{\"in\":%d,\"touches\":%d,\"out\":%d,\"cost\":%.1f}" e.card_in e.touches
    e.card_out e.cost

let rec physical_to_json = function
  | P_source (s, card) ->
    let name =
      match s with Root -> "root" | Document -> "document" | Context -> "context"
    in
    Printf.sprintf "{\"op\":\"source\",\"source\":%s,\"card\":%d}" (json_str name) card
  | P_step (input, ps) ->
    let kind, extra =
      match ps.impl with
      | Join { dir; or_self; backend; push } ->
        ( "join",
          Printf.sprintf ",\"dir\":%s,\"or_self\":%b,\"backend\":%s,\"push\":%s"
            (json_str (direction_to_string dir))
            or_self
            (json_str (backend_to_string backend))
            (json_str (push_to_string push)) )
      | Structural -> ("struct", "")
      | Select_self -> ("select", "")
      | Empty_result -> ("empty", "")
    in
    let alts =
      match ps.alternatives with
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
    let guide =
      match ps.guide_note with
      | None -> ""
      | Some note -> ",\"guide\":" ^ json_str note
    in
    Printf.sprintf
      "{\"op\":%s,\"step\":%s%s,\"per_node\":%b,\"semijoin\":%b,\"est\":%s%s%s,\"input\":%s}"
      (json_str kind)
      (json_str (step_to_string ps.step))
      extra ps.per_node ps.semijoin (est_to_json ps.est) alts guide (physical_to_json input)
  | P_union ps ->
    "{\"op\":\"union\",\"branches\":[" ^ String.concat "," (List.map physical_to_json ps) ^ "]}"

(* the guide annotations in execution order, for the plan-JSON section *)
let physical_guide_notes p =
  let rec go acc = function
    | P_source _ -> acc
    | P_step (input, ps) ->
      let acc = go acc input in
      (match ps.guide_note with
      | Some note -> (step_to_string ps.step, note) :: acc
      | None -> acc)
    | P_union branches -> List.fold_left go acc branches
  in
  List.rev (go [] p)
