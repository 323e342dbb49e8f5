(* Spans recorded from the benchmark's side of each layer boundary: the
   program itself is not instrumented.  Spans live in memory until the
   run ends. *)

type span = { id : int; name : string; req : int; parent : int; start : float; stop : float }

type t = {
  mutable finished : span list;
  mutable open_ : (int * string * float) list;  (* innermost first *)
  mutable next : int;
  mutable req : int;
}

let create () = { finished = []; open_ = []; next = 0; req = 0 }

(* [span t name f] runs [f] inside a span nested under the innermost
   open one. *)
let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.open_ with (p, _, _) :: _ -> p | [] -> -1 in
  let start = Util.now () in
  t.open_ <- (id, name, start) :: t.open_;
  Fun.protect
    ~finally:(fun () ->
      t.open_ <- List.tl t.open_;
      t.finished <- { id; name; req = t.req; parent; start; stop = Util.now () } :: t.finished)
    f

(* [request t f] opens a top-level "request" span under a fresh request
   id shared by every span inside it. *)
let request t f =
  t.req <- t.req + 1;
  span t "request" f

let duration s = s.stop -. s.start

(* Per span name: count, total and self milliseconds.  Self time is the
   span minus the part of it its children cover; children of one span
   run one after another, so their durations add up. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.finished;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let n, tot, sf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. duration s, sf +. self))
    t.finished;
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, 1000.0 *. tot, 1000.0 *. sf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> Float.compare b a)

let to_json t =
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity t.finished in
  Json.Arr
    (List.rev_map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("name", Json.Str s.name);
             ("req", Json.Num (float_of_int s.req));
             ("parent", Json.Num (float_of_int s.parent));
             ("start_ms", Json.Num (1000.0 *. (s.start -. origin)));
             ("end_ms", Json.Num (1000.0 *. (s.stop -. origin)));
           ])
       t.finished)
