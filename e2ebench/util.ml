(* Clocks, sample statistics, process memory, result hashing and file
   helpers shared by every workload. *)

open Scj

(* Monotonic seconds, nanosecond resolution. *)
external now : unit -> (float[@unboxed]) = "e2e_now_byte" "e2e_now" [@@noalloc]

(* [timed f] runs [f] and returns its result with the elapsed seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let elapsed_ms f = 1000.0 *. snd (timed f)

(* A growable buffer of float samples. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let a = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 a 0 t.n;
      t.a <- a
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let to_array t = Array.sub t.a 0 t.n
end

(* Linear-interpolated percentile of [p] in [0, 100]; 0 on no samples. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float rank in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((rank -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let percentile a p = percentile_sorted (sorted a) p

let median a = percentile a 50.0

let pct s p = percentile (Samples.to_array s) p

(* [setups reps ~setup ~teardown] times [setup] [reps] times, each on a
   compacted heap after tearing the previous instance down, and returns
   the last instance with the median seconds. *)
let setups reps ~setup ~teardown =
  let times = Array.make reps 0.0 in
  let rec go i prev =
    Option.iter teardown prev;
    Gc.compact ();
    let x, dt = timed setup in
    times.(i) <- dt;
    if i + 1 < reps then go (i + 1) (Some x) else x
  in
  let x = go 0 None in
  (x, median times)

(* Median of [reps] timings of [f], in milliseconds. *)
let median_ms ?(reps = 3) f =
  median (Array.init reps (fun _ -> elapsed_ms f))

(* ------------------------------------------------------------------ *)
(* Process memory                                                       *)
(* ------------------------------------------------------------------ *)

(* A [/proc/self/status] field in MB (VmHWM = peak resident set). *)
let status_mb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let prefix = field ^ ":" in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.starts_with ~prefix line ->
        Scanf.sscanf line "%_s@: %d" (fun kb -> Some (float_of_int kb /. 1024.0))
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 131072.0

let peak_rss_mb () = match status_mb "VmHWM" with Some mb -> mb | None -> heap_mb ()

let rss_mb () = match status_mb "VmRSS" with Some mb -> mb | None -> heap_mb ()

(* ------------------------------------------------------------------ *)
(* Answers                                                              *)
(* ------------------------------------------------------------------ *)

(* Order-sensitive hash over every rank of a node sequence: two answers
   agree when their lengths and hashes agree. *)
let hash_nodes s =
  let a = Nodeseq.unsafe_array s in
  let h = ref (Array.length a) in
  for i = 0 to Array.length a - 1 do
    h := (!h lxor Array.unsafe_get a i) * 0x100000001b3
  done;
  !h

type answer = { len : int; hash : int }

let answer s = { len = Nodeseq.length s; hash = hash_nodes s }

let nodes_of_value v =
  Nodeseq.of_unsorted (List.filter_map (function Xq_eval.Node v -> Some v | _ -> None) v)

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

(* The XMark document for [scale] and [seed], serialized: what the
   program under test receives. *)
let xmark_xml ~scale ~seed =
  Xml_printer.to_string (Xmark.generate (Xmark.config ~seed:(Int64.of_int seed) ~scale ()))

(* Pre ranks of the elements named [tag] (tag_positions also lists
   attributes of that name: XMark has person="..." attributes). *)
let elements doc tag =
  Array.to_seq (Doc.tag_positions doc tag)
  |> Seq.filter (fun v -> Doc.kind doc v = Doc.Element)
  |> Array.of_seq

let load_doc xml =
  match Doc.of_string xml with Ok d -> d | Error e -> failwith ("Doc.of_string: " ^ e)

let rng seed salt = Random.State.make [| seed; salt |]

(* Endless seeded deck: every [weights] entry [(x, w)] appears [w] times
   per shuffled round, so mixes hold exact proportions. *)
let deck rng weights =
  let cards = Array.of_list (List.concat_map (fun (x, w) -> List.init w (fun _ -> x)) weights) in
  let pos = ref (Array.length cards) in
  fun () ->
    if !pos = Array.length cards then begin
      for i = Array.length cards - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = cards.(i) in
        cards.(i) <- cards.(j);
        cards.(j) <- t
      done;
      pos := 0
    end;
    let c = cards.(!pos) in
    incr pos;
    c

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc e -> acc + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let file_bytes path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Scratch space for stores, inside the directory the benchmark runs in. *)
let work_root = "_e2e_work"

let workdir name =
  let d = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d

let cleanup dir =
  rm_rf dir;
  try Unix.rmdir work_root with Unix.Unix_error _ -> ()

(* Bytes of the in-memory serving state reachable from [v]. *)
let reachable_bytes v = Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)
