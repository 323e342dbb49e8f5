(* [e2e compare A B]: per workload and end-to-end metric, each side's
   median and quartiles and a verdict against the metric's bound in
   BENCHMARK.json.  A is the parent (baseline), B the change.

   Verdicts: "worse" when B's median is worse than A's by more than the
   bound; "unresolved" when A's own quartile spread is wider than the
   bound (unless every B run beats every A run), or when a time metric
   was measured on different hosts; "improved" when B wins at least
   nine tenths of at least ten run pairs and the medians differ by more
   than A's quartile spread; "within bound" otherwise. *)

type metric = { name : string; unit_ : string; lower_better : bool; bound : float }

let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt

let read_file f =
  match In_channel.with_open_text f In_channel.input_all with
  | s -> s
  | exception Sys_error e -> fail "cannot read %s" e

(* The [key] list of BENCHMARK.json ("end_to_end", "per_layer"). *)
let bench_list file key =
  match Json.parse (read_file file) with
  | Error e -> fail "%s: %s" file e
  | Ok j -> (
    match Json.member key j with Some (Json.Arr l) -> l | _ -> fail "%s: no %s list" file key)

let field file e k conv =
  match Option.bind (Json.member k e) conv with Some v -> v | None -> fail "%s: an entry lacks %s" file k

let bench_metrics file =
  List.map
    (fun e ->
      let field k conv = field file e k conv in
      {
        name = field "name" Json.to_str;
        unit_ = field "unit" Json.to_str;
        lower_better = field "better" Json.to_str = "lower";
        bound = field "bound" Json.to_num;
      })
    (bench_list file "end_to_end")

let bench_names file key = List.map (fun e -> field file e "name" Json.to_str) (bench_list file key)

(* Untraced run records of a results file, in file order. *)
let records file =
  let rs =
    String.split_on_char '\n' (read_file file)
    |> List.filter (fun l -> String.trim l <> "")
    |> List.filter_map (fun l ->
           match Json.parse l with
           | Error e -> fail "%s: %s" file e
           | Ok j -> if Json.member "trace" j = Some (Json.Bool true) then None else Some j)
  in
  if rs = [] then fail "%s: no untraced results" file;
  rs

let workload r = Option.value ~default:"?" (Option.bind (Json.member "workload" r) Json.to_str)

let value r name =
  Option.bind (Json.member "metrics" r) (Json.member name)
  |> Fun.flip Option.bind (Json.member "value")
  |> Fun.flip Option.bind Json.to_num

let host r =
  Option.bind (Json.member "fingerprint" r) (Json.member "host") |> Option.map Json.to_string

(* statistics.quantiles(values, n=4), "exclusive" method. *)
let quartiles values =
  let d = Util.sorted (Array.of_list values) in
  let n = Array.length d in
  if n < 4 then (d.(0), Util.percentile_sorted d 50.0, d.(n - 1))
  else
    let q i =
      let j = min (n - 1) (max 1 (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((d.(j - 1) *. (4.0 -. delta)) +. (d.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let time_unit u = List.mem u [ "s"; "ms"; "us"; "qps" ]

let verdict m ~same_host a b =
  let q1a, meda, q3a = quartiles a and _, medb, _ = quartiles b in
  let better x y = if m.lower_better then y < x else y > x in
  let worsening = (if m.lower_better then medb -. meda else meda -. medb) /. Float.abs meda in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better x y) a) b in
  let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
  let pairs = zip a b in
  let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
  let iqr = q3a -. q1a in
  if (not same_host) && time_unit m.unit_ then "unresolved (different hosts)"
  else if iqr /. Float.abs meda > m.bound && not all_better then "unresolved (spread > bound)"
  else if worsening > m.bound then "worse"
  else if
    all_better
    || List.length pairs >= 10
       && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
       && Float.abs (medb -. meda) > iqr
  then "improved"
  else "within bound"

let run ~bench a_file b_file =
  let metrics = bench_metrics bench in
  let a = records a_file and b = records b_file in
  let workloads = List.sort_uniq String.compare (List.map workload (a @ b)) in
  let bad = ref 0 in
  Printf.printf "%-12s %-16s %-34s %-34s %8s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "verdict";
  List.iter
    (fun w ->
      let side rs = List.filter (fun r -> workload r = w) rs in
      let ra = side a and rb = side b in
      let hosts rs = List.sort_uniq compare (List.map host rs) in
      let same_host = hosts ra = hosts rb && List.length (hosts ra) = 1 in
      List.iter
        (fun m ->
          let va = List.filter_map (fun r -> value r m.name) ra
          and vb = List.filter_map (fun r -> value r m.name) rb in
          if va = [] || vb = [] then
            fail "%s: metric %s missing from %s" w m.name (if va = [] then a_file else b_file);
          let show v =
            let q1, med, q3 = quartiles v in
            Printf.sprintf "%.4g [%.4g, %.4g] n=%d" med q1 q3 (List.length v)
          in
          let v = verdict m ~same_host va vb in
          if String.starts_with ~prefix:"worse" v || String.starts_with ~prefix:"unresolved" v then
            incr bad;
          let _, meda, _ = quartiles va and _, medb, _ = quartiles vb in
          Printf.printf "%-12s %-16s %-34s %-34s %+7.1f%%  %s (bound %.0f%%)\n" w m.name (show va) (show vb)
            (100.0 *. (medb -. meda) /. Float.abs meda)
            v (100.0 *. m.bound))
        metrics)
    workloads;
  if !bad > 0 then 1 else 0
