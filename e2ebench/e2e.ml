(* The end-to-end benchmark's command line.

     e2e --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE] [--smoke]
     e2e all [--seed N] [--seconds S] [--runs R] [--out FILE]
     e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]
     e2e --smoke

   One workload per process, so peak memory is the workload's own.  The
   last line of stdout is the result the benchmark contract reads; --out
   appends the full record (fingerprint and extras included) as one JSON
   line. *)

let workloads =
  [
    (Axis_scan.name, Axis_scan.run);
    (Adhoc_query.name, Adhoc_query.run);
    (Serve_paged.name, Serve_paged.run);
    (Update_mix.name, Update_mix.run);
  ]

let usage () =
  prerr_endline
    "usage: e2e --workload W --seed N --seconds S --trace 0|1 [--out FILE] [--spans FILE] [--smoke]\n\
    \       e2e all [--seed N] [--seconds S] [--runs R] [--out FILE]\n\
    \       e2e compare A.jsonl B.jsonl [--bench BENCHMARK.json]\n\
    \       e2e --smoke\n\
     workloads: axis-scan adhoc-query serve-paged update-mix";
  exit 2

let append_line file line =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 file (fun oc ->
      output_string oc (line ^ "\n"))

let run_one (cfg : Report.config) ~workload ~out =
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  let sp = Spans.create () in
  let o = run cfg sp in
  Printf.printf "%s seed=%d seconds=%g trace=%b: attempted=%d failed=%d correct=%b\n" workload cfg.seed
    cfg.seconds cfg.trace o.Report.attempted o.failed o.correct;
  Report.print_table (if cfg.trace then "per-layer" else "end-to-end") o.metrics;
  if o.extras <> [] then Report.print_table "extras" o.extras;
  if cfg.trace then begin
    Printf.printf "spans (self = span minus its children)\n";
    List.iter
      (fun (n, c, tot, self) ->
        Printf.printf "  %-24s n=%-7d total=%11.2fms self=%11.2fms\n" n c tot self)
      (Spans.self_times sp)
  end;
  Option.iter
    (fun f -> Out_channel.with_open_text f (fun oc -> output_string oc (Json.to_string (Spans.to_json sp))))
    cfg.spans_file;
  Option.iter (fun f -> append_line f (Json.to_string (Report.record cfg ~workload o))) out;
  print_endline (Report.final_line o);
  if o.correct then 0 else 1

(* Runs one workload in a child process; returns its exit status and
   the parsed last line of its stdout (the child's stdout is echoed to
   our stderr). *)
let child args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list (Sys.executable_name :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let text = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  prerr_string text;
  let last =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") |> List.rev
    |> function l :: _ -> Json.parse l | [] -> Error "no output"
  in
  ((match status with Unix.WEXITED c -> c | _ -> 1), last)

(* Checks a child's result line against the contract: the four keys,
   a passing oracle, and exactly the metric names BENCHMARK.json lists. *)
let check_result ~expected line =
  match line with
  | Error e -> Error ("result line: " ^ e)
  | Ok j -> (
    let field k = Json.member k j in
    match (field "correct", field "attempted", field "failed", field "metrics") with
    | Some (Json.Bool true), Some (Json.Num a), Some (Json.Num _), Some (Json.Obj ms) when a >= 1.0 ->
      let got = List.sort compare (List.map fst ms) in
      if got = List.sort compare expected then Ok ms
      else Error ("metric names differ from BENCHMARK.json: " ^ String.concat "," got)
    | _ -> Error "malformed or failing result line")

(* Every workload, untraced [runs] times on consecutive seeds and once
   traced, each in its own process; then the medians and the tracing
   overhead. *)
let run_all ~seed ~seconds ~runs ~out ~smoke ~bench =
  let out = match out with Some f -> Some f | None when smoke -> None | None -> Some "e2e-results.jsonl" in
  let e2e = Compare.bench_names bench "end_to_end" and layers = Compare.bench_names bench "per_layer" in
  let failures = ref 0 in
  let summary = ref [] in
  List.iter
    (fun (w, _) ->
      let go trace seed =
        let args =
          [ "--workload"; w; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
          @ [ "--trace"; (if trace then "1" else "0") ]
          @ (match out with Some f -> [ "--out"; f ] | None -> [])
          @ if smoke then [ "--smoke" ] else []
        in
        let code, line = child args in
        match check_result ~expected:(if trace then layers else e2e) line with
        | Ok ms when code = 0 -> summary := ((w, trace), ms) :: !summary
        | Ok _ ->
          incr failures;
          Printf.eprintf "%s: exit %d\n%!" w code
        | Error e ->
          incr failures;
          Printf.eprintf "%s: %s\n%!" w e
      in
      for r = 0 to runs - 1 do
        go false (seed + r)
      done;
      go true seed)
    workloads;
  let value ms k =
    Option.bind (List.assoc_opt k ms) (Json.member "value") |> Fun.flip Option.bind Json.to_num
  in
  List.iter
    (fun (w, _) ->
      let runs_of trace =
        List.filter_map (fun ((w', t), ms) -> if w' = w && t = trace then Some ms else None) !summary
      in
      let med k rs = Util.median (Array.of_list (List.filter_map (fun ms -> value ms k) rs)) in
      Printf.printf "%s\n" w;
      (match runs_of false with
      | [] -> ()
      | (ms :: _) as rs ->
        List.iter
          (fun (k, v) ->
            let u = Option.value ~default:"" (Option.bind (Json.member "unit" v) Json.to_str) in
            Printf.printf "  %-18s %12.4f %s (median of %d)\n" k (med k rs) u (List.length rs))
          ms);
      match (runs_of false, runs_of true) with
      | (_ :: _ as plain), t :: _ ->
        let get k = Option.value ~default:Float.nan (value t k) in
        Printf.printf
          "  tracing overhead: replay traced - untraced p50 %+.4f ms; traced replay - run latency_p50 %+.4f ms\n"
          (get "trace.request_p50_ms" -. get "trace.plain_p50_ms")
          (get "trace.request_p50_ms" -. med "latency_p50_ms" plain)
      | _ -> ())
    workloads;
  Option.iter (Printf.printf "results in %s\n") out;
  Printf.printf "%d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload = ref None and seed = ref 1 and seconds = ref 25.0 and trace = ref false in
  let out = ref None and spans = ref None and smoke = ref false and runs = ref 1 in
  let bench = ref "BENCHMARK.json" and positional = ref [] in
  let num f v = match f v with Some x -> x | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := num int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := num float_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := num int_of_string_opt v <> 0; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | "--spans" :: v :: rest -> spans := Some v; parse rest
    | "--runs" :: v :: rest -> runs := max 1 (num int_of_string_opt v); parse rest
    | "--bench" :: v :: rest -> bench := v; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | v :: rest when not (String.starts_with ~prefix:"--" v) ->
      positional := !positional @ [ v ];
      parse rest
    | _ :: _ -> usage ()
    | [] -> ()
  in
  parse args;
  let code =
    match (!positional, !workload) with
    | [ "compare"; a; b ], None -> (
      try Compare.run ~bench:!bench a b with Failure e -> prerr_endline ("compare: " ^ e); 2)
    | [ "all" ], None -> (
      try run_all ~seed:!seed ~seconds:!seconds ~runs:!runs ~out:!out ~smoke:!smoke ~bench:!bench
      with Failure e -> prerr_endline ("all: " ^ e); 2)
    | [], None when !smoke -> (
      try run_all ~seed:!seed ~seconds:0.5 ~runs:1 ~out:!out ~smoke:true ~bench:!bench
      with Failure e -> prerr_endline ("smoke: " ^ e); 2)
    | [], Some w ->
      let cfg =
        { Report.seed = !seed; seconds = !seconds; trace = !trace; smoke = !smoke; spans_file = !spans }
      in
      run_one cfg ~workload:w ~out:!out
    | _ -> usage ()
  in
  exit code
