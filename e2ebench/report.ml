(* What one run reports, and how it is printed and recorded. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;  (** failed + timed out + rejected + wrong answers *)
  correct : bool;  (** every oracle check passed *)
  metrics : metric list;  (** end-to-end (untraced run) or per-layer (traced run) *)
  extras : metric list;  (** workload-specific figures outside BENCHMARK.json *)
  params : (string * float) list;  (** scale, rates, workers: part of the fingerprint *)
}

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  smoke : bool;  (** tiny scales, oracles on *)
  spans_file : string option;
}

(* How many times an untraced run sets up, for the median [setup_s];
   traced and smoke runs report no set-up time and set up once. *)
let setup_reps cfg n = if cfg.trace || cfg.smoke then 1 else n

(* Later entries win: a workload's own measurement of a layer replaces
   the generic probe's. *)
let merge lists =
  List.fold_left
    (fun acc l -> List.filter (fun x -> not (List.exists (fun y -> y.name = x.name) l)) acc @ l)
    [] lists

let metrics_json l =
  Json.Obj
    (List.map
       (fun x -> (x.name, Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]))
       l)

(* The line the benchmark contract reads: the last line of stdout. *)
let final_line o =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ("metrics", metrics_json o.metrics);
       ])

(* The commit checked out in the working directory, if it is a git
   checkout. *)
let git_head () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line

let cpu_model () =
  match open_in "/proc/cpuinfo" with
  | exception Sys_error _ -> "unknown"
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> "unknown"
      | line when String.starts_with ~prefix:"model name" line -> (
        match String.index_opt line ':' with
        | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
        | None -> "unknown")
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* The host and settings a result was measured under.  [compare] treats
   time metrics from different [host] fingerprints as unresolved. *)
let fingerprint cfg ~workload params =
  Json.Obj
    [
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
            ("cpu", Json.Str (cpu_model ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("tracing", Json.Bool cfg.trace);
            ("smoke", Json.Bool cfg.smoke);
            ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) params));
          ] );
      ("git", Json.Str (git_head ()));
      ("seed", Json.Num (float_of_int cfg.seed));
      ("workload", Json.Str workload);
    ]

let record cfg ~workload o =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int cfg.seed));
      ("trace", Json.Bool cfg.trace);
      ("fingerprint", fingerprint cfg ~workload o.params);
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.attempted));
      ("failed", Json.Num (float_of_int o.failed));
      ("metrics", metrics_json o.metrics);
      ("extras", metrics_json o.extras);
    ]

let print_table title l =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-32s %16.6g %s\n" x.name x.value x.unit_) l

(* Queue wait is what the client saw minus what the server spent. *)
let server_metrics ~client ~service =
  let client = Util.Samples.to_array client and service = Util.Samples.to_array service in
  let wait = Array.mapi (fun i c -> Float.max 0.0 (c -. service.(i))) client in
  [
    m "server.queue_wait_p50_ms" "ms" (Util.percentile wait 50.0);
    m "server.queue_wait_p99_ms" "ms" (Util.percentile wait 99.0);
    m "server.service_p50_ms" "ms" (Util.percentile service 50.0);
    m "server.service_p99_ms" "ms" (Util.percentile service 99.0);
  ]
