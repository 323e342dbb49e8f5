(* The traced replay of a workload's read stream: each request is split
   into its public calls (Parse.query -> Eval.path_plan ->
   Eval.eval_path, or Xq_compile.compile_string -> Xq_compile.execute)
   under spans, alternating with the same kind of request run whole
   and untraced, so the tracing overhead is measured in the same run. *)

open Scj
open Report

type request = Xpath of string | Xquery of string

let run_plain session = function
  | Xpath src -> ignore (Eval.run_exn session src)
  | Xquery src -> (
    match Xq_compile.run session src with Ok _ -> () | Error e -> failwith ("xquery: " ^ e))

let or_fail what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

(* [run sp doc ~seconds ~warm ~next ~flwor]: [warm] are the workload's
   templates (their first run is the plan warm-up); [next] draws the
   stream; [flwor] are FLWOR renditions of the templates, timed when
   the stream itself carries no XQuery. *)
let run sp doc ~seconds ~warm ~next ~flwor =
  let session = Eval.session doc in
  let warmup_ms =
    Spans.span sp "plan.warmup" (fun () ->
        Util.elapsed_ms (fun () -> List.iter (run_plain session) warm))
  in
  (* the prepared-query cache, over its own session *)
  let svc = Xq_compile.service (Eval.session doc) in
  let prepared = ref 0 and hits = ref 0 in
  let parse = Util.Samples.create () and plan = Util.Samples.create () in
  let exec = Util.Samples.create () and compile = Util.Samples.create () in
  let xq_exec = Util.Samples.create () and traced = Util.Samples.create () in
  let plain = Util.Samples.create () in
  let work = ref 0 and results = ref 0 and fresh_card = ref 1 in
  let us s f =
    let r, dt = Util.timed f in
    Util.Samples.add s (1e6 *. dt);
    r
  in
  let split = function
    | Xpath src ->
      let q =
        Spans.span sp "xpath.parse" (fun () -> us parse (fun () -> or_fail "parse" (Parse.query src)))
      in
      List.iter
        (fun p ->
          ignore (Spans.span sp "plan.plan" (fun () -> Eval.path_plan session p));
          let stats = Stats.create () in
          let exec_ctx = Exec.make ~stats () in
          let r =
            Spans.span sp "xpath.exec" (fun () ->
                us exec (fun () -> Eval.eval_path ~exec:exec_ctx session p))
          in
          work := !work + stats.scanned + stats.copied + stats.compared + stats.index_nodes;
          results := !results + Nodeseq.length r)
        q
    | Xquery src ->
      let c =
        Spans.span sp "xquery.compile" (fun () ->
            us compile (fun () -> or_fail "compile" (Xq_compile.compile_string session src)))
      in
      ignore (Spans.span sp "xquery.exec" (fun () -> us xq_exec (fun () -> Xq_compile.execute c)))
  in
  (* planning a cache miss on a warm catalog: the path, made relative,
     under a context cardinality the cache has not seen *)
  let plan_miss = function
    | Xquery _ -> ()
    | Xpath src ->
      List.iter
        (fun p ->
          incr fresh_card;
          ignore
            (Spans.span sp "plan.plan_miss" (fun () ->
                 us plan (fun () ->
                     Eval.path_plan ~context_card:!fresh_card session { p with Ast.absolute = false }))))
        (or_fail "parse" (Parse.query src))
  in
  let cache_probe req =
    let lang, src = match req with Xpath s -> (`Xpath, s) | Xquery s -> (`Xquery, s) in
    let before = Xq_compile.cached_queries svc in
    ignore (or_fail "prepare" (Result.map_error Error.to_string (Xq_compile.prepare svc ~lang src)));
    incr prepared;
    if Xq_compile.cached_queries svc = before then incr hits
  in
  let deadline = Util.now () +. seconds in
  let i = ref 0 in
  while Util.now () < deadline || Util.Samples.count plain = 0 do
    let req = next () in
    if !i mod 2 = 0 then begin
      Util.Samples.add traced (Util.elapsed_ms (fun () -> Spans.request sp (fun () -> split req)));
      plan_miss req
    end
    else Util.Samples.add plain (Util.elapsed_ms (fun () -> run_plain session req));
    cache_probe req;
    incr i
  done;
  if Util.Samples.count compile = 0 then
    List.iter (fun src -> for _ = 1 to 3 do Spans.request sp (fun () -> split (Xquery src)) done) flwor;
  [
    m "plan.warmup_ms" "ms" warmup_ms;
    m "xpath.parse_us" "us" (Util.pct parse 50.0);
    m "plan.plan_us_p50" "us" (Util.pct plan 50.0);
    m "plan.plan_us_p99" "us" (Util.pct plan 99.0);
    m "xpath.exec_us_p50" "us" (Util.pct exec 50.0);
    m "xpath.exec_us_p99" "us" (Util.pct exec 99.0);
    m "plan.work_per_result" "count" (float_of_int !work /. float_of_int (max 1 !results));
    m "xquery.compile_us" "us" (Util.pct compile 50.0);
    m "xquery.exec_us" "us" (Util.pct xq_exec 50.0);
    m "xquery.cache_hit_rate" "ratio" (float_of_int !hits /. float_of_int (max 1 !prepared));
    m "trace.request_p50_ms" "ms" (Util.pct traced 50.0);
    m "trace.plain_p50_ms" "ms" (Util.pct plain 50.0);
  ]
