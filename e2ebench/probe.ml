(* Direct calls into each layer's public functions on a workload's own
   document, timed from outside.  Every workload's traced run ends with
   this probe, so every per-layer metric exists for every workload. *)

open Scj
open Report

(* ------------------------------------------------------------------ *)
(* Update streams                                                       *)
(* ------------------------------------------------------------------ *)

let retag = [| "keyword"; "emph"; "bold" |]

let fragment k =
  Tree.elem
    ~attributes:[ ("id", Printf.sprintf "person_new%d" k) ]
    "person"
    [
      Tree.elem "name" [ Tree.text (Printf.sprintf "New Bidder %d" k) ];
      Tree.elem
        ~attributes:[ ("income", string_of_int (20000 + (k * 7919 mod 80000))) ]
        "profile"
        [ Tree.elem "education" [ Tree.text "College" ]; Tree.elem "interest" [] ];
    ]

(* [ops ~seed doc n]: [n] seeded structural updates that keep the
   document size bounded.  Inserts append a fragment as the root
   element's last child; deletes remove only fragments inserted
   earlier; renames retag original keyword/emph/bold elements.  Ranks
   are tracked here, so the stream depends on the seed and the base
   document alone and every op is valid when applied in order. *)
let ops ~seed doc n =
  let rng = Util.rng seed 17 in
  let base_n = Doc.n_nodes doc in
  let targets =
    Array.concat (Array.to_list (Array.map (Util.elements doc) retag))
  in
  let live = ref [] (* (pre, size) of inserted fragments, ascending *) in
  let total = ref base_n in
  List.init n (fun k ->
      let roll = Random.State.float rng 1.0 in
      if !live = [] || roll < 0.45 then begin
        let f = fragment k in
        let size = Tree.node_count f in
        live := !live @ [ (!total, size) ];
        total := !total + size;
        Update.Insert { parent = Doc.root doc; before = None; fragment = f }
      end
      else if roll < 0.75 || Array.length targets = 0 then begin
        let i = Random.State.int rng (List.length !live) in
        let pre, size = List.nth !live i in
        live :=
          List.filteri (fun j _ -> j <> i) !live
          |> List.map (fun (p, s) -> if p > pre then (p - size, s) else (p, s));
        total := !total - size;
        Update.Delete { pre }
      end
      else
        let pre = targets.(Random.State.int rng (Array.length targets)) in
        Update.Rename { pre; name = retag.(Random.State.int rng (Array.length retag)) })

(* ------------------------------------------------------------------ *)
(* Probes                                                               *)
(* ------------------------------------------------------------------ *)

(* Q1's and Q2's context nodes: every profile, every increase. *)
let contexts doc =
  let tag t = Nodeseq.of_sorted_array (Util.elements doc t) in
  (tag "profile", tag "increase")

let kernel sp doc ~reps =
  let q1, q2 = contexts doc in
  let root = Nodeseq.singleton (Doc.root doc) in
  (* one counted pass: work and allocation per result *)
  let stats = Stats.create () in
  let exec = Exec.make ~stats () in
  let words0 = Gc.minor_words () in
  let results =
    Spans.span sp "core.counted" (fun () ->
        Nodeseq.length (Staircase.desc ~exec doc q1)
        + Nodeseq.length (Staircase.anc ~exec doc q2)
        + Nodeseq.length (Staircase.desc ~exec doc root))
  in
  let words = Gc.minor_words () -. words0 in
  let touched = float_of_int (Stats.touched stats) in
  let per_result x = x /. float_of_int (max 1 results) in
  let time name f = Spans.span sp name (fun () -> Util.median_ms ~reps (fun () -> ignore (f ()))) in
  let par = Exec.make ~domains:2 () in
  [
    m "core.desc_ms" "ms" (time "core.desc" (fun () -> Staircase.desc doc q1));
    m "core.anc_ms" "ms" (time "core.anc" (fun () -> Staircase.anc doc q2));
    m "core.root_desc_ms" "ms" (time "core.root_desc" (fun () -> Staircase.desc doc root));
    m "core.touched_per_result" "count" (per_result touched);
    m "core.copied_share" "ratio" (float_of_int stats.Stats.copied /. Float.max 1.0 touched);
    m "core.alloc_words_per_result" "count" (per_result words);
    m "frag.morsel_desc_ms" "ms"
      (time "frag.morsel_desc" (fun () -> Scj_frag.Morsel.desc ~exec:par doc q1));
    m "frag.parallel_desc_ms" "ms" (time "frag.parallel_desc" (fun () -> Parallel.desc ~exec:par doc q1));
  ]

(* Ingest: parse, guide, store create/open, in-memory page image.  The
   store stays open for the pager and update probes. *)
let ingest sp ~dir ~xml doc ~reps =
  let ms name f = Spans.span sp name (fun () -> Util.median_ms ~reps f) in
  let load = ms "encoding.load" (fun () -> ignore (Util.load_doc xml)) in
  let guide = ms "guide.build" (fun () -> ignore (Guide.build doc)) in
  let create =
    Spans.span sp "store.create" (fun () ->
        Util.elapsed_ms (fun () -> Store.close (Store.create ~path:dir doc)))
  in
  let open_ () =
    match Store.open_ dir with Ok s -> s | Error e -> failwith (Error.to_string e)
  in
  let open_ms = ms "store.open" (fun () -> Store.close (open_ ())) in
  let image = ms "pager.image_build" (fun () -> ignore (Paged_doc.load ~capacity:24 doc)) in
  ( open_ (),
    [
      m "encoding.load_ms" "ms" load;
      m "guide.build_ms" "ms" guide;
      m "store.create_ms" "ms" create;
      m "store.open_ms" "ms" open_ms;
      m "pager.image_build_ms" "ms" image;
    ] )

(* Pool traffic of a 90/10 hot/scan Step stream over the store's page
   file behind a 2Q pool holding a quarter of its pages, then a warm
   descendant step with every page resident. *)
let pager sp store doc ~reps =
  let q1, q2 = contexts doc in
  let root = Nodeseq.singleton (Doc.root doc) in
  let base = Store.pool_store store in
  let total = Buffer_pool.Store.n_pages base in
  let view capacity =
    Paged_doc.attach ~n:(Doc.n_nodes doc) ~height:(Doc.height doc)
      (Buffer_pool.create ~policy:Buffer_pool.Two_q ~stripes:4 ~capacity base)
  in
  let cold = view (max 12 (total / 4)) in
  let queries = 40 in
  let read0 = Store.bytes_read store in
  Spans.span sp "pager.stream" (fun () ->
      for i = 0 to queries - 1 do
        ignore
          (match i mod 10 with
          | 9 -> Paged_doc.desc cold root
          | k when k mod 2 = 0 -> Paged_doc.desc cold q1
          | _ -> Paged_doc.anc cold q2)
      done);
  let hits, faults, evictions = Buffer_pool.stats (Paged_doc.pool cold) in
  let per_query x = float_of_int x /. float_of_int queries in
  let warm = view (max 12 total) in
  ignore (Paged_doc.desc warm q1);
  [
    m "pager.hit_rate" "ratio" (float_of_int hits /. float_of_int (max 1 (hits + faults)));
    m "pager.faults_per_query" "count" (per_query faults);
    m "pager.evictions_per_query" "count" (per_query evictions);
    m "store.bytes_read_per_query" "bytes" (per_query (Store.bytes_read store - read0));
    m "pager.desc_ms" "ms"
      (Spans.span sp "pager.desc" (fun () ->
           Util.median_ms ~reps (fun () -> ignore (Paged_doc.desc warm q1))));
  ]

(* Replays [ops] through each layer that a commit crosses: the
   functional copy, guide maintenance, session evolution (re-warmed
   with [warm] after each op, as a server worker would) and the WAL
   commit of the open store; then the checkpoint. *)
let updates sp ~dir store doc ~ops ~warm =
  let apply = Util.Samples.create () and guide_up = Util.Samples.create () in
  let evolve = Util.Samples.create () and commit = Util.Samples.create () in
  let ms s f =
    let r, dt = Util.timed f in
    Util.Samples.add s (1000.0 *. dt);
    r
  in
  let session = Eval.session doc in
  warm session;
  let guide = Guide.build doc in
  ignore
    (List.fold_left
       (fun (cur, guide, session) op ->
         let applied =
           Spans.span sp "update.apply" (fun () ->
               ms apply (fun () ->
                   match Update.apply cur op with
                   | Ok a -> a
                   | Error e -> failwith (Error.to_string e)))
         in
         let { Update.doc = next; splice; delta } = applied in
         let guide =
           Spans.span sp "guide.update" (fun () ->
               ms guide_up (fun () -> Guide.update guide ~old_doc:cur ~doc:next ~splice ~delta))
         in
         let session =
           Spans.span sp "plan.evolve" (fun () -> ms evolve (fun () -> Eval.evolve session applied))
         in
         warm session;
         Spans.span sp "store.apply" (fun () ->
             ms commit (fun () ->
                 match Store.apply store op with
                 | Ok _ -> ()
                 | Error e -> failwith (Error.to_string e)));
         (next, guide, session))
       (doc, guide, session) ops);
  let n = List.length ops in
  (* before the checkpoint, which folds the log into the page file *)
  let wal = Util.file_bytes (Filename.concat dir "wal.scj") in
  let checkpoint =
    Spans.span sp "store.checkpoint" (fun () -> Util.elapsed_ms (fun () -> Store.checkpoint store))
  in
  [
    m "update.apply_ms" "ms" (Util.pct apply 50.0);
    m "guide.update_ms" "ms" (Util.pct guide_up 50.0);
    m "plan.evolve_ms" "ms" (Util.pct evolve 50.0);
    m "store.apply_ms_p50" "ms" (Util.pct commit 50.0);
    m "store.apply_ms_p95" "ms" (Util.pct commit 95.0);
    m "store.wal_bytes_per_commit" "bytes" (float_of_int wal /. float_of_int (max 1 n));
    m "store.checkpoint_ms" "ms" checkpoint;
  ]

(* Every probe, in a scratch store under [dir]. *)
let run sp ~dir ~xml doc ~ops ~warm ~reps =
  let store_dir = Filename.concat dir "probe-store" in
  let store, ingest_m = ingest sp ~dir:store_dir ~xml doc ~reps in
  Fun.protect
    ~finally:(fun () -> Store.close store)
    (fun () ->
      let kernel_m = kernel sp doc ~reps:(4 * reps) in
      let pager_m = pager sp store doc ~reps:(4 * reps) in
      let update_m = updates sp ~dir:store_dir store doc ~ops ~warm in
      ingest_m @ kernel_m @ pager_m @ update_m)
