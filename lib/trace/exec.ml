module Stats = Scj_stats.Stats

type skip_mode = No_skipping | Skipping | Estimation | Exact_size

let skip_mode_to_string = function
  | No_skipping -> "no-skipping"
  | Skipping -> "skipping"
  | Estimation -> "estimation"
  | Exact_size -> "exact-size"

let skip_mode_of_string = function
  | "no-skipping" -> Some No_skipping
  | "skipping" -> Some Skipping
  | "estimation" -> Some Estimation
  | "exact-size" -> Some Exact_size
  | _ -> None

let all_skip_modes = [ No_skipping; Skipping; Estimation; Exact_size ]

type t = {
  mode : skip_mode;
  stats : Stats.t;
  trace : Trace.t option;
  domains : int;
  check : unit -> unit;
}

let no_check = ignore

(* [n] clamped to what the hardware supports: at least 1, at most
   [Domain.recommended_domain_count] (the runtime's view of usable
   cores). *)
let clamp_domains n = max 1 (min n (Domain.recommended_domain_count ()))

(* The default domain budget: the hardware count, capped at 8 unless the
   [SCJ_DOMAINS] env var overrides the cap (still clamped to the
   hardware count — oversubscribing domains only adds scheduling
   noise). *)
let recommended_domains =
  lazy
    (let cap =
       match Option.bind (Sys.getenv_opt "SCJ_DOMAINS") int_of_string_opt with
       | Some n when n >= 1 -> n
       | Some _ | None -> 8
     in
     clamp_domains cap)

let default_domains () = Lazy.force recommended_domains

let make ?(mode = Estimation) ?domains ?stats ?trace ?(check = no_check) () =
  let stats =
    match (stats, trace) with
    | Some s, _ -> s
    | None, Some tr -> Trace.stats tr
    | None, None -> Stats.create ()
  in
  let domains = match domains with Some d -> max 1 d | None -> default_domains () in
  { mode; stats; trace; domains; check }

let traced ?mode ?domains () =
  let stats = Stats.create () in
  let trace = Trace.create stats in
  make ?mode ?domains ~stats ~trace ()

let with_mode t mode = { t with mode }

let with_check t check = { t with check }

let checkpoint t = t.check ()

let poller t =
  let calls = ref 0 in
  fun () ->
    incr calls;
    if !calls land 4095 = 0 then t.check ()

let isolated ?check t =
  let check = match check with Some c -> c | None -> t.check in
  { mode = t.mode; stats = Stats.create (); trace = None; domains = t.domains; check }

let tracing t = Trace.enabled t.trace

let span t name f = Trace.span t.trace name f

let annot t key value = Trace.annot t.trace key value
