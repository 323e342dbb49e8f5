(* The closed-loop client of the query service. *)

open Scj

type tally = {
  client : Util.Samples.t;  (** what the client saw, ms *)
  service : Util.Samples.t;  (** [reply.latency_ms]: the server's own time *)
  mutable attempted : int;
  mutable failed : int;  (** failed, timed out or refused *)
}

(* The next request goes out when the previous answer is back, while
   [running ()].  [next] draws a request and its server query; [check]
   sees every answered request after its latency is taken. *)
let closed_loop server ~running ~next ~check =
  let t =
    { client = Util.Samples.create (); service = Util.Samples.create (); attempted = 0; failed = 0 }
  in
  while running () do
    let req, q = next () in
    t.attempted <- t.attempted + 1;
    match Util.timed (fun () -> Server.run server q) with
    | Server.Done r, dt ->
      Util.Samples.add t.client (1000.0 *. dt);
      Util.Samples.add t.service r.Server.latency_ms;
      check req r
    | (Server.Timed_out | Server.Failed _ | Server.Dropped), _ -> t.failed <- t.failed + 1
  done;
  t
