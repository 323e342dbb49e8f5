(** Structured errors for the whole engine.

    The read-only stack got away with [(_, string) result]; a writable
    store cannot — callers must distinguish a version conflict (retry)
    from a validation error (fix the mutation) from a corrupt store
    (restore from backup).  Every public [result] in {!Scj_store.Store},
    {!Scj_xpath.Eval}, {!Scj_encoding.Update}, the {!Db} handle and the
    server's write path uses this one variant, so the matching is uniform
    across layers. *)

type t =
  | Parse of string
      (** Query or document syntax error — the input text is at fault. *)
  | Validation of string
      (** An encoding invariant or mutation precondition was violated
          (delete of the document root, insert under a text node, ...). *)
  | Conflict of { expected : int; actual : int }
      (** Optimistic concurrency failure: the writer expected rendition
          [expected] but the store had already advanced to [actual]. *)
  | Incomplete of string
      (** A store directory that never reached its committed superblock
          (creation crashed before the commit point); safe to re-create. *)
  | Corrupt of string
      (** Checksum or invariant failure in durable state: the store is
          lying and must not be trusted. *)
  | Recovery of string
      (** WAL replay failed — the log and the pages disagree beyond what
          redo can reconcile. *)
  | Io of string  (** Operating-system level failure (open, read, ...). *)
  | Internal of string
      (** An exception the engine does not expect to raise — a defect,
          not bad input or a failing device. *)
  | Overloaded
      (** Admission control: the submission queue is full; back off and
          retry. *)
  | Shutdown  (** The service is stopping and accepts no new work. *)

(** Render for humans.  [Incomplete] and [Corrupt] keep their historical
    ["INCOMPLETE: ..."] / ["CORRUPT: ..."] prefixes so shell tooling
    (tools/crash-smoke.sh) can keep grepping verdicts. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Constructor shorthands, convenient with [Result.map_error]. *)

val validation : string -> t

val parse : string -> t

val corrupt : string -> t

val incomplete : string -> t

val recovery : string -> t

val io : string -> t
