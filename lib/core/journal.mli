(** Crash-safe sweep journal: an append-only record of completed spec
    digests, so an interrupted sweep resumes from where it left off.
    Fresh journals are created atomically (temp + rename); each record
    is a single append, so records survive a killed process.  Nothing
    is fsync'd: after an OS crash the newest records may be lost, and a
    resumed sweep re-simulates them.  A torn final line from a crash
    mid-append is ignored on load and repaired on resume. *)

type t

val default_name : string
(** ["sweep.journal"] — conventionally placed beside the result cache. *)

val load : string -> Digest_hex.t list
(** Digests recorded at a path ([[]] if absent or not a journal);
    malformed/torn lines are skipped. *)

val start : ?resume:bool -> string -> t
(** Open a journal.  [resume:true] keeps existing entries (repairing a
    torn tail); the default atomically replaces any previous journal
    with an empty one. *)

val record : t -> Digest_hex.t -> unit
(** Record a completed spec digest: one [write], which survives a
    killed process but not an OS crash.  Idempotent; thread-safe. *)

val member : t -> Digest_hex.t -> bool
val count : t -> int
(** Total distinct digests (preloaded + recorded). *)

val preloaded : t -> int
(** Entries that were already present when the journal was opened. *)

val recorded : t -> int
(** Entries appended by this session. *)

val path : t -> string
val close : t -> unit
val pp_counters : Format.formatter -> t -> unit
