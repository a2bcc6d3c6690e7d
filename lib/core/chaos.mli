(** Seeded chaos plans for the orchestration infrastructure — the
    [Fault]-plan discipline applied to the sweep machinery itself:
    injected cache read errors, bit-flipped or truncated cache blobs,
    stalled or crashing workers, and mid-sweep aborts.  A plan is a
    deterministic schedule derived from a seed; progress is counted in
    {e opportunities} (hook-site calls), not cycles. *)

type kind =
  | Cache_read_error   (** a cache lookup fails as if unreadable *)
  | Blob_bitflip       (** flip one bit of a just-written cache blob *)
  | Blob_truncate      (** truncate a just-written cache blob *)
  | Worker_stall       (** sleep a worker before it runs its item *)
  | Worker_abort       (** crash a worker (transient, retryable) *)
  | Sweep_abort        (** kill the whole sweep mid-flight *)

val recoverable_kinds : kind list
(** Every kind except {!Sweep_abort} — the default draw, under which a
    sweep must still complete with byte-identical results. *)

val all_kinds : kind list
val kind_name : kind -> string
val pp_kind : Format.formatter -> kind -> unit

type t

val plan : ?kinds:kind list -> ?stall_ms:int -> seed:int -> events:int ->
  unit -> t
(** Reproducible plan: same [(seed, events, kinds)] → same schedule.
    [kinds] defaults to {!recoverable_kinds}; [stall_ms] (default 100)
    is the length of an injected worker stall.  Raises
    [Invalid_argument] on a negative count or empty kind list. *)

val explicit : ?stall_ms:int -> (int * kind) list -> t
(** A hand-written plan of [(opportunity, kind)] pairs. *)

val none : unit -> t
(** The empty plan (injects nothing). *)

val fire : t -> kind list -> kind option
(** One injection opportunity at a site that can apply [kinds]:
    advances the opportunity counter, pops and returns the first due
    applicable event (at most one per call).  Thread-safe. *)

val before_item : t -> unit
(** Worker-side hook, once per sweep item: may sleep
    ({!Worker_stall}), raise [Failure.Transient_crash]
    ({!Worker_abort}), or raise [Failure.Abort] ({!Sweep_abort}). *)

val read_error : t -> bool
(** Cache-read hook: [true] means "pretend this blob is unreadable". *)

val after_store : t -> string -> pos:int -> len:int -> unit
(** Store-side hook: corrupt the just-written blob at [pos, pos + len)
    of the given file if the plan says so (bit flip or cut). *)

val corrupt : kind -> string -> pos:int -> len:int -> bool
(** Apply {!Blob_bitflip} (flip one bit in the middle) or
    {!Blob_truncate} (zero the second half) to the [len] bytes at [pos]
    of a file, in place; the bytes around them are untouched (tests,
    fixtures).  [false] if the span is too small or the kind does not
    corrupt bytes. *)

val injected : t -> (kind * int) list
(** Events applied so far, oldest first, with their opportunity. *)

val injected_count : t -> int
val pending : t -> int
val pp_plan : Format.formatter -> t -> unit
