(** Byte-addressable little-endian main memory with atomic memory
    operations — the architectural memory shared by the GPP and all LPSU
    lanes (speculative stores live in per-lane LSQs until commit). *)

exception Bad_access of { addr : int; what : string }
(** Raised on out-of-range or misaligned accesses. *)

type t = {
  data : Bytes.t;
  size : int;
  mutable loads : int;   (** architectural load count (energy model) *)
  mutable stores : int;
  mutable amos : int;
  mutable journal_on : bool;
  mutable jlog : int array;
  mutable jlen : int;
      (** the write journal's undo log; see {!journal_begin} *)
}

val create : ?size:int -> unit -> t
(** Zero-filled; default size 1 MiB, for hand-built programs.  Runs of
    compiled kernels pass [compiled.mem_bytes] instead: the kernel's
    layout rounded up to a power of two (8 or 16 KiB for the registry),
    so an access past the data footprint raises {!Bad_access}. *)

val size : t -> int

(** {1 Write journal}

    Checkpoint/rollback support for graceful degradation: the machine
    begins a journal before handing a loop to the LPSU; every write
    appends the bytes it overwrites to an undo log, so a faulted or hung
    specialized run can be rolled back ({!journal_abort}) and the loop
    re-executed traditionally, or the journal discarded
    ({!journal_commit}) on a clean finish.  Journals do not nest. *)

val journal_begin : t -> unit
(** Raises [Invalid_argument] if a journal is already active. *)

val journal_commit : t -> unit
(** Keep the writes, drop the pre-images.  Raises [Invalid_argument]
    if no journal is active. *)

val journal_abort : t -> unit
(** Restore every journalled byte to its value at {!journal_begin}, by
    replaying the undo log newest first.  Raises [Invalid_argument] if
    no journal is active. *)

val journal_active : t -> bool
val journal_size : t -> int
(** Number of distinct bytes the active journal covers (0 if none). *)

(** {1 Raw accessors} (dataset setup / checking; not event-counted) *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_i32 : t -> int -> int32
val set_i32 : t -> int -> int32 -> unit
val get_int : t -> int -> int
val set_int : t -> int -> int -> unit
val get_f32 : t -> int -> float
val set_f32 : t -> int -> float -> unit

(** {1 Architectural accessors} (event-counted) *)

val load : t -> Xloops_isa.Insn.width -> int -> int32
(** Sign/zero-extends according to the width. *)

val store : t -> Xloops_isa.Insn.width -> int -> int32 -> unit

val amo : t -> Xloops_isa.Insn.amo_op -> int -> int32 -> int32
(** Atomic read-modify-write on a word; returns the old value. *)

(** Native-int variants for executors whose register file is already
    sign-extended native ints: same checks, counters and journal
    behavior as {!load}/{!store}/{!amo}, but values cross the call
    boundary unboxed. *)

val load_int : t -> Xloops_isa.Insn.width -> int -> int
val store_int : t -> Xloops_isa.Insn.width -> int -> int -> unit
val amo_int : t -> Xloops_isa.Insn.amo_op -> int -> int -> int

val width_bytes : Xloops_isa.Insn.width -> int

(** {1 Bulk helpers}

    One up-front range/alignment check for the whole transfer, then a
    raw inner loop; writes are journalled as a single range. *)

val blit_int_array : t -> addr:int -> int array -> unit
val read_int_array : t -> addr:int -> n:int -> int array
val blit_f32_array : t -> addr:int -> float array -> unit
val read_f32_array : t -> addr:int -> n:int -> float array
val blit_bytes : t -> addr:int -> int array -> unit
val read_bytes : t -> addr:int -> n:int -> int array

val reset_counters : t -> unit
