(** Per-lane load-store queue for speculative execution of
    [xloop.{om,orm,ua}] (Section II-D): buffers the lane's stores,
    records its load addresses for violation detection, and serves loads
    through a byte-accurate overlay of the buffered stores on top of
    architectural memory (store-to-load forwarding).

    Both queues are fixed-capacity arrays, oldest entry first; recording
    into a full queue raises [Invalid_argument] (callers check
    {!loads_full}/{!stores_full} first).  No operation allocates. *)

type t

val create : max_loads:int -> max_stores:int -> t

val loads_full : t -> bool
val stores_full : t -> bool
val n_stores : t -> int
val is_empty : t -> bool
val clear : t -> unit

val record_load : t -> addr:int -> bytes:int -> unit

val record_forwarded_load :
  t -> addr:int -> bytes:int -> from_iter:int -> raw:int -> unit
(** A load whose value [raw] (little-endian bytes) came from iteration
    [from_iter]'s LSQ (inter-lane store-to-load forwarding). *)

val record_store : t -> addr:int -> bytes:int -> value:int -> unit
(** [value]'s low [bytes] bytes, little-endian, are the store data. *)

val store_overlaps : t -> addr:int -> bytes:int -> bool
(** Any buffered store overlapping the range (decides whether a load can
    forward without the memory port). *)

val load_overlaps : t -> addr:int -> bytes:int -> bool
(** Any recorded load overlapping the range (violation check against a
    broadcast store). *)

val read : t -> Xloops_mem.Memory.t -> Xloops_isa.Insn.width -> int -> int
(** Architectural load through the overlay: youngest buffered store wins
    per byte, memory otherwise.  The value is sign- or zero-extended per
    width, as in the register file. *)

(** {1 Draining} *)

val store_addr : t -> int -> int
val store_bytes : t -> int -> int
val store_value : t -> int -> int
(** The [i]-th oldest buffered store's address, size and little-endian
    bytes ([0 <= i < n_stores]). *)

val drain_store : t -> Xloops_mem.Memory.t -> int -> unit
(** Write the [i]-th oldest buffered store to memory. *)

(** {1 Inter-lane store-to-load forwarding support} *)

val covering_store : t -> addr:int -> bytes:int -> int
(** Little-endian bytes over the range of the youngest single buffered
    store fully covering it, or [-1] if none does. *)

val violated :
  t -> from_iter:int -> addr:int -> bytes:int -> value:int -> bool
(** Does a broadcast store of [value] (little-endian bytes) to the range,
    committed by iteration [from_iter], violate a recorded load?  Every
    overlapping load does, except one forwarded from this very iteration
    and confirmed byte-identical by the store. *)

val has_forward_from : t -> int -> bool
(** A load entry forwarded from the given iteration exists (such entries
    squash when that iteration squashes). *)

(** {1 Fault-injection hook} (see {!Fault}) *)

val drop_newest_load : t -> bool
(** Forget the newest recorded load — a transiently lost CAM entry that
    lets a conflicting broadcast slip past violation detection.  Returns
    whether there was one to drop. *)
