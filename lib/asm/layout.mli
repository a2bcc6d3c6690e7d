(** Static data-segment layout: kernels allocate named regions, bake the
    returned base addresses into their code as immediates, and
    initialize the regions through {!Xloops_mem.Memory} before running. *)

type region = { name : string; base : int; bytes : int }

type t

val create : ?base:int -> ?limit:int -> unit -> t
(** Data starts at [base] (default 0x1000 — lower addresses trap) and is
    bounded by [limit] (default 1 MiB).  The limit only bounds
    allocation: a compiled kernel's runs use a memory sized to the
    regions actually allocated ([Compile.compiled.mem_bytes]). *)

val alloc : ?align:int -> t -> name:string -> bytes:int -> int
(** Allocate [bytes] bytes aligned to [align] (default 4); returns the
    base address.  Raises [Invalid_argument] past [limit]. *)

val alloc_words : ?align:int -> t -> name:string -> n:int -> int

val regions : t -> region list
val find : t -> string -> region
val pp : Format.formatter -> t -> unit
