(** Static data-segment layout: kernels allocate named regions, bake the
    returned base addresses into their code as immediates, and
    initialize the regions through {!Xloops_mem.Memory} before running. *)

type region = { name : string; base : int; bytes : int }

type t

val create : unit -> t
(** Data starts at 0x1000 (lower addresses trap) and is bounded by
    1 MiB.  The limit only bounds allocation: a compiled kernel's runs
    use a memory sized to the regions actually allocated
    ([Compile.compiled.mem_bytes]). *)

val alloc : t -> name:string -> bytes:int -> int
(** Allocate [bytes] bytes aligned to 4; returns the base address.
    Raises [Invalid_argument] past the 1 MiB limit. *)

val alloc_words : t -> name:string -> n:int -> int

val regions : t -> region list
val find : t -> string -> region
val pp : Format.formatter -> t -> unit
