(** Imperative program builder with symbolic labels and the usual
    pseudo-instructions.  This is the "assembler" of the toolchain: both
    hand-written kernels and the compiler back end emit through it. *)

open Xloops_isa

type t

val create : unit -> t

val here : t -> int
(** Address of the next instruction to be emitted. *)

val emit : t -> string Insn.t -> unit

val label : t -> string -> unit
(** Define a label at the current position.  Raises [Invalid_argument]
    on a duplicate definition. *)

val fresh_label : t -> string -> string
(** Generate a program-unique label with a readable prefix. *)

(** {1 Raw emitters} *)

val alu : t -> Insn.alu_op -> Reg.t -> Reg.t -> Reg.t -> unit
val alui : t -> Insn.alu_op -> Reg.t -> Reg.t -> int -> unit
val fpu : t -> Insn.fpu_op -> Reg.t -> Reg.t -> Reg.t -> unit
val load : t -> Insn.width -> Reg.t -> Reg.t -> int -> unit
val store : t -> Insn.width -> Reg.t -> Reg.t -> int -> unit
val amo : t -> Insn.amo_op -> Reg.t -> Reg.t -> Reg.t -> unit
val branch : t -> Insn.branch_cond -> Reg.t -> Reg.t -> string -> unit
val jump : t -> string -> unit
val jal : t -> string -> unit
val jr : t -> Reg.t -> unit
val xloop : t -> Insn.xpat -> Reg.t -> Reg.t -> string -> unit
val xi_addi : t -> Reg.t -> Reg.t -> int -> unit
val xi_add : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sync : t -> unit
val halt : t -> unit
val nop : t -> unit

(** {1 Common mnemonics} *)

val add : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sub : t -> Reg.t -> Reg.t -> Reg.t -> unit
val mul : t -> Reg.t -> Reg.t -> Reg.t -> unit
val div : t -> Reg.t -> Reg.t -> Reg.t -> unit
val rem : t -> Reg.t -> Reg.t -> Reg.t -> unit
val and_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val or_ : t -> Reg.t -> Reg.t -> Reg.t -> unit
val xor : t -> Reg.t -> Reg.t -> Reg.t -> unit
val slt : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sltu : t -> Reg.t -> Reg.t -> Reg.t -> unit
val sll : t -> Reg.t -> Reg.t -> int -> unit
val srl : t -> Reg.t -> Reg.t -> int -> unit
val sra : t -> Reg.t -> Reg.t -> int -> unit
val addi : t -> Reg.t -> Reg.t -> int -> unit
val andi : t -> Reg.t -> Reg.t -> int -> unit
val ori : t -> Reg.t -> Reg.t -> int -> unit
val lw : t -> Reg.t -> Reg.t -> int -> unit
val lb : t -> Reg.t -> Reg.t -> int -> unit
val lbu : t -> Reg.t -> Reg.t -> int -> unit
val lh : t -> Reg.t -> Reg.t -> int -> unit
val lhu : t -> Reg.t -> Reg.t -> int -> unit
val sw : t -> Reg.t -> Reg.t -> int -> unit
val sb : t -> Reg.t -> Reg.t -> int -> unit
val sh : t -> Reg.t -> Reg.t -> int -> unit
val beq : t -> Reg.t -> Reg.t -> string -> unit
val bne : t -> Reg.t -> Reg.t -> string -> unit
val blt : t -> Reg.t -> Reg.t -> string -> unit
val bge : t -> Reg.t -> Reg.t -> string -> unit
val fadd : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fsub : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fmul : t -> Reg.t -> Reg.t -> Reg.t -> unit
val fdiv : t -> Reg.t -> Reg.t -> Reg.t -> unit
val flt : t -> Reg.t -> Reg.t -> Reg.t -> unit

(** {1 Pseudo-instructions} *)

val mv : t -> Reg.t -> Reg.t -> unit
(** Register copy. *)

val li : t -> Reg.t -> int -> unit
(** Load a 32-bit constant, expanding to [lui]+[ori] when it does not
    fit in a signed 16-bit immediate. *)

(** {1 Assembly} *)

exception Undefined_label of string

val assemble : t -> Program.t
(** Resolve labels and produce the final program.  Raises
    {!Undefined_label} on a branch to a label never defined. *)
