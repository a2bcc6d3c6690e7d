(** The XLOOPS instruction set (Table I of the paper): a 32-bit RISC base
    ISA extended with [xloop] loop-pattern instructions and [.xi]
    cross-iteration (mutual-induction-variable) instructions.

    The type is parameterized by the branch-target representation:
    ['lbl = string] while building, [int] (absolute instruction address)
    after assembly. *)

(** Inter-iteration data-dependence pattern. *)
type dpattern =
  | Uc   (** unordered concurrent *)
  | Or   (** ordered through registers *)
  | Om   (** ordered through memory *)
  | Orm  (** ordered through registers and memory *)
  | Ua   (** unordered atomic *)

(** Inter-iteration control-dependence pattern: fixed bound, a dynamic
    bound the body may monotonically raise ([.db]), or a data-dependent
    exit ([.de], implemented as an extension of the paper's future work:
    the loop continues while the exit register reads zero). *)
type cpattern = Fixed | Dyn | De

type xpat = { dp : dpattern; cp : cpattern }

type alu_op =
  | Add | Sub | And | Or_ | Xor | Nor
  | Sll | Srl | Sra
  | Slt | Sltu
  | Mul | Mulh | Div | Rem

(** Single-precision FP over the unified register file (operands are
    IEEE-754 binary32 bit patterns); all FP executes on the shared
    long-latency functional unit. *)
type fpu_op =
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax
  | Feq | Flt | Fle
  | Fcvt_sw  (** int -> float *)
  | Fcvt_ws  (** float -> int, truncating *)

(** Memory access widths; [B]/[H] sign-extend, [Bu]/[Hu] zero-extend. *)
type width = B | Bu | H | Hu | W

(** Atomic read-modify-write on a word:
    [rd <- M\[rs\]; M\[rs\] <- op (M\[rs\], rt)]. *)
type amo_op = Amo_add | Amo_and | Amo_or | Amo_xchg | Amo_min | Amo_max

type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu

type 'lbl t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t
  | Alui of alu_op * Reg.t * Reg.t * int
  | Fpu of fpu_op * Reg.t * Reg.t * Reg.t
  | Lui of Reg.t * int
  | Load of width * Reg.t * Reg.t * int       (** l* rd, imm(rs) *)
  | Store of width * Reg.t * Reg.t * int      (** s* rt, imm(rs) *)
  | Amo of amo_op * Reg.t * Reg.t * Reg.t     (** amo.op rd, (rs), rt *)
  | Branch of branch_cond * Reg.t * Reg.t * 'lbl
  | Jump of 'lbl
  | Jal of 'lbl
  | Jr of Reg.t
  | Xloop of xpat * Reg.t * Reg.t * 'lbl
      (** [Xloop (pat, r_idx, r_bound, l)] ends the parallel loop body
          that starts at [l]; traditionally it executes as
          [blt r_idx, r_bound, l]. *)
  | Xi_addi of Reg.t * Reg.t * int            (** addiu.xi rd, rs, imm *)
  | Xi_add of Reg.t * Reg.t * Reg.t
      (** addu.xi rd, rs, rt; [rt] must be loop-invariant *)
  | Sync
  | Halt
  | Nop

(** {1 Metadata} *)

val sources : 'lbl t -> Reg.t list
(** Architectural source registers. *)

val dest : 'lbl t -> Reg.t option
(** Destination register ([None] for stores/branches and writes to r0;
    [Jal] writes {!Reg.ra}). *)

val src1 : _ t -> int
val src2 : _ t -> int
val dest_reg : _ t -> int
(** Allocation-free variants of {!sources}/{!dest} for per-instruction
    hot paths: the register number, or -1 when the slot is absent (and,
    for {!dest_reg}, for writes to r0). *)

val is_branch : _ t -> bool
val is_mem : _ t -> bool

val is_llfu : _ t -> bool
(** Executes on the shared long-latency functional unit (integer
    mul/div/rem and all FP). *)

val width_bytes : width -> int
(** Number of bytes a width accesses (1, 2 or 4). *)

val is_xloop : _ t -> bool
val is_xi : _ t -> bool

val map_label : ('a -> 'b) -> 'a t -> 'b t

(** {1 Printing and equality} *)

val pp_xpat_suffix : Format.formatter -> xpat -> unit
(** "uc", "or.db", ... as in the paper's mnemonics. *)

val pp : (Format.formatter -> 'lbl -> unit) -> Format.formatter ->
  'lbl t -> unit

val pp_resolved : Format.formatter -> int t -> unit

val equal : ('lbl -> 'lbl -> bool) -> 'lbl t -> 'lbl t -> bool
val equal_dpattern : dpattern -> dpattern -> bool
val equal_cpattern : cpattern -> cpattern -> bool
val equal_alu_op : alu_op -> alu_op -> bool
val equal_fpu_op : fpu_op -> fpu_op -> bool
val equal_width : width -> width -> bool
val equal_amo_op : amo_op -> amo_op -> bool
val equal_branch_cond : branch_cond -> branch_cond -> bool

val show_dpattern : dpattern -> string
val show_alu_op : alu_op -> string
val show_fpu_op : fpu_op -> string
val show_width : width -> string
val show_amo_op : amo_op -> string
val show_branch_cond : branch_cond -> string
