(** Virtual-register intermediate representation: a flat instruction list
    over unlimited virtual registers (vreg 0 pinned to the architectural
    zero register).  {!Regalloc} rewrites vregs to physical registers;
    {!Codegen} then maps 1:1 onto the assembler. *)

type vreg = int

val vzero : vreg

type instr =
  | Li of vreg * int32
  | Alu of Xloops_isa.Insn.alu_op * vreg * vreg * vreg
  | Alui of Xloops_isa.Insn.alu_op * vreg * vreg * int
  | Fpu of Xloops_isa.Insn.fpu_op * vreg * vreg * vreg
  | Load of Xloops_isa.Insn.width * vreg * vreg * int
  | Store of Xloops_isa.Insn.width * vreg * vreg * int
  | Amo of Xloops_isa.Insn.amo_op * vreg * vreg * vreg
  | Br of Xloops_isa.Insn.branch_cond * vreg * vreg * string
  | Jmp of string
  | Label of string
  | Xloop of Xloops_isa.Insn.xpat * vreg * vreg * string
  | Xi_addi of vreg * vreg * int
  | Halt

val sources : instr -> vreg list
val dest : instr -> vreg option
val map_regs : (vreg -> vreg) -> instr -> instr

val is_control : instr -> bool
val branch_target : instr -> string option
val is_unconditional : instr -> bool

val pp : Format.formatter -> instr -> unit
