(** Virtual-register intermediate representation.

    A flat instruction list over unlimited virtual registers; vreg 0 is
    pinned to the architectural zero register.  The register allocator
    ({!Regalloc}) rewrites vregs to physical registers (inserting spill
    code), after which {!Codegen} maps each instruction 1:1 onto the
    assembler. *)

open Xloops_isa

type vreg = int

let vzero : vreg = 0

type instr =
  | Li of vreg * int32
  | Alu of Insn.alu_op * vreg * vreg * vreg
  | Alui of Insn.alu_op * vreg * vreg * int
  | Fpu of Insn.fpu_op * vreg * vreg * vreg
  | Load of Insn.width * vreg * vreg * int
  | Store of Insn.width * vreg * vreg * int
  | Amo of Insn.amo_op * vreg * vreg * vreg
  | Br of Insn.branch_cond * vreg * vreg * string
  | Jmp of string
  | Label of string
  | Xloop of Insn.xpat * vreg * vreg * string
  | Xi_addi of vreg * vreg * int
  | Halt

let sources = function
  | Li _ | Jmp _ | Label _ | Halt -> []
  | Alu (_, _, a, b) | Fpu (_, _, a, b) -> [ a; b ]
  | Alui (_, _, a, _) -> [ a ]
  | Load (_, _, a, _) -> [ a ]
  | Store (_, v, a, _) -> [ a; v ]
  | Amo (_, _, a, v) -> [ a; v ]
  | Br (_, a, b, _) -> [ a; b ]
  | Xloop (_, a, b, _) -> [ a; b ]
  | Xi_addi (_, a, _) -> [ a ]

let dest = function
  | Li (d, _) | Alu (_, d, _, _) | Alui (_, d, _, _) | Fpu (_, d, _, _)
  | Load (_, d, _, _) | Amo (_, d, _, _) | Xi_addi (d, _, _) ->
    if d = vzero then None else Some d
  | Store _ | Br _ | Jmp _ | Label _ | Xloop _ | Halt -> None

(** Rewrite every register through [f] (used by the allocator). *)
let map_regs f = function
  | Li (d, v) -> Li (f d, v)
  | Alu (o, d, a, b) -> Alu (o, f d, f a, f b)
  | Alui (o, d, a, i) -> Alui (o, f d, f a, i)
  | Fpu (o, d, a, b) -> Fpu (o, f d, f a, f b)
  | Load (w, d, a, i) -> Load (w, f d, f a, i)
  | Store (w, v, a, i) -> Store (w, f v, f a, i)
  | Amo (o, d, a, v) -> Amo (o, f d, f a, f v)
  | Br (c, a, b, l) -> Br (c, f a, f b, l)
  | Jmp l -> Jmp l
  | Label l -> Label l
  | Xloop (p, a, b, l) -> Xloop (p, f a, f b, l)
  | Xi_addi (d, a, i) -> Xi_addi (f d, f a, i)
  | Halt -> Halt

let is_control = function
  | Br _ | Jmp _ | Xloop _ -> true
  | _ -> false

let branch_target = function
  | Br (_, _, _, l) | Jmp l | Xloop (_, _, _, l) -> Some l
  | _ -> None

(** Jumps unconditionally (no fall-through). *)
let is_unconditional = function Jmp _ | Halt -> true | _ -> false

let pp ppf (i : instr) =
  let r ppf v = Fmt.pf ppf "v%d" v in
  match i with
  | Li (d, v) -> Fmt.pf ppf "li %a, %ld" r d v
  | Alu (o, d, a, b) ->
    Fmt.pf ppf "%s %a, %a, %a"
      (String.lowercase_ascii (Insn.show_alu_op o)) r d r a r b
  | Alui (o, d, a, imm) ->
    Fmt.pf ppf "%si %a, %a, %d"
      (String.lowercase_ascii (Insn.show_alu_op o)) r d r a imm
  | Fpu (o, d, a, b) ->
    Fmt.pf ppf "%s %a, %a, %a"
      (String.lowercase_ascii (Insn.show_fpu_op o)) r d r a r b
  | Load (w, d, a, imm) ->
    Fmt.pf ppf "l%s %a, %d(%a)"
      (String.lowercase_ascii (Insn.show_width w)) r d imm r a
  | Store (w, v, a, imm) ->
    Fmt.pf ppf "s%s %a, %d(%a)"
      (String.lowercase_ascii (Insn.show_width w)) r v imm r a
  | Amo (o, d, a, v) ->
    Fmt.pf ppf "%s %a, (%a), %a"
      (String.lowercase_ascii (Insn.show_amo_op o)) r d r a r v
  | Br (c, a, b, l) ->
    Fmt.pf ppf "%s %a, %a, %s"
      (String.lowercase_ascii (Insn.show_branch_cond c)) r a r b l
  | Jmp l -> Fmt.pf ppf "j %s" l
  | Label l -> Fmt.pf ppf "%s:" l
  | Xloop (p, a, b, l) ->
    Fmt.pf ppf "xloop.%a %a, %a, %s" Insn.pp_xpat_suffix p r a r b l
  | Xi_addi (d, a, imm) -> Fmt.pf ppf "addiu.xi %a, %a, %d" r d r a imm
  | Halt -> Fmt.string ppf "halt"
