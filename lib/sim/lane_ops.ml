(** LPSU lane fast path.

    An LPSU lane runs most instructions through {!Exec.step}, whose
    event record feeds the timing model.  Some instructions are
    observationally silent at the lane level: single-cycle, portless,
    trapless, no memory traffic, no long-latency unit, no loop
    bookkeeping, and any control transfer recoverable from the outgoing
    pc.  For those pcs this module builds one closure per static
    instruction, specialized at build time to its operands, that applies
    the instruction's register effect and returns the outgoing pc; the
    LPSU reconstructs every timing-model effect from the metadata. *)

open Xloops_isa
module Program = Xloops_asm.Program
module P = Program

type lane_meta =
  | L_slow
  | L_plain of {
      l_op : int array -> int;
      l_ctrl : int;
    }

let sext_shift = Sys.int_size - 32
let[@inline] norm v = (v lsl sext_shift) asr sext_shift
let[@inline] g (r : int array) i = Array.unsafe_get r i
let[@inline] s (r : int array) i v = Array.unsafe_set r i v

(* The closures index the register file unsafely, so every register
   specifier must be proven in range first.  Micro-ops that fail (only
   reachable through hand-built [Program.t] values with corrupt
   specifiers) stay on [Exec.step], which raises [Invalid_argument]
   exactly as before. *)
let uop_valid (u : P.uop) =
  let ok r = r >= 0 && r < Reg.num_regs in
  match u with
  | P.U_alu (_, rd, rs, rt) | U_fpu (_, rd, rs, rt)
  | U_xi_add (rd, rs, rt) | U_amo (_, rd, rs, rt) -> ok rd && ok rs && ok rt
  | U_alui (_, rd, rs, _) | U_xi_addi (rd, rs, _) -> ok rd && ok rs
  | U_lui (rd, _) -> ok rd
  | U_load (_, rd, rs, _, _) -> ok rd && ok rs
  | U_store (_, rt, rs, _, _) -> ok rt && ok rs
  | U_branch (_, rs, rt, _) | U_xloop_cmp (rs, rt, _) -> ok rs && ok rt
  | U_jr rs -> ok rs
  | U_xloop_de (rt, _) -> ok rt
  | U_jump _ | U_jal _ | U_sync | U_halt | U_nop -> true

(* The common operators get a dedicated body; the rest capture the
   operator and call the shared evaluator.  A write to r0 compiles to a
   plain advance, matching [Exec.step]'s dropped write. *)

let alu_op (op : Insn.alu_op) rd rs rt nx : int array -> int =
  if rd = 0 then fun _ -> nx
  else
    match op with
    | Insn.Add -> fun r -> s r rd (norm (g r rs + g r rt)); nx
    | Sub -> fun r -> s r rd (norm (g r rs - g r rt)); nx
    | And -> fun r -> s r rd (g r rs land g r rt); nx
    | Or_ -> fun r -> s r rd (g r rs lor g r rt); nx
    | Xor -> fun r -> s r rd (g r rs lxor g r rt); nx
    | Slt -> fun r -> s r rd (if g r rs < g r rt then 1 else 0); nx
    | Nor | Sll | Srl | Sra | Sltu | Mul | Mulh | Div | Rem -> fun r ->
      s r rd (Exec.alu_eval_int op (g r rs) (g r rt)); nx

let alui_op (op : Insn.alu_op) rd rs imm nx : int array -> int =
  if rd = 0 then fun _ -> nx
  else
    match op with
    | Insn.Add -> fun r -> s r rd (norm (g r rs + imm)); nx
    | And -> fun r -> s r rd (g r rs land imm); nx
    | Or_ -> fun r -> s r rd (g r rs lor imm); nx
    | Xor -> fun r -> s r rd (g r rs lxor imm); nx
    | Slt -> fun r -> s r rd (if g r rs < imm then 1 else 0); nx
    | Sub | Nor | Sll | Srl | Sra | Sltu | Mul | Mulh | Div | Rem -> fun r ->
      s r rd (Exec.alu_eval_int op (g r rs) imm); nx

let branch_op (c : Insn.branch_cond) rs rt l nx : int array -> int =
  match c with
  | Insn.Beq -> fun r -> if g r rs = g r rt then l else nx
  | Bne -> fun r -> if g r rs <> g r rt then l else nx
  | Blt -> fun r -> if g r rs < g r rt then l else nx
  | Bge -> fun r -> if g r rs >= g r rt then l else nx
  | Bltu -> fun r ->
    if g r rs land 0xFFFFFFFF < g r rt land 0xFFFFFFFF then l else nx
  | Bgeu -> fun r ->
    if g r rs land 0xFFFFFFFF >= g r rt land 0xFFFFFFFF then l else nx

(* Plainness and the closure are decided in one match, so no closure
   exists for a slow pc.  A conditional branch targeting its own
   fall-through is indistinguishable taken or not, so it stays slow. *)
let lane_meta (pre : Program.predecoded) : lane_meta array =
  Array.mapi
    (fun pc u ->
       let insn = pre.P.source.P.insns.(pc) in
       if not (uop_valid u) || Insn.is_mem insn || Insn.is_llfu insn then
         L_slow
       else
         let nx = pc + 1 in
         let plain l_ctrl l_op = L_plain { l_op; l_ctrl } in
         match u with
         | P.U_alu (op, rd, rs, rt) -> plain 0 (alu_op op rd rs rt nx)
         | U_alui (op, rd, rs, imm) -> plain 0 (alui_op op rd rs imm nx)
         | U_xi_add (rd, rs, rt) -> plain 0 (alu_op Insn.Add rd rs rt nx)
         | U_xi_addi (rd, rs, imm) -> plain 0 (alui_op Insn.Add rd rs imm nx)
         | U_lui (rd, v) ->
           plain 0 (if rd = 0 then fun _ -> nx else fun r -> s r rd v; nx)
         | U_nop | U_sync -> plain 0 (fun _ -> nx)
         | U_branch (_, _, _, l) when l = nx -> L_slow
         | U_branch (c, rs, rt, l) -> plain 1 (branch_op c rs rt l nx)
         | U_jump l -> plain 2 (fun _ -> l)
         | U_jal (link, l) -> plain 2 (fun r -> s r Reg.ra link; l)
         | U_jr rs -> plain 2 (fun r -> g r rs)
         | U_fpu _ | U_load _ | U_store _ | U_amo _ | U_xloop_de _
         | U_xloop_cmp _ | U_halt -> L_slow)
    pre.P.uops
