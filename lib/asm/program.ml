(** An assembled XLOOPS program: instructions at word addresses 0..n-1,
    plus the symbol table kept for disassembly and debugging. *)

type t = {
  insns : int Xloops_isa.Insn.t array;
  symbols : (string * int) list;  (** label -> instruction address *)
}

let length p = Array.length p.insns

let address_of_symbol p name =
  match List.assoc_opt name p.symbols with
  | Some a -> a
  | None -> invalid_arg ("Program.address_of_symbol: " ^ name)

let symbol_at p addr =
  List.filter_map (fun (n, a) -> if a = addr then Some n else None) p.symbols

(** Disassemble the whole program, one instruction per line, with label
    definitions interleaved. *)
let pp ppf p =
  Array.iteri
    (fun pc insn ->
       List.iter (fun s -> Fmt.pf ppf "%s:@." s) (symbol_at p pc);
       Fmt.pf ppf "  %4d: %a@." pc Xloops_isa.Insn.pp_resolved insn)
    p.insns

let to_string p = Fmt.str "%a" pp p

(** Encode to flat 32-bit words (loses the symbol table). *)
let encode p = Xloops_isa.Encode.encode_program p.insns

let decode words =
  { insns = Xloops_isa.Encode.decode_program words; symbols = [] }

(* -- Predecoded micro-ops --------------------------------------------- *)

(* The interpreter's hot loop pays a decode tax on every dynamic
   instruction: immediates are normalized, memory widths expanded to
   byte counts, and [lui]/[jal] recompute constants that depend only on
   the static instruction.  [predecode] pays all of that once per static
   instruction, producing a parallel array of micro-ops the executor can
   dispatch on directly.  Immediates are stored as 32-bit values
   sign-extended into native ints — the executor's register-file
   representation — so the hot path never boxes. *)

module I = Xloops_isa.Insn
module Reg = Xloops_isa.Reg

let sext_shift = Sys.int_size - 32
let norm v = (v lsl sext_shift) asr sext_shift

type uop =
  | U_alu of I.alu_op * Reg.t * Reg.t * Reg.t
  | U_alui of I.alu_op * Reg.t * Reg.t * int       (* imm normalized *)
  | U_fpu of I.fpu_op * Reg.t * Reg.t * Reg.t
  | U_lui of Reg.t * int                           (* imm << 16, pre-shifted *)
  | U_load of I.width * Reg.t * Reg.t * int * int  (* rd, rs, imm, bytes *)
  | U_store of I.width * Reg.t * Reg.t * int * int (* rt, rs, imm, bytes *)
  | U_amo of I.amo_op * Reg.t * Reg.t * Reg.t
  | U_branch of I.branch_cond * Reg.t * Reg.t * int
  | U_jump of int
  | U_jal of int * int                             (* link value, target *)
  | U_jr of Reg.t
  | U_xloop_de of Reg.t * int                      (* exit reg, target *)
  | U_xloop_cmp of Reg.t * Reg.t * int             (* idx, bound, target *)
  | U_xi_addi of Reg.t * Reg.t * int               (* imm normalized *)
  | U_xi_add of Reg.t * Reg.t * Reg.t
  | U_sync
  | U_halt
  | U_nop

type predecoded = {
  source : t;
  uops : uop array;
}

let predecode_insn (i : int I.t) : uop =
  match i with
  | I.Alu (op, rd, rs, rt) -> U_alu (op, rd, rs, rt)
  | Alui (op, rd, rs, imm) -> U_alui (op, rd, rs, norm imm)
  | Fpu (op, rd, rs, rt) -> U_fpu (op, rd, rs, rt)
  | Lui (rd, imm) -> U_lui (rd, norm (imm lsl 16))
  | Load (w, rd, rs, imm) -> U_load (w, rd, rs, imm, I.width_bytes w)
  | Store (w, rt, rs, imm) -> U_store (w, rt, rs, imm, I.width_bytes w)
  | Amo (op, rd, rs, rt) -> U_amo (op, rd, rs, rt)
  | Branch (c, rs, rt, l) -> U_branch (c, rs, rt, l)
  | Jump l -> U_jump l
  | Jal l -> U_jal (0 (* patched per-pc below *), l)
  | Jr rs -> U_jr rs
  | Xloop ({ cp = De; _ }, _, rt, l) -> U_xloop_de (rt, l)
  | Xloop ({ cp = Fixed | Dyn; _ }, rs, rt, l) -> U_xloop_cmp (rs, rt, l)
  | Xi_addi (rd, rs, imm) -> U_xi_addi (rd, rs, norm imm)
  | Xi_add (rd, rs, rt) -> U_xi_add (rd, rs, rt)
  | Sync -> U_sync
  | Halt -> U_halt
  | Nop -> U_nop

let predecode (p : t) : predecoded =
  let uops =
    Array.mapi
      (fun pc i ->
         match predecode_insn i with
         | U_jal (_, l) -> U_jal (pc + 1, l)
         | u -> u)
      p.insns
  in
  { source = p; uops }
