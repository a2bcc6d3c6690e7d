(** An assembled XLOOPS program: instructions at word addresses
    [0..n-1] plus the symbol table (kept for disassembly). *)

type t = {
  insns : int Xloops_isa.Insn.t array;
  symbols : (string * int) list;  (** label -> instruction address *)
}

val length : t -> int

val address_of_symbol : t -> string -> int
(** Raises [Invalid_argument] on unknown symbols. *)

val pp : Format.formatter -> t -> unit
(** Disassembly listing with interleaved label definitions.  It is
    faithful: two programs with different instructions print different
    listings, so the listing's MD5 keys the program cache. *)

val to_string : t -> string

val encode : t -> int32 array
(** Flat 32-bit machine words (drops the symbol table). *)

val decode : int32 array -> t

(** {1 Predecoded micro-ops}

    The executor's hot loop dispatches on micro-ops instead of raw
    instructions: immediates are normalized (sign-extended 32-bit values
    in native ints, matching the executor's register representation),
    [lui]/[jal] constants pre-computed, branch/xloop targets resolved,
    and memory widths expanded to byte counts — all paid once per static
    instruction instead of once per dynamic one. *)

type uop =
  | U_alu of Xloops_isa.Insn.alu_op * Xloops_isa.Reg.t * Xloops_isa.Reg.t
             * Xloops_isa.Reg.t
  | U_alui of Xloops_isa.Insn.alu_op * Xloops_isa.Reg.t * Xloops_isa.Reg.t
              * int                    (** immediate normalized *)
  | U_fpu of Xloops_isa.Insn.fpu_op * Xloops_isa.Reg.t * Xloops_isa.Reg.t
             * Xloops_isa.Reg.t
  | U_lui of Xloops_isa.Reg.t * int    (** immediate pre-shifted *)
  | U_load of Xloops_isa.Insn.width * Xloops_isa.Reg.t * Xloops_isa.Reg.t
              * int * int              (** rd, rs, imm, bytes *)
  | U_store of Xloops_isa.Insn.width * Xloops_isa.Reg.t * Xloops_isa.Reg.t
               * int * int             (** rt, rs, imm, bytes *)
  | U_amo of Xloops_isa.Insn.amo_op * Xloops_isa.Reg.t * Xloops_isa.Reg.t
             * Xloops_isa.Reg.t
  | U_branch of Xloops_isa.Insn.branch_cond * Xloops_isa.Reg.t
                * Xloops_isa.Reg.t * int
  | U_jump of int
  | U_jal of int * int                 (** link value, target *)
  | U_jr of Xloops_isa.Reg.t
  | U_xloop_de of Xloops_isa.Reg.t * int
      (** data-dependent exit: loop while the exit register reads zero *)
  | U_xloop_cmp of Xloops_isa.Reg.t * Xloops_isa.Reg.t * int
      (** fixed/dynamic bound: loop while idx < bound (signed) *)
  | U_xi_addi of Xloops_isa.Reg.t * Xloops_isa.Reg.t * int
  | U_xi_add of Xloops_isa.Reg.t * Xloops_isa.Reg.t * Xloops_isa.Reg.t
  | U_sync
  | U_halt
  | U_nop

type predecoded = {
  source : t;                (** the program the micro-ops mirror *)
  uops : uop array;          (** parallel to [source.insns] *)
}

val predecode : t -> predecoded
(** A fresh predecode of every instruction.  Each machine predecodes
    its program once, when it is created, and shares the result with
    its LPSU. *)
