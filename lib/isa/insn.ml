(** The XLOOPS instruction set.

    The base ISA is a 32-bit RISC instruction set (loads/stores of bytes,
    halfwords and words, the usual ALU operations, branches, jumps, atomic
    memory operations and a memory fence).  The XLOOPS extensions of
    Table I of the paper are:

    - [Xloop (pat, r_idx, r_bound, l)] — ends a parallel loop body that
      starts at label [l].  The data-dependence pattern [pat] encodes how
      iterations may interact.  On a traditional microarchitecture the
      instruction executes as [blt r_idx, r_bound, l].
    - [Xi_addi]/[Xi_add] — cross-iteration instructions marking mutual
      induction variables (MIVs).  On a traditional microarchitecture they
      execute as plain additions; a specialized microarchitecture may
      compute them in parallel from the iteration index.

    The type is parameterized by the branch-target representation: the
    assembler builds ['lbl = string] programs and resolves them to
    [int] absolute instruction addresses (one word per instruction). *)

(** Inter-iteration data-dependence pattern of an [xloop] (Table I). *)
type dpattern =
  | Uc  (** unordered concurrent *)
  | Or  (** ordered through registers *)
  | Om  (** ordered through memory *)
  | Orm (** ordered through registers and memory *)
  | Ua  (** unordered atomic *)
[@@deriving show { with_path = false }, eq, ord]

(** Inter-iteration control-dependence pattern: fixed bound, or a dynamic
    bound that the loop body may monotonically increase ([.db] suffix). *)
type cpattern = Fixed | Dyn | De
[@@deriving show { with_path = false }, eq, ord]

type xpat = { dp : dpattern; cp : cpattern }
[@@deriving show { with_path = false }, eq, ord]

let pp_xpat_suffix ppf { dp; cp } =
  let d = match dp with
    | Uc -> "uc" | Or -> "or" | Om -> "om" | Orm -> "orm" | Ua -> "ua" in
  let c = match cp with Fixed -> "" | Dyn -> ".db" | De -> ".de" in
  Fmt.pf ppf "%s%s" d c

(** ALU operations.  [Mul], [Mulh], [Div], [Rem] are long-latency and
    execute on the shared LLFU in the LPSU. *)
type alu_op =
  | Add | Sub | And | Or_ | Xor | Nor
  | Sll | Srl | Sra
  | Slt | Sltu
  | Mul | Mulh | Div | Rem
[@@deriving show { with_path = false }, eq, ord]

(** Single-precision floating-point operations over the unified register
    file; operands are interpreted as IEEE-754 binary32 bit patterns.
    All execute on the shared LLFU. *)
type fpu_op =
  | Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax
  | Feq | Flt | Fle          (** comparisons produce 0/1 *)
  | Fcvt_sw                  (** int -> float *)
  | Fcvt_ws                  (** float -> int, truncating *)
[@@deriving show { with_path = false }, eq, ord]

(** Memory access widths; [B]/[H] sign-extend, [Bu]/[Hu] zero-extend. *)
type width = B | Bu | H | Hu | W
[@@deriving show { with_path = false }, eq, ord]

(** Atomic memory operations: [rd <- M[rs]; M[rs] <- op (M[rs], rt)],
    performed atomically with respect to all lanes and the GPP. *)
type amo_op = Amo_add | Amo_and | Amo_or | Amo_xchg | Amo_min | Amo_max
[@@deriving show { with_path = false }, eq, ord]

type branch_cond = Beq | Bne | Blt | Bge | Bltu | Bgeu
[@@deriving show { with_path = false }, eq, ord]

type 'lbl t =
  | Alu of alu_op * Reg.t * Reg.t * Reg.t      (** op rd, rs, rt *)
  | Alui of alu_op * Reg.t * Reg.t * int       (** opi rd, rs, imm *)
  | Fpu of fpu_op * Reg.t * Reg.t * Reg.t      (** fop rd, rs, rt *)
  | Lui of Reg.t * int                         (** rd <- imm << 16 *)
  | Load of width * Reg.t * Reg.t * int        (** l{w,h,b} rd, imm(rs) *)
  | Store of width * Reg.t * Reg.t * int       (** s{w,h,b} rt, imm(rs) *)
  | Amo of amo_op * Reg.t * Reg.t * Reg.t      (** amo.op rd, (rs), rt *)
  | Branch of branch_cond * Reg.t * Reg.t * 'lbl
  | Jump of 'lbl
  | Jal of 'lbl                                (** ra <- pc+1; jump *)
  | Jr of Reg.t
  | Xloop of xpat * Reg.t * Reg.t * 'lbl       (** xloop.pat r_idx, r_bound, L *)
  | Xi_addi of Reg.t * Reg.t * int             (** addiu.xi rd, rs, imm *)
  | Xi_add of Reg.t * Reg.t * Reg.t            (** addu.xi rd, rs, rt; rt loop-invariant *)
  | Sync                                       (** memory fence *)
  | Halt                                       (** stop the hart (used in place of syscalls) *)
  | Nop
[@@deriving show { with_path = false }, eq, ord]

let map_label f = function
  | Branch (c, a, b, l) -> Branch (c, a, b, f l)
  | Jump l -> Jump (f l)
  | Jal l -> Jal (f l)
  | Xloop (p, a, b, l) -> Xloop (p, a, b, f l)
  | Alu _ | Alui _ | Fpu _ | Lui _ | Load _ | Store _ | Amo _ | Jr _
  | Xi_addi _ | Xi_add _ | Sync | Halt | Nop as i ->
    (* The constructors above carry no label; rebuild at the new type. *)
    (match i with
     | Alu (o, a, b, c) -> Alu (o, a, b, c)
     | Alui (o, a, b, c) -> Alui (o, a, b, c)
     | Fpu (o, a, b, c) -> Fpu (o, a, b, c)
     | Lui (a, b) -> Lui (a, b)
     | Load (w, a, b, c) -> Load (w, a, b, c)
     | Store (w, a, b, c) -> Store (w, a, b, c)
     | Amo (o, a, b, c) -> Amo (o, a, b, c)
     | Jr r -> Jr r
     | Xi_addi (a, b, c) -> Xi_addi (a, b, c)
     | Xi_add (a, b, c) -> Xi_add (a, b, c)
     | Sync -> Sync
     | Halt -> Halt
     | Nop -> Nop
     | Branch _ | Jump _ | Jal _ | Xloop _ -> assert false)

(** Registers read by an instruction (architectural sources). *)
let sources = function
  | Alu (_, _, rs, rt) | Fpu (_, _, rs, rt) -> [ rs; rt ]
  | Alui (_, _, rs, _) -> [ rs ]
  | Lui _ -> []
  | Load (_, _, rs, _) -> [ rs ]
  | Store (_, rt, rs, _) -> [ rs; rt ]
  | Amo (_, _, rs, rt) -> [ rs; rt ]
  | Branch (_, rs, rt, _) -> [ rs; rt ]
  | Jump _ | Jal _ -> []
  | Jr rs -> [ rs ]
  | Xloop (_, rs, rt, _) -> [ rs; rt ]
  | Xi_addi (_, rs, _) -> [ rs ]
  | Xi_add (_, rs, rt) -> [ rs; rt ]
  | Sync | Halt | Nop -> []

(** Register written by an instruction, if any. *)
let dest = function
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Fpu (_, rd, _, _)
  | Lui (rd, _) | Load (_, rd, _, _) | Amo (_, rd, _, _)
  | Xi_addi (rd, _, _) | Xi_add (rd, _, _) ->
    if rd = Reg.zero then None else Some rd
  | Jal _ -> Some Reg.ra
  | Store _ | Branch _ | Jump _ | Jr _ | Xloop _ | Sync | Halt | Nop -> None

(* Allocation-free variants for per-instruction hot paths (timing
   models, LPSU lanes): the register slots as plain ints, -1 when the
   slot is absent.  [sources]/[dest] remain the readable interface for
   cold code. *)

let src1 = function
  | Alu (_, _, rs, _) | Fpu (_, _, rs, _) | Alui (_, _, rs, _)
  | Load (_, _, rs, _) | Store (_, _, rs, _) | Amo (_, _, rs, _)
  | Branch (_, rs, _, _) | Jr rs | Xloop (_, rs, _, _)
  | Xi_addi (_, rs, _) | Xi_add (_, rs, _) -> rs
  | Lui _ | Jump _ | Jal _ | Sync | Halt | Nop -> -1

let src2 = function
  | Alu (_, _, _, rt) | Fpu (_, _, _, rt) | Store (_, rt, _, _)
  | Amo (_, _, _, rt) | Branch (_, _, rt, _) | Xloop (_, _, rt, _)
  | Xi_add (_, _, rt) -> rt
  | Alui _ | Lui _ | Load _ | Jump _ | Jal _ | Jr _ | Xi_addi _
  | Sync | Halt | Nop -> -1

let dest_reg = function
  | Alu (_, rd, _, _) | Alui (_, rd, _, _) | Fpu (_, rd, _, _)
  | Lui (rd, _) | Load (_, rd, _, _) | Amo (_, rd, _, _)
  | Xi_addi (rd, _, _) | Xi_add (rd, _, _) ->
    if rd = Reg.zero then -1 else rd
  | Jal _ -> Reg.ra
  | Store _ | Branch _ | Jump _ | Jr _ | Xloop _ | Sync | Halt | Nop -> -1

let is_branch = function
  | Branch _ | Jump _ | Jal _ | Jr _ | Xloop _ -> true
  | _ -> false

let is_mem = function
  | Load _ | Store _ | Amo _ -> true
  | _ -> false

(** True for instructions executed by the shared long-latency functional
    unit (integer multiply/divide and all floating point). *)
let is_llfu = function
  | Alu ((Mul | Mulh | Div | Rem), _, _, _)
  | Alui ((Mul | Mulh | Div | Rem), _, _, _)
  | Fpu _ -> true
  | _ -> false

(** Number of bytes a width accesses. *)
let width_bytes : width -> int = function
  | B | Bu -> 1
  | H | Hu -> 2
  | W -> 4

let is_xloop = function Xloop _ -> true | _ -> false
let is_xi = function Xi_addi _ | Xi_add _ -> true | _ -> false

let pp pp_lbl ppf (i : _ t) =
  let r = Reg.pp in
  match i with
  | Alu (op, rd, rs, rt) ->
    Fmt.pf ppf "%s %a, %a, %a"
      (String.lowercase_ascii (show_alu_op op)) r rd r rs r rt
  | Alui (op, rd, rs, imm) ->
    Fmt.pf ppf "%si %a, %a, %d"
      (String.lowercase_ascii (show_alu_op op)) r rd r rs imm
  | Fpu (op, rd, rs, rt) ->
    Fmt.pf ppf "%s %a, %a, %a"
      (String.lowercase_ascii (show_fpu_op op)) r rd r rs r rt
  | Lui (rd, imm) -> Fmt.pf ppf "lui %a, %d" r rd imm
  | Load (w, rd, rs, imm) ->
    Fmt.pf ppf "l%s %a, %d(%a)"
      (String.lowercase_ascii (show_width w)) r rd imm r rs
  | Store (w, rt, rs, imm) ->
    Fmt.pf ppf "s%s %a, %d(%a)"
      (String.lowercase_ascii (show_width w)) r rt imm r rs
  | Amo (op, rd, rs, rt) ->
    Fmt.pf ppf "%s %a, (%a), %a"
      (String.lowercase_ascii (show_amo_op op)) r rd r rs r rt
  | Branch (c, rs, rt, l) ->
    Fmt.pf ppf "%s %a, %a, %a"
      (String.lowercase_ascii (show_branch_cond c)) r rs r rt pp_lbl l
  | Jump l -> Fmt.pf ppf "j %a" pp_lbl l
  | Jal l -> Fmt.pf ppf "jal %a" pp_lbl l
  | Jr rs -> Fmt.pf ppf "jr %a" r rs
  | Xloop (p, rs, rt, l) ->
    Fmt.pf ppf "xloop.%a %a, %a, %a" pp_xpat_suffix p r rs r rt pp_lbl l
  | Xi_addi (rd, rs, imm) -> Fmt.pf ppf "addiu.xi %a, %a, %d" r rd r rs imm
  | Xi_add (rd, rs, rt) -> Fmt.pf ppf "addu.xi %a, %a, %a" r rd r rs r rt
  | Sync -> Fmt.string ppf "sync"
  | Halt -> Fmt.string ppf "halt"
  | Nop -> Fmt.string ppf "nop"

let pp_resolved ppf i = pp Fmt.int ppf i
