(** Imperative program builder with symbolic labels and the usual
    pseudo-instructions.  This is the "assembler" of the toolchain: both
    hand-written kernels and the compiler back end emit through it. *)

open Xloops_isa

type t = {
  mutable items : string Insn.t list;  (* reversed *)
  mutable count : int;                 (* emitted instructions *)
  mutable labels : (string * int) list;
  mutable fresh : int;
}

let create () = { items = []; count = 0; labels = []; fresh = 0 }

let here b = b.count

let emit b (i : string Insn.t) =
  b.items <- i :: b.items;
  b.count <- b.count + 1

(** Define [name] at the current position.  A label may be defined only
    once. *)
let label b name =
  if List.mem_assoc name b.labels then
    invalid_arg ("Builder.label: duplicate label " ^ name);
  b.labels <- (name, b.count) :: b.labels

(** Generate a program-unique label with a readable prefix. *)
let fresh_label b prefix =
  b.fresh <- b.fresh + 1;
  Printf.sprintf "%s$%d" prefix b.fresh

(* -- Raw emitters -------------------------------------------------- *)

let alu b op rd rs rt = emit b (Alu (op, rd, rs, rt))
let alui b op rd rs imm = emit b (Alui (op, rd, rs, imm))
let fpu b op rd rs rt = emit b (Fpu (op, rd, rs, rt))
let load b w rd rs imm = emit b (Load (w, rd, rs, imm))
let store b w rt rs imm = emit b (Store (w, rt, rs, imm))
let amo b op rd rs rt = emit b (Amo (op, rd, rs, rt))
let branch b c rs rt l = emit b (Branch (c, rs, rt, l))
let jump b l = emit b (Jump l)
let jal b l = emit b (Jal l)
let jr b rs = emit b (Jr rs)
let xloop b pat rs rt l = emit b (Xloop (pat, rs, rt, l))
let xi_addi b rd rs imm = emit b (Xi_addi (rd, rs, imm))
let xi_add b rd rs rt = emit b (Xi_add (rd, rs, rt))
let sync b = emit b Sync
let halt b = emit b Halt
let nop b = emit b Nop

(* -- Common mnemonics ---------------------------------------------- *)

let add b rd rs rt = alu b Add rd rs rt
let sub b rd rs rt = alu b Sub rd rs rt
let mul b rd rs rt = alu b Mul rd rs rt
let div b rd rs rt = alu b Div rd rs rt
let rem b rd rs rt = alu b Rem rd rs rt
let and_ b rd rs rt = alu b And rd rs rt
let or_ b rd rs rt = alu b Or_ rd rs rt
let xor b rd rs rt = alu b Xor rd rs rt
let slt b rd rs rt = alu b Slt rd rs rt
let sltu b rd rs rt = alu b Sltu rd rs rt
let sll b rd rs sh = alui b Sll rd rs sh
let srl b rd rs sh = alui b Srl rd rs sh
let sra b rd rs sh = alui b Sra rd rs sh
let addi b rd rs imm = alui b Add rd rs imm
let andi b rd rs imm = alui b And rd rs imm
let ori b rd rs imm = alui b Or_ rd rs imm
let lw b rd rs imm = load b W rd rs imm
let lb b rd rs imm = load b B rd rs imm
let lbu b rd rs imm = load b Bu rd rs imm
let lh b rd rs imm = load b H rd rs imm
let lhu b rd rs imm = load b Hu rd rs imm
let sw b rt rs imm = store b W rt rs imm
let sb b rt rs imm = store b B rt rs imm
let sh b rt rs imm = store b H rt rs imm
let beq b rs rt l = branch b Beq rs rt l
let bne b rs rt l = branch b Bne rs rt l
let blt b rs rt l = branch b Blt rs rt l
let bge b rs rt l = branch b Bge rs rt l
let fadd b rd rs rt = fpu b Fadd rd rs rt
let fsub b rd rs rt = fpu b Fsub rd rs rt
let fmul b rd rs rt = fpu b Fmul rd rs rt
let fdiv b rd rs rt = fpu b Fdiv rd rs rt
let flt b rd rs rt = fpu b Flt rd rs rt

(* -- Pseudo-instructions ------------------------------------------- *)

(** [mv rd rs] — copy a register. *)
let mv b rd rs = alu b Add rd rs Reg.zero

(** [li rd imm] — load a 32-bit constant, expanding to [lui]+[ori] when it
    does not fit in a signed 16-bit immediate. *)
let li b rd imm =
  if imm >= -32768 && imm <= 32767 then addi b rd Reg.zero imm
  else begin
    let imm = imm land 0xFFFFFFFF in
    let hi = (imm lsr 16) land 0xFFFF and lo = imm land 0xFFFF in
    emit b (Lui (rd, hi));
    if lo <> 0 then ori b rd rd lo
  end

(* -- Assembly ------------------------------------------------------- *)

exception Undefined_label of string

(** Resolve labels and produce the final program. *)
let assemble b : Program.t =
  let items = Array.of_list (List.rev b.items) in
  let resolve name =
    match List.assoc_opt name b.labels with
    | Some a -> a
    | None -> raise (Undefined_label name)
  in
  { Program.insns = Array.map (Insn.map_label resolve) items;
    symbols = List.rev b.labels }
