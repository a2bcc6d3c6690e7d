(** Functional (architectural) executor.

    A single implementation of the ISA semantics shared by every timing
    model: the GPP models execute through it directly, and each LPSU lane
    wraps it with its own register file and a speculative memory interface.
    [step] executes one instruction and fills a caller-owned {!event}
    scratch record describing what happened; timing models consume the
    event stream.

    The hot loop is allocation-free by construction: programs are
    {!Program.predecode}d once (immediates pre-widened, targets resolved,
    widths expanded), the event record is reused across steps, the memory
    interface is built once per machine or lane, and the register file
    holds 32-bit values sign-extended into unboxed native [int]s — ALU
    results never box. *)

open Xloops_isa
module Program = Xloops_asm.Program

exception Halted
exception Trap of string

(* Each register holds the sign extension of its architectural 32-bit
   value into a native int; [norm] re-establishes the invariant after
   arithmetic that can leave bits above position 31. *)
type hart = {
  regs : int array;
  mutable pc : int;
}

let sext_shift = Sys.int_size - 32
let[@inline] norm v = (v lsl sext_shift) asr sext_shift

let create_hart ?(pc = 0) () = { regs = Array.make Reg.num_regs 0; pc }

(* [set]/[set_int] never write r0, so [regs.(0)] stays 0 and reads need
   no special case. *)
let get h r = Int32.of_int h.regs.(r)

let set h r v = if r <> Reg.zero then h.regs.(r) <- Int32.to_int v

let get_int h r = h.regs.(r)
let set_int h r v = if r <> Reg.zero then h.regs.(r) <- norm v

(** Memory interface: the GPP binds this straight to {!Xloops_mem.Memory};
    a speculative LPSU lane binds it to its LSQ overlay.  Values cross it
    in the register-file representation (sign-extended native ints), so
    no [int32] is boxed per access. *)
type mem_iface = {
  load : Insn.width -> int -> int;
  store : Insn.width -> int -> int -> unit;
  amo : Insn.amo_op -> int -> int -> int;
}

let direct_mem (m : Xloops_mem.Memory.t) : mem_iface = {
  load = (fun w a -> Xloops_mem.Memory.load_int m w a);
  store = (fun w a v -> Xloops_mem.Memory.store_int m w a v);
  amo = (fun op a v -> Xloops_mem.Memory.amo_int m op a v);
}

(** What one dynamic instruction did; everything a timing or energy model
    needs to know about it.  Mutable scratch: [step] fills the same record
    in place on every call, so consumers must read the fields they need
    before the next step on the same scratch. *)
type event = {
  mutable prog : Program.t;               (** program [pc] indexes into *)
  mutable pc : int;
  mutable next_pc : int;
  mutable taken : bool;                   (** control transfer taken *)
  mutable mem_addr : int;                 (** -1 if not a memory operation *)
  mutable mem_bytes : int;
  mutable mem_is_store : bool;
  mutable mem_is_amo : bool;
}

(* The executed instruction is identified by [prog]/[pc] rather than
   stored in the event: a pointer field written per step would cost a
   write barrier on every instruction, while [prog] only changes when
   the stepped program does. *)
let[@inline] event_insn (ev : event) : int Insn.t =
  Array.unsafe_get ev.prog.Program.insns ev.pc

let create_event () = {
  prog = { Program.insns = [| Insn.Nop |]; symbols = [] };
  pc = 0; next_pc = 1; taken = false;
  mem_addr = -1; mem_bytes = 0; mem_is_store = false; mem_is_amo = false;
}

(* -- ALU semantics --------------------------------------------------- *)

let u32 v = Int32.logand v 0xFFFFFFFFl

let alu_eval (op : Insn.alu_op) (a : int32) (b : int32) : int32 =
  let sh = Int32.to_int b land 31 in
  match op with
  | Add -> Int32.add a b
  | Sub -> Int32.sub a b
  | And -> Int32.logand a b
  | Or_ -> Int32.logor a b
  | Xor -> Int32.logxor a b
  | Nor -> Int32.lognot (Int32.logor a b)
  | Sll -> Int32.shift_left a sh
  | Srl -> Int32.shift_right_logical a sh
  | Sra -> Int32.shift_right a sh
  | Slt -> if Int32.compare a b < 0 then 1l else 0l
  | Sltu -> if Int32.unsigned_compare a b < 0 then 1l else 0l
  | Mul -> Int32.mul a b
  | Mulh ->
    let p = Int64.mul (Int64.of_int32 a) (Int64.of_int32 b) in
    Int64.to_int32 (Int64.shift_right p 32)
  | Div ->
    (* RISC-V-style corner cases: x/0 = -1; min_int / -1 = min_int. *)
    if b = 0l then -1l
    else if a = Int32.min_int && b = -1l then Int32.min_int
    else Int32.div a b
  | Rem ->
    if b = 0l then a
    else if a = Int32.min_int && b = -1l then 0l
    else Int32.rem a b

let f32 bits = Int32.float_of_bits bits
let bits_of_f32 f = Int32.bits_of_float f

let fpu_eval (op : Insn.fpu_op) (a : int32) (b : int32) : int32 =
  let fa = f32 a and fb = f32 b in
  match op with
  | Fadd -> bits_of_f32 (fa +. fb)
  | Fsub -> bits_of_f32 (fa -. fb)
  | Fmul -> bits_of_f32 (fa *. fb)
  | Fdiv -> bits_of_f32 (fa /. fb)
  | Fmin -> bits_of_f32 (Float.min fa fb)
  | Fmax -> bits_of_f32 (Float.max fa fb)
  | Feq -> if fa = fb then 1l else 0l
  | Flt -> if fa < fb then 1l else 0l
  | Fle -> if fa <= fb then 1l else 0l
  | Fcvt_sw -> bits_of_f32 (Int32.to_float a)
  | Fcvt_ws -> Int32.of_float (Float.trunc (f32 a))

let branch_eval (c : Insn.branch_cond) (a : int32) (b : int32) =
  match c with
  | Beq -> a = b
  | Bne -> a <> b
  | Blt -> Int32.compare a b < 0
  | Bge -> Int32.compare a b >= 0
  | Bltu -> Int32.unsigned_compare a b < 0
  | Bgeu -> Int32.unsigned_compare a b >= 0

(* -- Unboxed ALU semantics -------------------------------------------- *)

(* The same semantics over sign-extended native ints, used by the hot
   [step] path so ALU results never box.  Operands are assumed
   normalized (the register-file invariant); results are normalized.
   Equivalence with the [int32] versions above is what the
   predecoded-vs-reference property test pins down. *)

let min32 = -0x8000_0000

let alu_eval_int (op : Insn.alu_op) (a : int) (b : int) : int =
  match op with
  | Add -> norm (a + b)
  | Sub -> norm (a - b)
  | And -> a land b
  | Or_ -> a lor b
  | Xor -> a lxor b
  | Nor -> lnot (a lor b)
  (* Shifts/products only need the low 32 bits of the exact result, and
     those survive any native-int overflow wrap. *)
  | Sll -> norm (a lsl (b land 31))
  | Srl -> norm ((a land 0xFFFFFFFF) lsr (b land 31))
  | Sra -> a asr (b land 31)
  | Slt -> if a < b then 1 else 0
  | Sltu -> if a land 0xFFFFFFFF < b land 0xFFFFFFFF then 1 else 0
  | Mul -> norm (a * b)
  | Mulh ->
    (* The full product can overflow a native int (min32 * min32). *)
    Int64.to_int
      (Int64.shift_right (Int64.mul (Int64.of_int a) (Int64.of_int b)) 32)
  | Div ->
    if b = 0 then -1
    else if a = min32 && b = -1 then min32
    else a / b
  | Rem ->
    if b = 0 then a
    else if a = min32 && b = -1 then 0
    else a mod b

(* Allocation-free FP: the [int32] spec above funnels every operand
   through boxed [Int32.t] and a cross-function-boundary call, which
   costs several boxes per FP instruction (the residual bytes/insn the
   sgemm workload used to show).  Staying inside one function lets the
   non-flambda backend's local unboxing eliminate every intermediate
   [Int32]/[float] box: [float_of_bits]/[bits_of_float] are [@@unboxed]
   externals and [Int32.of_int]/[to_int] are primitives, so each arm
   compiles to raw bit moves and FP arithmetic.  Must stay pointwise
   equal to [fpu_eval] (property-tested). *)
let fpu_eval_int (op : Insn.fpu_op) (a : int) (b : int) : int =
  let fa = Int32.float_of_bits (Int32.of_int a) in
  let fb = Int32.float_of_bits (Int32.of_int b) in
  match op with
  | Fadd -> Int32.to_int (Int32.bits_of_float (fa +. fb))
  | Fsub -> Int32.to_int (Int32.bits_of_float (fa -. fb))
  | Fmul -> Int32.to_int (Int32.bits_of_float (fa *. fb))
  | Fdiv -> Int32.to_int (Int32.bits_of_float (fa /. fb))
  | Fmin -> Int32.to_int (Int32.bits_of_float (Float.min fa fb))
  | Fmax -> Int32.to_int (Int32.bits_of_float (Float.max fa fb))
  | Feq -> if fa = fb then 1 else 0
  | Flt -> if fa < fb then 1 else 0
  | Fle -> if fa <= fb then 1 else 0
  | Fcvt_sw -> Int32.to_int (Int32.bits_of_float (Int32.to_float (Int32.of_int a)))
  | Fcvt_ws -> Int32.to_int (Int32.of_float (Float.trunc fa))

let branch_eval_int (c : Insn.branch_cond) (a : int) (b : int) =
  match c with
  | Beq -> a = b
  | Bne -> a <> b
  | Blt -> a < b
  | Bge -> a >= b
  | Bltu -> a land 0xFFFFFFFF < b land 0xFFFFFFFF
  | Bgeu -> a land 0xFFFFFFFF >= b land 0xFFFFFFFF

(* -- Single-step ------------------------------------------------------ *)

(* Reset the scratch to the fall-through defaults for the instruction at
   [pc]; arms below only touch the fields that deviate. *)
let[@inline] reset_event (ev : event) prog pc =
  if ev.prog != prog then ev.prog <- prog;
  ev.pc <- pc;
  ev.next_pc <- pc + 1;
  ev.taken <- false;
  ev.mem_addr <- -1;
  ev.mem_bytes <- 0;
  ev.mem_is_store <- false;
  ev.mem_is_amo <- false

let take (h : hart) (ev : event) target =
  h.pc <- target;
  ev.next_pc <- target;
  ev.taken <- true

(** Execute the predecoded instruction at [h.pc], filling [ev].  Advances
    the hart; raises {!Halted} on [Halt] (with [h.pc] left pointing at the
    halt).

    The [Xloop] instruction here implements its *traditional* semantics —
    a conditional backward branch — which is also the correct
    architectural meaning inside an LPSU lane, where the lane runtime
    intercepts the loop-control decision before calling [step]. *)
let step (p : Program.predecoded) (h : hart) (mem : mem_iface)
    (ev : event) : unit =
  let pc = h.pc in
  let uops = p.Program.uops in
  if pc < 0 || pc >= Array.length uops then
    raise (Trap (Printf.sprintf "pc out of range: %d" pc));
  reset_event ev p.Program.source pc;
  h.pc <- pc + 1;
  let regs = h.regs in
  match Array.unsafe_get uops pc with
  | U_alu (op, rd, rs, rt) ->
    if rd <> 0 then regs.(rd) <- alu_eval_int op regs.(rs) regs.(rt)
  | U_alui (op, rd, rs, imm) ->
    if rd <> 0 then regs.(rd) <- alu_eval_int op regs.(rs) imm
  | U_fpu (op, rd, rs, rt) ->
    if rd <> 0 then regs.(rd) <- fpu_eval_int op regs.(rs) regs.(rt)
  | U_lui (rd, v) -> if rd <> 0 then regs.(rd) <- v
  | U_load (w, rd, rs, imm, bytes) ->
    let addr = regs.(rs) + imm in
    if rd <> 0 then regs.(rd) <- mem.load w addr
    else ignore (mem.load w addr);
    ev.mem_addr <- addr;
    ev.mem_bytes <- bytes
  | U_store (w, rt, rs, imm, bytes) ->
    let addr = regs.(rs) + imm in
    mem.store w addr regs.(rt);
    ev.mem_addr <- addr;
    ev.mem_bytes <- bytes;
    ev.mem_is_store <- true
  | U_amo (op, rd, rs, rt) ->
    let addr = regs.(rs) in
    let old = mem.amo op addr regs.(rt) in
    if rd <> 0 then regs.(rd) <- old;
    ev.mem_addr <- addr;
    ev.mem_bytes <- 4;
    ev.mem_is_store <- true;
    ev.mem_is_amo <- true
  | U_branch (c, rs, rt, l) ->
    if branch_eval_int c regs.(rs) regs.(rt) then take h ev l
  | U_jump l -> take h ev l
  | U_jal (link, l) ->
    regs.(Reg.ra) <- link;
    take h ev l
  | U_jr rs -> take h ev regs.(rs)
  | U_xloop_de (rt, l) ->
    (* rt is the exit flag: loop while clear *)
    if regs.(rt) = 0 then take h ev l
  | U_xloop_cmp (rs, rt, l) ->
    if regs.(rs) < regs.(rt) then take h ev l
  | U_xi_addi (rd, rs, imm) ->
    if rd <> 0 then regs.(rd) <- norm (regs.(rs) + imm)
  | U_xi_add (rd, rs, rt) ->
    if rd <> 0 then regs.(rd) <- norm (regs.(rs) + regs.(rt))
  | U_sync -> ()
  | U_halt ->
    h.pc <- pc;
    raise Halted
  | U_nop -> ()

(** Reference implementation of [step] that decodes the raw instruction
    stream on every call — the original executor, kept as the semantic
    baseline the predecoded path is property-tested against. *)
let step_ref (prog : Program.t) (h : hart) (mem : mem_iface)
    (ev : event) : unit =
  let pc = h.pc in
  if pc < 0 || pc >= Array.length prog.Program.insns then
    raise (Trap (Printf.sprintf "pc out of range: %d" pc));
  let insn = prog.Program.insns.(pc) in
  reset_event ev prog pc;
  h.pc <- pc + 1;
  match insn with
  | Alu (op, rd, rs, rt) -> set h rd (alu_eval op (get h rs) (get h rt))
  | Alui (op, rd, rs, imm) -> set h rd (alu_eval op (get h rs) (Int32.of_int imm))
  | Fpu (op, rd, rs, rt) -> set h rd (fpu_eval op (get h rs) (get h rt))
  | Lui (rd, imm) -> set h rd (u32 (Int32.shift_left (Int32.of_int imm) 16))
  | Load (w, rd, rs, imm) ->
    let addr = get_int h rs + imm in
    set_int h rd (mem.load w addr);
    ev.mem_addr <- addr;
    ev.mem_bytes <- Insn.width_bytes w
  | Store (w, rt, rs, imm) ->
    let addr = get_int h rs + imm in
    mem.store w addr (get_int h rt);
    ev.mem_addr <- addr;
    ev.mem_bytes <- Insn.width_bytes w;
    ev.mem_is_store <- true
  | Amo (op, rd, rs, rt) ->
    let addr = get_int h rs in
    let old = mem.amo op addr (get_int h rt) in
    set_int h rd old;
    ev.mem_addr <- addr;
    ev.mem_bytes <- 4;
    ev.mem_is_store <- true;
    ev.mem_is_amo <- true
  | Branch (c, rs, rt, l) ->
    if branch_eval c (get h rs) (get h rt) then take h ev l
  | Jump l -> take h ev l
  | Jal l ->
    set h Reg.ra (Int32.of_int (pc + 1));
    take h ev l
  | Jr rs -> take h ev (get_int h rs)
  | Xloop ({ cp; _ }, rs, rt, l) ->
    let continue_loop =
      match cp with
      | De -> get h rt = 0l   (* rt is the exit flag: loop while clear *)
      | Fixed | Dyn -> Int32.compare (get h rs) (get h rt) < 0
    in
    if continue_loop then take h ev l
  | Xi_addi (rd, rs, imm) -> set h rd (Int32.add (get h rs) (Int32.of_int imm))
  | Xi_add (rd, rs, rt) -> set h rd (Int32.add (get h rs) (get h rt))
  | Sync -> ()
  | Halt ->
    h.pc <- pc;
    raise Halted
  | Nop -> ()

(* -- Whole-program functional run ------------------------------------- *)

type run = {
  dynamic_insns : int;
  final : hart;
}

type stop = Out_of_fuel of { pc : int; insns : int; cycle : int }

let pp_stop ppf (Out_of_fuel { pc; insns; cycle }) =
  Fmt.pf ppf "out of fuel at pc %d after %d instructions (cycle %d)"
    pc insns cycle

(** Run the program serially from [entry] until [Halt]; the reference
    execution used for correctness checks and for the paper's
    dynamic-instruction-count columns.  [fuel] bounds runaway programs:
    exhausting it is a structured [Error], not an exception, so callers
    report instead of crash. *)
let run_serial ?(entry = 0) ?(fuel = 200_000_000) prog
    (m : Xloops_mem.Memory.t) : (run, stop) result =
  let pre = Program.predecode prog in
  let h = create_hart ~pc:entry () in
  let mem = direct_mem m in
  let ev = create_event () in
  let count = ref 0 in
  try
    while !count < fuel do
      step pre h mem ev;
      incr count
    done;
    (* The functional model retires one instruction per step, so the
       instruction count doubles as its cycle count. *)
    Error (Out_of_fuel { pc = h.pc; insns = !count; cycle = !count })
  with Halted -> Ok { dynamic_insns = !count; final = h }

(** [run_serial] through {!step_ref}: same contract, original decode
    path.  Exists so the property tests can diff the two executors. *)
let run_serial_ref ?(entry = 0) ?(fuel = 200_000_000) prog
    (m : Xloops_mem.Memory.t) : (run, stop) result =
  let h = create_hart ~pc:entry () in
  let mem = direct_mem m in
  let ev = create_event () in
  let count = ref 0 in
  try
    while !count < fuel do
      step_ref prog h mem ev;
      incr count
    done;
    Error (Out_of_fuel { pc = h.pc; insns = !count; cycle = !count })
  with Halted -> Ok { dynamic_insns = !count; final = h }
