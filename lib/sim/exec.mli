(** Functional (architectural) executor: the single implementation of
    the ISA semantics.  GPP timing models execute through it directly;
    each LPSU lane wraps it with a private register file and a
    speculative memory interface.

    The step loop is allocation-free: it dispatches on
    {!Program.predecode}d micro-ops, fills a caller-owned mutable
    {!event} scratch record instead of allocating one per instruction,
    and computes ALU results over unboxed native ints. *)

module Program = Xloops_asm.Program

exception Halted
exception Trap of string

(** Register file as native ints: each slot holds the sign extension of
    its architectural 32-bit value, so ALU arithmetic never boxes.
    [regs.(0)] is always 0 (writes to r0 are dropped).  Use {!get}/{!set}
    for [int32] views; direct indexing yields the sign-extended value
    (identical to {!get_int}). *)
type hart = {
  regs : int array;
  mutable pc : int;
}

val create_hart : ?pc:int -> unit -> hart

val get : hart -> Xloops_isa.Reg.t -> int32
val set : hart -> Xloops_isa.Reg.t -> int32 -> unit
val get_int : hart -> Xloops_isa.Reg.t -> int
val set_int : hart -> Xloops_isa.Reg.t -> int -> unit

(** Memory interface: bind to {!Xloops_mem.Memory} directly, or to an
    LSQ overlay for speculative lanes.  Build once per machine or lane —
    not per instruction. *)
type mem_iface = {
  load : Xloops_isa.Insn.width -> int -> int;
  store : Xloops_isa.Insn.width -> int -> int -> unit;
  amo : Xloops_isa.Insn.amo_op -> int -> int -> int;
}
(** Values are sign-extended native ints, the register-file
    representation: [load] returns the sign- or zero-extended value,
    [store] writes the low bytes of its value, [amo] returns the old
    word. *)

val direct_mem : Xloops_mem.Memory.t -> mem_iface

(** What one dynamic instruction did.  A reusable scratch record:
    {!step} overwrites every field on each call, so consumers must read
    what they need before the next step on the same scratch.  The
    executed instruction is identified by [prog]/[pc] (see
    {!event_insn}) instead of being stored — a pointer store per step
    would pay a write barrier on every instruction. *)
type event = {
  mutable prog : Program.t;
  mutable pc : int;
  mutable next_pc : int;
  mutable taken : bool;
  mutable mem_addr : int;      (** -1 if not a memory operation *)
  mutable mem_bytes : int;
  mutable mem_is_store : bool;
  mutable mem_is_amo : bool;
}

val event_insn : event -> int Xloops_isa.Insn.t
(** The instruction the event describes: [prog.insns.(pc)]. *)

val create_event : unit -> event
(** A fresh scratch, initialized to a retired [Nop] at pc 0. *)

val step : Program.predecoded -> hart -> mem_iface -> event -> unit
(** Execute the instruction at [hart.pc] and advance, filling the event
    scratch in place.  [Xloop] executes with its traditional
    (conditional-branch) semantics.  Raises {!Halted} on [Halt] (with
    [hart.pc] left at the halt), {!Trap} on bad PCs. *)

val step_ref : Program.t -> hart -> mem_iface -> event -> unit
(** Reference executor decoding the raw instruction stream on every
    call; the semantic baseline {!step} is property-tested against. *)

(** {1 Pure operator semantics} (exposed for property tests) *)

val alu_eval : Xloops_isa.Insn.alu_op -> int32 -> int32 -> int32
val fpu_eval : Xloops_isa.Insn.fpu_op -> int32 -> int32 -> int32
val branch_eval : Xloops_isa.Insn.branch_cond -> int32 -> int32 -> bool

(** The same semantics over sign-extended native ints — the hot-path
    variants {!step} dispatches to.  Operands must be normalized
    (sign-extended 32-bit values); results are normalized. *)

val alu_eval_int : Xloops_isa.Insn.alu_op -> int -> int -> int
val fpu_eval_int : Xloops_isa.Insn.fpu_op -> int -> int -> int
val branch_eval_int : Xloops_isa.Insn.branch_cond -> int -> int -> bool

(** {1 Whole-program functional runs} *)

type run = {
  dynamic_insns : int;
  final : hart;
}

type stop = Out_of_fuel of { pc : int; insns : int; cycle : int }
(** Structured termination reason for a run that exhausted its fuel
    (for the functional model, [cycle] = [insns]). *)

val pp_stop : Format.formatter -> stop -> unit

val run_serial : ?entry:int -> ?fuel:int -> Program.t ->
  Xloops_mem.Memory.t -> (run, stop) result
(** Reference serial execution until [Halt]; the paper's
    dynamic-instruction-count columns come from here.  Fuel exhaustion
    is reported as [Error], not raised.  Predecodes the program
    itself. *)

val run_serial_ref : ?entry:int -> ?fuel:int -> Program.t ->
  Xloops_mem.Memory.t -> (run, stop) result
(** [run_serial] through {!step_ref} — original decode path, for
    differential tests. *)
