(** Compiler driver: Loopc kernel -> assembled program, through constant
    inlining, lowering (+ pattern selection and [.xi] strength
    reduction), linear-scan register allocation and code generation. *)

type target = Lower.target = { xloops : bool; use_xi : bool }

val general : target
(** The general-purpose ISA: annotated loops become plain branch loops —
    the serial baselines of Table II. *)

val xloops : target
(** Full XLOOPS ISA with [.xi] strength reduction. *)

val xloops_no_xi : target
(** XLOOPS without [.xi] — the paper's RTL/VLSI evaluation mode, which
    disables [.xi] generation in loop strength reduction and recomputes
    addresses instead (Section V-A). *)

exception Error of string

type compiled = {
  program : Xloops_asm.Program.t;
  layout : Xloops_asm.Layout.t;
  array_base : string -> int;       (** data address of an array *)
  spill_slots : int;
  mem_bytes : int;
      (** Simulated memory size for every run of this program: the
          smallest power of two, at least 4 KiB, that covers the end of
          every region of [layout], the [$spill] area included.
          Registry kernels size to 8 or 16 KiB. *)
  target : target;
  kernel : Ast.kernel;
}

val compile : ?target:target -> Ast.kernel -> compiled
(** Raises {!Error} on unbound names, type errors, or register pressure
    that would require spill stores inside an [xloop] body (spill slots
    are shared memory; lanes would race on them). *)

val xloop_bodies : Xloops_asm.Program.t -> (int * int * int) list
(** (body start pc, xloop pc, static body length) per [xloop] — the
    Table II loop statistics. *)
