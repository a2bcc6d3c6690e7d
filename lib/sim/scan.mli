(** Scan-phase static analysis of an [xloop] body (Section II-D): the
    MIVT (register, increment) entries from [.xi] instructions, the CIR
    set for [or/orm] via read-before-write bit-vectors, last-CIR-write
    positions, the loop-index step, and the reasons a loop must fall
    back to traditional execution. *)

type miv = {
  m_reg : Xloops_isa.Reg.t;
  m_inc : int32;   (** per-iteration increment, resolved at scan time *)
}

type cir = {
  c_reg : Xloops_isa.Reg.t;
  c_last_write_pc : int;
      (** PC carrying the last-CIR-write bit; -1 when the value may only
          be forwarded by the end-of-iteration copy (never written, or
          written inside an inner loop where the write re-executes) *)
}

type fallback_reason =
  | Body_too_large of int
  | Pattern_unsupported of Xloops_isa.Insn.dpattern
  | Has_call
  | Bad_index_step
  | Malformed_body

val pp_fallback : Format.formatter -> fallback_reason -> unit

type t = {
  xloop_pc : int;
  body_start : int;
  body_len : int;
  pat : Xloops_isa.Insn.xpat;
  r_idx : Xloops_isa.Reg.t;
  r_bound : Xloops_isa.Reg.t;
  idx_step : int32;
  mivs : miv list;
  cirs : cir list;
}

val has_cirs : Xloops_isa.Insn.xpat -> bool
val is_speculative_pattern : Xloops_isa.Insn.xpat -> bool
(** [om], [orm] and [ua] need the LSQ speculation machinery — and so
    does any [.de] loop, whose iterations beyond the data-dependent exit
    are control-speculative and must leave no trace. *)

val analyze : Xloops_asm.Program.t -> xloop_pc:int -> regs:int array ->
  lpsu:Config.lpsu -> (t, fallback_reason) result
(** [regs] is the GPP register file at scan time (resolves the
    loop-invariant increments of [addu.xi]).  Raises [Invalid_argument]
    if [xloop_pc] does not hold an [xloop].  Equal to {!shape} followed
    by {!resolve}. *)

type shape
(** Everything {!analyze} finds without reading a register: a machine
    scans each xloop pc once and resolves the result per loop
    instance. *)

val shape : Xloops_asm.Program.t -> xloop_pc:int -> lpsu:Config.lpsu ->
  (shape, fallback_reason) result
(** The register-independent checks and the static pass over the body.
    [Error] is a fallback whatever the registers; [Bad_index_step] can
    still come from {!resolve}.  Raises [Invalid_argument] if
    [xloop_pc] does not hold an [xloop]. *)

val resolve : shape -> regs:int array -> (t, fallback_reason) result
(** The scan result under GPP registers [regs].  A body without
    [addu.xi] reads no register and returns the same result every
    time, allocating nothing. *)
