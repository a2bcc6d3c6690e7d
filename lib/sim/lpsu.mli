(** Cycle-level, execution-driven model of the loop-pattern
    specialization unit (Section II-D, Figure 4): decoupled in-order
    lanes fed by an index-dispensing LMU, with the MIVT seeding mutual
    induction variables per iteration, CIB chains carrying [or/orm]
    register dependences, per-lane LSQs with store-broadcast violation
    detection and squash/restart for [om/orm/ua], dynamic-bound updates
    for [.db], and arbitration for the shared memory port and LLFU.

    Squashed iterations genuinely re-execute, so data-dependent
    violation behaviour (ksack-sm vs ksack-lg) emerges from execution. *)

exception Lane_trap of string

type result = {
  cycles : int;             (** specialized-execution cycles *)
  iterations : int;         (** iterations committed *)
  finished : bool;          (** ran to the (final) bound *)
  next_idx : int32;         (** index value of the next iteration *)
  bound : int32;            (** final, possibly dynamically-raised *)
  cir_finals : (Xloops_isa.Reg.t * int32) list;
      (** serial-final CIR values (defined live-outs of [xloop.or]) *)
  miv_finals : (Xloops_isa.Reg.t * int32) list;
}

type t
(** One machine's LPSU: its lanes' contexts, LSQs, CIB chains and shared
    ports, built once and reset for every specialized loop. *)

val create :
  pre:Xloops_asm.Program.predecoded ->
  mem:Xloops_mem.Memory.t ->
  dcache:Xloops_mem.Cache.t ->
  cfg:Config.t ->
  stats:Stats.t ->
  ?trace:Trace.t ->
  ?faults:Fault.t ->
  unit -> t
(** The LPSU of [cfg] for a machine running the predecoded program
    [pre] on [mem]; its per-pc metadata and lane fast path are built
    here, once.  [dcache] is the GPP's L1D (the LPSU shares its port);
    counters accumulate into [stats].  [faults] injects the plan's due events each cycle.
    Raises [Invalid_argument] if [cfg] has no LPSU. *)

val run :
  t ->
  info:Scan.t ->
  regs:int array ->
  start_cycle:int ->
  ?stop_after:int ->
  ?watchdog:int ->
  ?fuel:int ->
  unit -> (result, Fault.hang) Stdlib.result
(** Run specialized execution of the loop described by [info], with GPP
    register snapshot [regs] (live-ins, MIV bases, initial CIR values).
    [stop_after] bounds the number of iterations dispatched — the
    adaptive profiling phase; in-flight iterations always drain before
    returning.

    [watchdog] (off when 0) declares a hang after that many cycles
    without a dispatch or commit, classified by the blocked resource.
    Hangs — including fuel exhaustion, and architectural traps provoked
    by an injected fault — return as [Error] so the machine can restore
    its checkpoint and degrade to traditional execution. *)
