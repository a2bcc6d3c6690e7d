(** Differential checker for the graceful-degradation safety net: every
    fault-injected, degraded specialized run must leave memory
    bit-identical to a plain traditional run of the same kernel.

    Registers are deliberately not compared — post-loop values of
    registers not live-out of an xloop are unspecified by the ISA; memory
    plus the kernel's self-check is authoritative. *)

module Machine = Xloops_sim.Machine
module Fault = Xloops_sim.Fault
module Config = Xloops_sim.Config
module Kernel = Xloops_kernels.Kernel

type outcome = {
  kernel : string;
  failure : Machine.failure option;  (** faulted run failed outright *)
  identical : bool;                  (** memory matches traditional *)
  check_ok : bool;                   (** kernel self-check on faulted run *)
  injected : Fault.kind list;        (** distinct kinds actually injected *)
  degradations : int;
  hangs : Fault.hang list;
}

val ok : outcome -> bool
(** No failure, memory identical, self-check passed. *)

val pp_outcome : Format.formatter -> outcome -> unit

val check_table2 :
  ?cfg:Config.t -> ?mode:Machine.mode -> ?watchdog:int -> ?events:int ->
  seed:int -> unit -> outcome list * Fault.kind list
(** Sweep all 25 Table II kernels, each under a deterministic per-kernel
    fault plan derived from [seed]; returns outcomes and the union of
    fault kinds injected across the sweep. *)
