(** Top-level machine: a GPP, optionally with an LPSU, executing a
    program in one of the paper's three execution modes.

    - {b Traditional}: [xloop] as a branch, [.xi] as an add — the whole
      program runs on the GPP.
    - {b Specialized}: taking an [xloop] back-edge triggers the scan
      phase and hands the remaining iterations to the LPSU; loops the
      LPSU cannot handle (oversized body, unsupported pattern, calls)
      fall back to traditional execution.
    - {b Adaptive}: an adaptive profiling table (APT) indexed by the
      [xloop] PC measures traditional throughput, then specialized
      throughput over the same number of iterations, and commits to the
      winner (Section II-E); profiling stretches across dynamic
      instances, and losing loops migrate back to the GPP. *)

type mode = Traditional | Specialized | Adaptive

val mode_name : mode -> string
(** "T" / "S" / "A", as in Table II's column heads. *)

type result = {
  cycles : int;
  insns : int;        (** dynamically committed instructions *)
  stats : Stats.t;
}

(** Why a run could not complete.  Structured data rather than an
    exception so sweep drivers can report the failing kernel and keep
    going. *)
type failure =
  | Out_of_fuel of { pc : int; insns : int; cycle : int }
      (** the GPP instruction budget ran out at [pc] *)
  | Lpsu_hang of Fault.hang
      (** the LPSU watchdog tripped and degradation was disabled *)

val pp_failure : Format.formatter -> failure -> unit

type t

val create :
  ?adaptive:Config.adaptive ->
  ?lpsu_fuel:int ->
  ?trace:Trace.t ->
  ?faults:Fault.t ->
  ?watchdog:int ->
  ?degrade:bool ->
  cfg:Config.t -> mode:mode ->
  prog:Xloops_asm.Program.t -> mem:Xloops_mem.Memory.t ->
  ?entry:int -> unit -> t
(** Raises [Invalid_argument] if [mode] needs an LPSU and [cfg] has
    none.

    [faults] attaches a fault-injection plan to every specialized run.
    [watchdog] (default 50_000, 0 = off) is the LPSU's no-progress
    threshold in cycles.  [degrade] (default [true]) enables the safety
    net: a specialized run that hangs or runs under injected faults is
    rolled back — registers from a snapshot, memory from a write
    journal — and the loop re-executes traditionally on the GPP, pinned
    traditional for the rest of the run.  With [degrade:false] a hang
    surfaces as [Error (Lpsu_hang _)] instead. *)

val hangs : t -> Fault.hang list
(** Watchdog diagnostics collected so far, in chronological order. *)

val run : ?fuel:int -> t -> (result, failure) Stdlib.result
(** Execute to [Halt].  [fuel] bounds GPP-committed instructions;
    exhausting it is [Error (Out_of_fuel _)], never an exception. *)

val ok_exn : (result, failure) Stdlib.result -> result
(** Unwrap, raising [Failure] with a one-line diagnostic on [Error] —
    for tests and examples where a failure is a bug. *)

val simulate :
  ?lpsu_fuel:int -> ?trace:Trace.t ->
  ?faults:Fault.t -> ?watchdog:int -> ?degrade:bool ->
  ?entry:int -> ?fuel:int ->
  cfg:Config.t -> mode:mode ->
  Xloops_asm.Program.t -> Xloops_mem.Memory.t ->
  (result, failure) Stdlib.result
(** One-call convenience: {!create} + {!run}. *)
