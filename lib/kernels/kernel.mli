(** Kernel descriptor: a Loopc program, its deterministic dataset
    initializer, and a self-check against an OCaml-computed reference.
    Every Table II / Table IV / extension kernel is one of these. *)

module Memory = Xloops_mem.Memory

type bases = string -> int
(** Array base resolver: the data address the compiler placed an array
    at. *)

type t = {
  name : string;
  suite : string;           (** Po / M / P / C, as in Table II *)
  dominant : string;        (** dominant dependence pattern, e.g. "uc" *)
  kernel : Xloops_compiler.Ast.kernel;
  init : bases -> Memory.t -> unit;
  check : bases -> Memory.t -> (unit, string) result;
}

val arr : string -> Xloops_compiler.Ast.ty -> int ->
  Xloops_compiler.Ast.array_decl

(** {1 Check helpers} *)

val check_int_array :
  what:string -> expected:int array -> int array -> (unit, string) result

val check_f32_array :
  what:string -> expected:float array -> ?eps:float -> float array ->
  (unit, string) result

val check_sorted : what:string -> int array -> (unit, string) result

val check_permutation :
  what:string -> of_:int array -> int array -> (unit, string) result

val all_checks : (unit, string) result list -> (unit, string) result

(** {1 Compile-and-simulate convenience} *)

module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Compile = Xloops_compiler.Compile

type run = {
  result : Machine.result;
  compiled : Compile.compiled;
  mem : Memory.t;
  check_result : (unit, string) result;
  hangs : Xloops_sim.Fault.hang list;
      (** LPSU watchdog diagnostics, oldest first: every hang of the run,
          degraded ones included *)
}

val run_compiled :
  ?cfg:Config.t -> ?mode:Machine.mode ->
  ?adaptive:Config.adaptive -> ?faults:Xloops_sim.Fault.t ->
  ?watchdog:int -> ?degrade:bool -> ?fuel:int ->
  ?trace:Xloops_sim.Trace.t ->
  t -> Compile.compiled -> (run, Machine.failure) result
(** Initialize a fresh memory, simulate the already-compiled program and
    self-check.  The compiled value is only read, so one compile can back
    any number of runs (concurrent ones included).  A simulation failure
    (fuel exhaustion, un-degraded LPSU hang) is [Error]. *)

val run_result :
  ?target:Compile.target -> ?cfg:Config.t -> ?mode:Machine.mode ->
  ?adaptive:Config.adaptive -> ?faults:Xloops_sim.Fault.t ->
  ?watchdog:int -> ?degrade:bool -> ?fuel:int ->
  ?trace:Xloops_sim.Trace.t ->
  t -> (run, Machine.failure) result
(** Compile for [target] (default XLOOPS), then {!run_compiled}. *)

val run :
  ?target:Compile.target -> ?cfg:Config.t -> ?mode:Machine.mode ->
  ?adaptive:Config.adaptive -> ?faults:Xloops_sim.Fault.t ->
  ?watchdog:int -> ?degrade:bool -> ?fuel:int ->
  ?trace:Xloops_sim.Trace.t -> t -> run
(** {!run_result}, raising [Failure] on a simulation failure. *)

val dynamic_insns : t -> Compile.compiled -> (int, string) result
(** Dynamic instruction count of the serial functional execution of the
    kernel compiled for one ISA — Table II's GPI/XLI columns.  [Error] if
    the kernel exhausts the functional model's fuel. *)
