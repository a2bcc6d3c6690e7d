(** The evaluation engine: regenerates the paper's tables and figures
    from the simulator.  Every run self-checks its architectural outputs
    against the kernel's OCaml reference; a failed check raises
    {!Check_failed} instead of producing numbers. *)

module Kernel = Xloops_kernels.Kernel
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Stats = Xloops_sim.Stats
module Compile = Xloops_compiler.Compile
module Energy = Xloops_energy.Model

type run_data = Run_spec.run_data = {
  cfg : Config.t;
  mode : Machine.mode;
  cycles : int;
  insns : int;
  stats : Stats.t;
  energy : Energy.breakdown;
}

exception Check_failed of { kernel : string; what : string; msg : string }
(** Alias of {!Run_spec.Check_failed}. *)

val run_checked :
  ?target:Compile.target -> cfg:Config.t -> mode:Machine.mode ->
  Kernel.t -> run_data
(** One checked run, described as a {!Run_spec} and executed in place. *)

type host_eval = {
  base : run_data;   (** serial baseline on the bare GPP *)
  trad : run_data;
  spec : run_data;
  adapt : run_data;
}

type eval = {
  kernel : Kernel.t;
  gpi_dyn : int;
  xli_dyn : int;
  body_min : int;
  body_max : int;
  per_host : (string * host_eval) list;
}

(** {1 The run engine}

    Producers obtain results through an {!engine}: [run] executes one
    {!Run_spec} (directly, memoized or cached — producers don't care),
    [meta] computes a kernel's dynamic-instruction counts and body
    statistics.  Warm a {!caching_engine} in parallel with
    [Pool.map ~jobs engine.run specs], then assemble tables serially:
    the output is byte-identical to a fully serial sweep. *)

type kernel_meta = {
  gpi_dyn : int;
  xli_dyn : int;
  body_min : int;
  body_max : int;
}

type engine = {
  run : Run_spec.t -> run_data;
  meta : Kernel.t -> kernel_meta;
}

val direct_engine : engine
(** Executes every spec directly (serial, uncached). *)

val caching_engine : ?cache:Run_cache.t -> unit -> engine
(** Thread-safe in-memory memoization on top of the optional on-disk
    cache.  With a cache, disk hits get [stats.cache_hits = 1] and fresh
    simulations [stats.cache_misses = 1]; without one, neither flag is
    set. *)

(** {1 Fault-tolerant sweeps}

    {!sweep} executes a spec plan under the orchestration stack: crash
    isolation and retry ({!Pool.run_each}), journaled checkpoint/resume
    ({!Journal}), and optional infrastructure chaos ({!Chaos}).  A
    failing or timed-out spec becomes a per-item failure in the report
    instead of aborting the sweep; only [Failure.Abort] propagates. *)

type sweep_outcome = {
  so_spec : Run_spec.t;
  so_digest : Digest_hex.t;         (** {!Run_spec.digest} — journal key *)
  so_attempts : int;
  so_result : (run_data, Failure.t) result option;
      (** [None] when the journal said the spec was already complete *)
}

type sweep_report = {
  sr_outcomes : sweep_outcome list; (** in plan order *)
  sr_executed : int;                (** items actually run (ok or failed) *)
  sr_skipped : int;                 (** items served by the journal *)
  sr_failures : (Run_spec.t * Failure.t) list;
}

val sweep :
  ?jobs:int -> ?policy:Pool.policy -> ?journal:Journal.t ->
  ?chaos:Chaos.t -> engine -> Run_spec.t list -> sweep_report
(** Specs already in [journal] are skipped; completed specs are durably
    journaled the moment they finish, so a killed sweep resumes from
    exactly where it died.  Successful results stay in the engine's
    memo/cache, so assembly passes after the sweep are unchanged and
    stdout stays byte-identical to an uninterrupted serial sweep. *)

val pp_sweep_failure :
  Format.formatter -> Run_spec.t * Failure.t -> unit

val specs_for : Kernel.t -> Run_spec.t list
(** The twelve specs of one kernel's Table II methodology, in canonical
    (base, trad, spec, adapt)-per-host order. *)

val evaluate : ?engine:engine -> Kernel.t -> eval
(** Without [engine], every spec executes directly against the passed
    kernel value (which need not be registered); with one, specs resolve
    through the registry and may be served memoized or from cache. *)

val host : eval -> string -> host_eval

val speedup : host_eval -> run_data -> float
(** Relative to the serial baseline on the same GPP. *)

val energy_eff : host_eval -> run_data -> float
val rel_power : host_eval -> run_data -> float

(** {1 Table II} *)

type table2_row = {
  t2_name : string;
  t2_suite : string;
  t2_type : string;
  t2_body : int * int;
  t2_gpi : int;
  t2_xg : float;
  t2_speedups : (string * (float * float * float)) list;
}

val table2_row : eval -> table2_row
val pp_table2_header : Format.formatter -> unit -> unit
val pp_table2_row : Format.formatter -> table2_row -> unit

(** {1 Figures 6-10, Table IV} *)

val fig6_row : eval -> string * (string * float) list
val pp_fig6 :
  Format.formatter -> (string * (string * float) list) list -> unit

type fig8_point = {
  f8_kernel : string;
  f8_host : string;
  f8_mode : string;
  f8_speedup : float;
  f8_energy_eff : float;
  f8_rel_power : float;
}

val fig8_points : eval -> fig8_point list
val pp_fig8 : Format.formatter -> fig8_point list -> unit

val fig9_specs : unit -> Run_spec.t list
val fig9 : ?engine:engine -> unit -> (string * (string * float) list) list
val pp_fig9 :
  Format.formatter -> (string * (string * float) list) list -> unit

val table4_specs : unit -> Run_spec.t list
val table4 :
  ?engine:engine -> unit -> (string * string * (string * float) list) list
val pp_table4 :
  Format.formatter -> (string * string * (string * float) list) list -> unit

val fig10_specs : unit -> Run_spec.t list
val fig10 : ?engine:engine -> unit -> (string * float * float) list
val pp_fig10 : Format.formatter -> (string * float * float) list -> unit

(** {1 The find-de extension and the quick plan} *)

val extension_runs : (string * Run_spec.t) list
(** The labelled [find-de] runs of the data-dependent-exit extension
    section. *)

val quick_kernels : string list
(** The six kernels [bench/main.exe --quick] tabulates. *)

val dedupe_specs : Run_spec.t list -> Run_spec.t list
(** Drop specs whose {!Run_spec.digest} already occurred, keeping the
    first occurrence's order. *)

val quick_plan : unit -> Run_spec.t list
(** Every spec [bench/main.exe --quick] simulates, deduplicated and in
    its planning order: Table II for {!quick_kernels}, Figure 9, Table
    IV, Figure 10 and {!extension_runs}. *)
