(** First-class run plans: one serializable value per self-contained
    simulation.  Executing a spec builds a fresh machine and memory, so
    specs are independent by construction and can execute concurrently
    ({!Pool}).  The compiled program is shared: a registry kernel is
    compiled once per (kernel, target) per process ({!Program_cache}),
    the key, the run and the kernel metadata all read that one value.
    The canonical encoding and digest make specs the keys of the on-disk
    result cache ({!Run_cache}). *)

module Kernel = Xloops_kernels.Kernel
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Stats = Xloops_sim.Stats
module Compile = Xloops_compiler.Compile
module Energy = Xloops_energy.Model

type t = {
  kernel : string;                  (** registry name *)
  cfg : Config.t;
  mode : Machine.mode;
  target : Compile.target;
  fuel : int option;                (** GPP instruction budget *)
  fault_seed : (int * int) option;  (** (seed, events) of a fault plan *)
  watchdog : int;                   (** LPSU no-progress threshold, 0 = off *)
  degrade : bool;                   (** traditional-fallback safety net *)
}

val make :
  ?target:Compile.target -> ?fuel:int -> ?fault_seed:int * int ->
  ?watchdog:int -> ?degrade:bool ->
  cfg:Config.t -> mode:Machine.mode -> string -> t
(** [make ~cfg ~mode kernel_name] with the simulator's default
    robustness knobs (no fuel bound beyond {!Kernel.run_result}'s
    default, no faults, 50k-cycle watchdog, degradation on). *)

val what : t -> string
(** ["cfg-name/mode"], as the self-check diagnostics spell it. *)

val pp : Format.formatter -> t -> unit

(** {1 Canonical encoding and content addressing} *)

val encode : t -> string
(** Canonical binary encoding: deterministic field-by-field
    serialization covering every field (including the full machine
    configuration), stable across processes.  This is the {e only} form
    in which a spec crosses a process boundary — the wire protocol
    carries exactly these bytes.  The bytes of each [Config.t] value are
    taken once and reused while a small process-wide table, keyed by
    the value's physical identity, holds them. *)

val decode : string -> (t, string) result
(** Strict inverse of {!encode}: every field must parse and the input
    must be fully consumed, so a truncated or tampered frame is an
    [Error], never a half-filled spec. *)

val digest : t -> Digest_hex.t
(** MD5 of {!encode} — the spec's identity (journal key, in-flight
    dedupe key). *)

val cache_key : ?kernel:Kernel.t -> t -> Digest_hex.t
(** Content address of the spec's result: digest over the canonical
    encoding {e and} the MD5 of the compiled program's listing.  The
    program is compiled once per process ({!Program_cache}) and the
    listing digest is taken at that first use, so compiler or kernel
    changes still invalidate cached results by construction: a new
    build produces a new listing.  A [kernel] override is compiled
    afresh and never enters the program cache, so a synthetic kernel
    under a registry name keys on its own program. *)

(** A spec paired with its canonical encoding, taken once: a daemon
    digests and keys the bytes a spec arrived as instead of encoding
    the decoded spec again.  {!digest} and {!cache_key} over a value
    are exactly {!Run_spec.digest} and {!Run_spec.cache_key} of its
    [spec]. *)
module Encoded : sig
  type spec := t

  type t

  val spec : t -> spec

  val bytes : t -> string
  (** Always [encode (spec e)]. *)

  val decode : string -> (t, string) result
  (** {!Run_spec.decode}, with the input as [bytes].  An input that
      spells an integer otherwise than {!encode} would (a leading zero,
      ["-0"]) still decodes, and its [bytes] are the re-encoding. *)

  val digest : t -> Digest_hex.t

  val cache_key : t -> Digest_hex.t
  (** Resolves the program like {!Run_spec.cache_key}, so an unknown
      kernel raises here too. *)
end

val kernel_digest : Kernel.t -> Digest_hex.t
(** Content address of a kernel's target-independent metadata: digest
    over its name and the listings of its general and XLOOPS programs.
    A registry kernel's programs come from {!Program_cache} (compiled
    once per process); any other kernel is compiled afresh. *)

(** {1 Execution} *)

type run_data = {
  cfg : Config.t;
  mode : Machine.mode;
  cycles : int;
  insns : int;
  stats : Stats.t;
  energy : Energy.breakdown;
}

exception Check_failed of { kernel : string; what : string; msg : string }
(** Alias of {!Failure.Check_failed}. *)

val run_result :
  ?kernel:Kernel.t -> ?trace:Xloops_sim.Trace.t -> t ->
  (Kernel.run, Machine.failure) result
(** Low-level execution returning the full {!Kernel.run} without raising
    on a failed self-check — the form the CLIs use.  Without [kernel]
    the program is the registry kernel's shared {!Program_cache} entry;
    [kernel] overrides the registry lookup (synthetic kernels) and is
    compiled afresh. *)

val execute_result : ?kernel:Kernel.t -> t -> (run_data, Failure.t) result
(** Checked execution distilled to {!run_data}, with every failure mode
    folded into the orchestration taxonomy (simulation failures as
    [Failure.Sim], failed self-checks as [Failure.Check]).  Sets
    [stats.wall_ns] to the simulation's wall-clock. *)

val execute : ?kernel:Kernel.t -> t -> run_data
(** Raising form of {!execute_result}: {!Check_failed} on a failed
    self-check, [Failure] on a simulation failure. *)
