(** XLOOPS: explicit loop specialization — a full-system reproduction of
    Srinath et al., "Architectural Specialization for Inter-Iteration Loop
    Dependence Patterns" (MICRO 2014).

    This façade re-exports the toolchain:

    - {!Isa} / {!Asm} / {!Mem}: the 32-bit RISC + XLOOPS instruction set,
      assembler and memory subsystem;
    - {!Sim}: functional executor, in-order and out-of-order GPP timing
      models, the LPSU, and the machine driver with traditional /
      specialized / adaptive execution;
    - {!Compiler}: the Loopc language and the XLOOPS compiler;
    - {!Energy} / {!Vlsi}: McPAT-style energy accounting and the Table V
      area/cycle-time model;
    - {!Kernels}: the Table II / Table IV / extension kernels;
    - {!Run_spec} / {!Pool} / {!Run_cache}: the parallel evaluation
      engine — pure run plans, the Domain-based worker pool and the
      content-addressed on-disk result cache;
    - {!Field_codec}: the binary field codec behind run-spec encoding
      and the service wire protocol;
    - {!Program_cache}: each registry kernel compiled once per target
      per process, shared by cache keys, runs and kernel metadata;
    - {!Failure} / {!Journal} / {!Chaos}: the fault-tolerant
      orchestration layer — the unified failure taxonomy with seeded
      retry/backoff, the crash-safe sweep journal behind [--resume],
      and seeded infrastructure chaos plans;
    - {!Experiments}: the harness regenerating every table and figure;
    - {!Differential}: the cross-mode differential checker.

    Quick start (see also [examples/quickstart.ml]):
    {[
      let kernel = Xloops.Kernels.Registry.find "sgemm-uc" in
      let run =
        Xloops.Kernels.Kernel.run
          ~cfg:Xloops.Sim.Config.io_x
          ~mode:Xloops.Sim.Machine.Specialized kernel
      in
      Fmt.pr "cycles: %d@." run.result.cycles
    ]} *)

module Isa = Xloops_isa
module Asm = Xloops_asm
module Mem = Xloops_mem
module Sim = Xloops_sim
module Compiler = Xloops_compiler
module Energy = Xloops_energy
module Vlsi = Xloops_vlsi
module Kernels = Xloops_kernels
module Digest_hex = Digest_hex
module Field_codec = Field_codec
module Program_cache = Program_cache
module Run_spec = Run_spec
module Pool = Pool
module Run_cache = Run_cache
module Failure = Failure
module Journal = Journal
module Chaos = Chaos
module Experiments = Experiments
module Differential = Differential
