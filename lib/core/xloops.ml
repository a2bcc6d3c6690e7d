(** XLOOPS: explicit loop specialization — a full-system reproduction of
    Srinath et al., "Architectural Specialization for Inter-Iteration Loop
    Dependence Patterns" (MICRO 2014).

    This is the façade module; the pieces are:

    - {!Isa} / {!Asm} / {!Mem}: the 32-bit RISC + XLOOPS instruction set,
      assembler and memory subsystem;
    - {!Sim}: functional executor, in-order and out-of-order GPP timing
      models, the LPSU, and the machine driver with traditional /
      specialized / adaptive execution;
    - {!Compiler}: the Loopc language and the XLOOPS compiler (dependence
      analysis, pattern selection, [.xi] strength reduction);
    - {!Energy} / {!Vlsi}: McPAT-style energy accounting and the Table V
      area/cycle-time model;
    - {!Kernels}: the 25 Table II application kernels plus the Table IV
      variants;
    - {!Run_spec} / {!Pool} / {!Run_cache}: the parallel evaluation
      engine — pure run plans, the Domain-based worker pool and the
      content-addressed on-disk result cache;
    - {!Failure} / {!Journal} / {!Chaos}: the fault-tolerant
      orchestration layer — the unified failure taxonomy with seeded
      retry/backoff, the crash-safe sweep journal behind [--resume],
      and seeded infrastructure chaos plans;
    - {!Experiments}: the harness that regenerates every table and
      figure, including {!Experiments.sweep}, the fault-tolerant sweep
      driver.

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
module Run_spec = Run_spec
module Pool = Pool
module Run_cache = Run_cache
module Failure = Failure
module Journal = Journal
module Chaos = Chaos
module Experiments = Experiments
module Differential = Differential
