(** Functional execution for observer-free runs (kernel instruction
    counts, the bench harness, the sweep service).

    Three interpreters implement identical architectural semantics:
    {!Exec.run_serial_ref} decodes raw instructions every step (the
    semantic oracle), {!Exec.run_serial} dispatches on micro-ops through
    {!Exec.step} (the observed path the timing models use), and
    {!Threaded.run_serial_block} dispatches one compiled closure per
    basic block.  A run nobody observes always takes the fastest, the
    block tier. *)

val run_serial : ?entry:int -> ?fuel:int -> Xloops_asm.Program.t ->
  Xloops_mem.Memory.t -> (Exec.run, Exec.stop) result
(** {!Threaded.run_serial_block}. *)
