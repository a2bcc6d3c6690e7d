(** Alias of {!Exec.run_serial}, kept only because [perfbench/traced.ml]
    still calls it; the ROADMAP's "one ledger" item deletes that replica
    and this module with it.  Library code calls {!Exec.run_serial}. *)

val run_serial : ?entry:int -> ?fuel:int -> Xloops_asm.Program.t ->
  Xloops_mem.Memory.t -> (Exec.run, Exec.stop) result
