(** The functional tier for observer-free runs: the block compiler. *)

let run_serial ?entry ?fuel prog mem =
  Threaded.run_serial_block ?entry ?fuel prog mem
