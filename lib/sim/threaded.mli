(** Block-compiled execution tier: each {!Program.predecoded} compiles
    once into one closure per static instruction and, above those, one
    closure per basic block that retires the whole block in one bump,
    with the dominant add chains, addi+cmp+branch back edges and
    address-gen+load+bump triples fused inside.  Only block leaders
    dispatch a block closure; every other pc keeps its single-op
    closure, so jumps into the middle of a block are always legal.

    The tier produces no per-instruction events, so it serves only
    observer-free functional runs; timing models, tracing, the watchdog
    and fault injection stay on {!Exec.step}.  The exception is the LPSU
    lane fast path ({!lane_meta}): pcs whose execution is observationally
    silent at the lane level may run their compiled closure between
    observation points, with the LPSU falling back to [Exec.step]
    whenever an observer is attached. *)

module Program = Xloops_asm.Program

(** Machine state the compiled closures act on.  [regs] and [mem] may
    alias a caller's structures (the LPSU lanes point [regs] at the
    hart's register file); [pc]/[retired] are only guaranteed current at
    dispatch boundaries and sync points — see {!run_serial_block}. *)
type state = {
  regs : int array;
  mem : Xloops_mem.Memory.t;
  mutable pc : int;
  mutable retired : int;
}

type op = state -> unit

val run_serial_block : ?entry:int -> ?fuel:int -> Program.t ->
  Xloops_mem.Memory.t -> (Exec.run, Exec.stop) result
(** Same contract as {!Exec.run_serial}, bit-identical results
    (registers, memory, dynamic instruction count, out-of-fuel report,
    trap/halt behavior) — property-tested in [test_threaded].  One
    dispatch and one retirement bump per basic block; side exits
    (memory traps, halt, fuel exhaustion) materialize the precise
    mid-block pc and register state.  Compilation is memoized per
    domain, keyed by physical equality. *)

(** {1 Compilation plan} *)

val block_plan : Program.t -> (int * int) list * (int * string) list
(** Compiled basic blocks as (leader pc, uop count) and fused triples as
    (head pc, "class+class+class"), both in ascending pc order. *)

(** {1 LPSU lane fast path} *)

(** Per-pc lane metadata: [L_plain] marks instructions an LPSU lane may
    execute through the compiled closure — single-cycle, portless,
    trapless, no memory traffic, no long-latency unit, no loop
    bookkeeping, and any control transfer recoverable from the outgoing
    pc ([l_ctrl]: 0 = never redirects, 1 = conditional, taken iff the
    outgoing pc differs from pc+1, 2 = always taken).  The LPSU demotes
    additional pcs it observes (CIR registers, last-CIR-write pcs,
    dynamic-bound writes) and skips the fast path entirely under any
    attached observer. *)
type lane_meta =
  | L_slow
  | L_plain of {
      l_op : op;
      l_rd : int;   (** dest register, -1 when none *)
      l_s1 : int;   (** source registers, -1 when absent *)
      l_s2 : int;
      l_ctrl : int;
    }

val lane_meta : Program.predecoded -> lane_meta array
(** Memoized with the compiled program (per domain, physical equality);
    callers must not mutate the array — copy before demoting. *)
