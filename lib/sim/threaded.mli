(** Direct-threaded execution tier: each {!Program.predecoded} compiles
    once into an array of closures (one indirect call per dispatch, no
    event record), with adjacent-pair *superop* fusion — cmp+branch,
    address-gen+load/store, [.xi] add+index-bump — on top, and a
    *block-compiled* layer above that: basic blocks discovered at
    predecode time compile into single closures that retire the whole
    block in one bump, with the dominant profiled triples (add chains,
    addi+cmp+branch back edges, address-gen+load+bump) fused inside.
    Fusion is purely local: the slot after a fused head keeps its
    single-op closure, so jumps into the middle of a pair or block are
    always legal.

    These tiers produce no per-instruction events, so they serve only
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

val run_serial : ?entry:int -> ?fuel:int -> Program.t ->
  Xloops_mem.Memory.t -> (Exec.run, Exec.stop) result
(** Same contract as {!Exec.run_serial}, bit-identical results
    (registers, memory, dynamic instruction count, out-of-fuel report,
    trap/halt behavior) — property-tested in [test_threaded].
    Compilation is memoized per domain, keyed by physical equality. *)

val run_serial_block : ?entry:int -> ?fuel:int -> Program.t ->
  Xloops_mem.Memory.t -> (Exec.run, Exec.stop) result
(** {!run_serial} on the block-compiled layer: one dispatch and one
    retirement bump per basic block.  Side exits (memory traps, halt,
    fuel exhaustion) materialize the precise mid-block pc and register
    state, so results stay bit-identical to every other tier. *)

(** {1 Compilation plan} (for the fused disassembly view and the
    pair/triple profilers) *)

val superops : Program.t -> (int * string) list
(** Head pc and rule name ("alui+branch", "xi_addi+xloop_cmp", ...) of
    every fused pair, in ascending pc order.  The pair covers the head
    pc and the following instruction. *)

val fused_heads : Program.t -> bool array
(** Per-pc superop-head marks, parallel to the instruction array. *)

val block_plan : Program.t -> (int * int) list * (int * string) list
(** Compiled basic blocks as (leader pc, uop count) and fused triples as
    (head pc, "class+class+class"), both in ascending pc order. *)

type block_profile = {
  bp_dispatches : int;  (** dynamic block-tier dispatches *)
  bp_insns : int;       (** instructions retired *)
  bp_hist : int array;  (** [bp_hist.(k)] = dispatches that retired k *)
}

val run_serial_block_profiled : ?entry:int -> ?fuel:int -> Program.t ->
  Xloops_mem.Memory.t -> (Exec.run, Exec.stop) result * block_profile
(** {!run_serial_block} with per-dispatch retirement accounting, for the
    bench block-coverage report. *)

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
