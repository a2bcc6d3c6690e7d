(** LPSU lane fast path: per-pc closures for the instructions an LPSU
    lane may execute without {!Exec.step}.  The LPSU uses them only
    while no observer (trace or fault plan) is attached, and falls back
    to [Exec.step] for every other pc. *)

module Program = Xloops_asm.Program

(** Per-pc lane metadata.  [L_plain] marks instructions whose lane-level
    execution is observationally silent: single-cycle, portless,
    trapless, no memory traffic, no long-latency unit, no loop
    bookkeeping, and any control transfer recoverable from the outgoing
    pc.  The registers it reads and writes are its {!Insn_meta.t}'s
    [s1]/[s2] and [rd].  The LPSU demotes further pcs it observes (CIR
    registers, last-CIR-write pcs, dynamic-bound writes). *)
type lane_meta =
  | L_slow
  | L_plain of {
      l_op : int array -> int;
          (** applies the instruction to a hart's register file — the
              same register effect as {!Exec.step} — and returns the
              outgoing pc *)
      l_ctrl : int;
          (** 0 = never redirects (outgoing pc is pc+1); 1 = conditional,
              taken iff the outgoing pc differs from pc+1; 2 = always
              taken *)
    }

val lane_meta : Program.predecoded -> lane_meta array
(** Parallel to the program's uops.  The LPSU builds it once, when it is
    created, and copies a loop body's slice before demoting pcs. *)
