(** LPSU lane fast path: per-pc closures for the instructions an LPSU
    lane may execute without {!Exec.step}.  The LPSU uses them only
    while no observer (trace or fault plan) is attached, and falls back
    to [Exec.step] for every other pc. *)

module Program = Xloops_asm.Program

(** Per-pc lane metadata.  [L_plain] marks instructions whose lane-level
    execution is observationally silent: single-cycle, portless,
    trapless, no memory traffic, no long-latency unit, no loop
    bookkeeping, and any control transfer recoverable from the outgoing
    pc.  The LPSU demotes further pcs it observes (CIR registers,
    last-CIR-write pcs, dynamic-bound writes). *)
type lane_meta =
  | L_slow
  | L_plain of {
      l_op : int array -> int;
          (** applies the instruction to a hart's register file — the
              same register effect as {!Exec.step} — and returns the
              outgoing pc *)
      l_rd : int;   (** dest register, -1 when none *)
      l_s1 : int;   (** source registers, -1 when absent *)
      l_s2 : int;
      l_ctrl : int;
          (** 0 = never redirects (outgoing pc is pc+1); 1 = conditional,
              taken iff the outgoing pc differs from pc+1; 2 = always
              taken *)
    }

val lane_meta : Program.predecoded -> lane_meta array
(** Parallel to the program's uops.  Memoized per domain (the last 8
    programs, physical equality); callers must not mutate the array —
    copy before demoting. *)
