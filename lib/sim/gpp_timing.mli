(** GPP timing models, consuming the committed-instruction event stream
    of {!Exec.step}:

    - in-order: a single-issue scoreboard (taken-branch bubbles,
      load-use latency, unpipelined divider, L1 miss penalties);
    - out-of-order: the classic windowed-dataflow model (dispatch bounded
      by width and reorder window; issue on operand readiness; loads wait
      on same-word stores; AMOs and fences serialize memory; bimodal
      branch prediction with redirect-at-resolve).

    This is the paper's gem5 altitude: cycle-approximate, honest about
    where ILP comes from. *)

type latencies = {
  alu : int; mul : int; div : int; fpu : int; load_use : int; amo : int;
}

val latencies_of : Config.gpp -> latencies

val class_latency : latencies -> Insn_meta.latency -> int

module Inorder : sig
  type t
  val create : Config.gpp -> Stats.t -> t
  val consume : t -> Exec.event -> unit
  val now : t -> int
  val barrier : t -> unit
  val skip_to : t -> int -> unit
end

module Ooo : sig
  type t
  val create : Config.gpp -> Stats.t -> t
  val consume : t -> Exec.event -> unit
  val now : t -> int
  val barrier : t -> unit
  val skip_to : t -> int -> unit
end

(** Uniform front door over both models. *)
type t = In_order of Inorder.t | Out_of_order of Ooo.t

val create : Config.gpp -> Stats.t -> t

val consume : t -> Exec.event -> unit
(** Account one committed instruction.  Its decode, register-file,
    functional-unit and branch events are counted per pc and reach the
    {!Stats} record only at {!fold_events}. *)

val fold_events : t -> unit
(** Add the per-pc issue counts since the last fold to the {!Stats}
    record as decode, register-file, functional-unit and branch events
    ({!Insn_meta.fold_counts}).  Call it once a run is over, before
    reading those counters. *)

val now : t -> int
(** Current cycle estimate (retire time of the newest instruction). *)

val barrier : t -> unit
(** Drain the pipeline (before a specialized phase / at halt). *)

val skip_to : t -> int -> unit
(** Jump the clock forward (after a specialized phase). *)

val l1d : t -> Xloops_mem.Cache.t
(** The GPP's L1 data cache — shared with the LPSU (Figure 4). *)

val scan_cycles : t -> Config.lpsu -> body_insns:int -> int
(** Scan-phase cost; an out-of-order GPP overlaps part of the scan with
    draining earlier work (Section II-D). *)
