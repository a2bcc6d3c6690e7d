(** Machine configurations (Table III): a GPP (in-order or out-of-order)
    optionally augmented with a loop-pattern specialization unit. *)

type gpp_kind =
  | Inorder
  | Ooo of { width : int; window : int }

type gpp = {
  kind : gpp_kind;
  l1_size : int;
  l1_ways : int;
  l1_line : int;
  load_use_latency : int;
  miss_penalty : int;
  branch_penalty : int;
  mul_latency : int;
  div_latency : int;
  fpu_latency : int;
}

type lpsu = {
  lanes : int;
  ib_entries : int;        (** loop instruction buffer capacity *)
  idq_entries : int;
  lsq_loads : int;         (** LSQ load entries per lane *)
  lsq_stores : int;
  mem_ports : int;
  llfu_ports : int;
  threads_per_lane : int;  (** 2 = vertical multithreading (Fig. 9) *)
  lane_issue_width : int;  (** superscalar lanes (future work); 1 = paper *)
  inter_lane_fwd : bool;
      (** speculative loads may forward from older lanes' LSQs *)
  scan_fixed : int;
  scan_per_insn : int;
  supported : Xloops_isa.Insn.dpattern list;
  squash_penalty : int;
}

type t = {
  name : string;
  gpp : gpp;
  lpsu : lpsu option;
}

(** Adaptive-execution profiling thresholds (Section IV-D: 256
    iterations / 2000 cycles). *)
type adaptive = {
  profile_iters : int;
  profile_cycles : int;
  apt_entries : int;
  reconsider_after : int option;
      (** re-profile after this many instances used a decision (paper
          future work); [None] = decide once *)
}

val default_adaptive : adaptive
val default_lpsu : lpsu

(** {1 The paper's configurations} *)

val io : t
val ooo2 : t
val ooo4 : t
val io_x : t
val ooo2_x : t
val ooo4_x : t

val with_lpsu : ?lpsu:lpsu -> t -> string -> t
(** [with_lpsu base suffix] attaches an LPSU and appends [suffix] to the
    name. *)

(** {1 Figure 9 design-space points (all on the ooo/4 host)} *)

(** + 2-way vertical multithreading *)
val ooo4_x4_t : t

(** 8 lanes + 2x ports + 16+16 LSQs *)
val ooo4_x8_r_m : t

(** Inter-lane store-to-load forwarding, an ablation (not in the
    paper's evaluated space). *)
val io_x_fwd : t

(** Dual-issue ("superscalar") lanes, a future-work ablation. *)
val io_x_ss2 : t

val baselines : t list
val specialized : t list
val design_space : t list
val extensions : t list

val by_name : string -> t
(** Raises [Invalid_argument] on unknown names. *)
