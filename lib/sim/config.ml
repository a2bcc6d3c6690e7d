(** Machine configurations (the paper's Table III).

    A {!machine} is a GPP (in-order or out-of-order) optionally augmented
    with an LPSU.  The named constructors at the bottom build the six
    configurations the paper evaluates — [io], [ooo2], [ooo4] and their
    [+x] variants — plus the Figure 9 design-space points. *)

open Xloops_isa

type gpp_kind =
  | Inorder                                  (** single-issue, 5-stage *)
  | Ooo of { width : int; window : int }     (** superscalar out-of-order *)

type gpp = {
  kind : gpp_kind;
  l1_size : int;            (** bytes, both I and D *)
  l1_ways : int;
  l1_line : int;
  load_use_latency : int;   (** cycles from issue to value ready, on a hit *)
  miss_penalty : int;       (** extra cycles on an L1 miss *)
  branch_penalty : int;     (** taken-branch bubble (io) / redirect (ooo) *)
  mul_latency : int;
  div_latency : int;
  fpu_latency : int;
}

type lpsu = {
  lanes : int;
  ib_entries : int;         (** loop instruction buffer capacity per LPSU *)
  lsq_loads : int;          (** LSQ load entries per lane *)
  lsq_stores : int;         (** LSQ store entries per lane *)
  mem_ports : int;          (** shared data-memory ports *)
  llfu_ports : int;         (** shared long-latency functional units *)
  threads_per_lane : int;   (** 1, or 2 for vertical multithreading *)
  lane_issue_width : int;
      (** instructions a lane may issue per cycle (the paper's
          "superscalar lane microarchitectures" future work; 1 =
          the evaluated simple in-order lanes) *)
  inter_lane_fwd : bool;
      (** allow speculative loads to forward from older lanes' LSQs
          (Section II-D's "more aggressive implementations") *)
  scan_fixed : int;         (** fixed scan-phase start-up cycles *)
  scan_per_insn : int;      (** scan cycles per instruction written *)
  supported : Insn.dpattern list; (** patterns with specialized support *)
  squash_penalty : int;     (** refill bubble after an iteration squash *)
}

type t = {
  name : string;
  gpp : gpp;
  lpsu : lpsu option;
}

(* Profiling thresholds for adaptive execution (Section IV-D: "we use 256
   iterations and 2000 cycles as thresholds for the profiling phases").
   The APT itself has no modelled capacity: it holds every xloop PC. *)
type adaptive = {
  profile_iters : int;   (** GPP back-edges before the LPSU is tried *)
  profile_cycles : int;  (** or GPP cycles, whichever comes first *)
}

let default_adaptive = { profile_iters = 256; profile_cycles = 2000 }

let all_patterns = Insn.[ Uc; Or; Om; Orm; Ua ]

let gpp_inorder = {
  kind = Inorder;
  l1_size = 16 * 1024; l1_ways = 2; l1_line = 32;
  load_use_latency = 2; miss_penalty = 20; branch_penalty = 2;
  mul_latency = 4; div_latency = 12; fpu_latency = 4;
}

let gpp_ooo width = {
  gpp_inorder with
  kind = Ooo { width; window = 16 * width };
  branch_penalty = 8;  (* pipeline-refill cost of a mispredict *)
}

let default_lpsu = {
  lanes = 4;
  ib_entries = 128;
  lsq_loads = 8; lsq_stores = 8;
  mem_ports = 1; llfu_ports = 1;
  threads_per_lane = 1;
  lane_issue_width = 1;
  inter_lane_fwd = false;
  scan_fixed = 8; scan_per_insn = 1;
  supported = all_patterns;
  squash_penalty = 2;
}

let io = { name = "io"; gpp = gpp_inorder; lpsu = None }
let ooo2 = { name = "ooo/2"; gpp = gpp_ooo 2; lpsu = None }
let ooo4 = { name = "ooo/4"; gpp = gpp_ooo 4; lpsu = None }

let with_lpsu ?(lpsu = default_lpsu) base suffix =
  { base with name = base.name ^ suffix; lpsu = Some lpsu }

let io_x = with_lpsu io "+x"
let ooo2_x = with_lpsu ooo2 "+x"
let ooo4_x = with_lpsu ooo4 "+x"

(* Figure 9 design-space points, all on the ooo/4 host. *)

(** 4 lanes + 2-way vertical multithreading. *)
let ooo4_x4_t =
  with_lpsu ooo4 "+x4+t" ~lpsu:{ default_lpsu with threads_per_lane = 2 }

(** 8 lanes. *)
let ooo4_x8 =
  with_lpsu ooo4 "+x8" ~lpsu:{ default_lpsu with lanes = 8 }

(** 8 lanes + doubled memory ports and LLFUs. *)
let ooo4_x8_r =
  with_lpsu ooo4 "+x8+r"
    ~lpsu:{ default_lpsu with lanes = 8; mem_ports = 2; llfu_ports = 2 }

(** 8 lanes + doubled ports + 16+16-entry LSQs. *)
let ooo4_x8_r_m =
  with_lpsu ooo4 "+x8+r+m"
    ~lpsu:{ default_lpsu with lanes = 8; mem_ports = 2; llfu_ports = 2;
                              lsq_loads = 16; lsq_stores = 16 }

(** Inter-lane store-to-load forwarding enabled — the "more aggressive
    implementation" Section II-D sketches; not part of the paper's
    evaluated design space, benched as an ablation. *)
let io_x_fwd =
  with_lpsu io "+x+fwd" ~lpsu:{ default_lpsu with inter_lane_fwd = true }

let ooo4_x_fwd =
  with_lpsu ooo4 "+x+fwd" ~lpsu:{ default_lpsu with inter_lane_fwd = true }

(** Dual-issue lanes — the "superscalar lane" future work; benched as an
    ablation. *)
let io_x_ss2 =
  with_lpsu io "+x+ss2" ~lpsu:{ default_lpsu with lane_issue_width = 2 }

let ooo4_x_ss2 =
  with_lpsu ooo4 "+x+ss2" ~lpsu:{ default_lpsu with lane_issue_width = 2 }

let baselines = [ io; ooo2; ooo4 ]
let specialized = [ io_x; ooo2_x; ooo4_x ]
let design_space = [ ooo4_x; ooo4_x4_t; ooo4_x8; ooo4_x8_r; ooo4_x8_r_m ]
let extensions = [ io_x_fwd; ooo4_x_fwd; io_x_ss2; ooo4_x_ss2 ]

let by_name name =
  let all = baselines @ specialized @ design_space @ extensions in
  match List.find_opt (fun c -> c.name = name) all with
  | Some c -> c
  | None -> invalid_arg ("Config.by_name: unknown config " ^ name)
