(** Analytic post-place-and-route area and cycle-time model for the LPSU
    (Section V, Table V), standing in for the paper's 40 nm Synopsys
    flow + CACTI.  Calibrated to Table V's anchors: 0.25 mm^2 GPP,
    +43%-class overhead for the primary 4-lane/128-entry LPSU, roughly
    linear area in lanes, weak dependence on instruction-buffer size, and
    cycle time growing from ~1.98 ns (2 lanes) to ~2.54 ns (8 lanes). *)

type mm2 = float

type area_breakdown = {
  gpp_logic : mm2;
  gpp_icache : mm2;
  gpp_dcache : mm2;
  lmu : mm2;               (** LMU, index queues, arbiters *)
  lanes : mm2;
  instr_buffers : mm2;
  lsq : mm2;
  total : mm2;
}

val gpp_area : mm2

val area : Xloops_sim.Config.lpsu -> area_breakdown
val overhead : Xloops_sim.Config.lpsu -> float
(** Fractional overhead relative to the bare GPP. *)

val cycle_time_ns : Xloops_sim.Config.lpsu -> float

val rtl_lpsu : ib_entries:int -> lanes:int -> Xloops_sim.Config.lpsu
(** The basic RTL LPSU of Section V: [xloop.uc] only, no LSQs. *)

type table_v_row = {
  name : string;
  ct_ns : float;
  total_mm2 : mm2;
  rel_area : float;
  lpsu : Xloops_sim.Config.lpsu;
}

val table_v : unit -> table_v_row list
val pp_table_v : Format.formatter -> table_v_row list -> unit
