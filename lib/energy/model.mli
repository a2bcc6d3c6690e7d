(** Event-based dynamic-energy model in the style of McPAT
    (Section IV-A): every timing model counts microarchitectural events
    into {!Xloops_sim.Stats}, and this module prices them.  Per-event
    energies are 45 nm-flavoured picojoules chosen for their {e relative}
    magnitudes; in particular an LPSU instruction-buffer access costs a
    tenth of an L1I access (the ratio the paper's ASIC flow reports),
    out-of-order bookkeeping grows superlinearly with issue width, and
    the LMU adds the paper's 5% overhead on LPSU-side energy. *)

(** Per-event energies in picojoules. *)
type costs = {
  icache_fetch : float;
  ib_fetch : float;
  decode : float;
  rename : float;
  rob : float;
  iq : float;
  rf_read : float;
  rf_write : float;
  alu : float;
  mul : float;
  divide : float;
  fpu : float;
  xi : float;            (** MIVT narrow multiply *)
  branch : float;
  mispredict : float;
  dcache : float;
  dcache_miss : float;   (** extra energy per line fill *)
  amo : float;
  lsq_search : float;
  lsq_write : float;
  cib : float;
  idq : float;
  scan : float;
  lmu_overhead : float;  (** fraction of LPSU-side energy *)
}

val default_costs : costs

type breakdown = {
  fetch : float;
  decode_rename : float;
  window : float;         (** ROB + IQ + mispredict flushes *)
  regfile : float;
  execute : float;
  memory : float;
  lsq : float;
  lpsu_control : float;   (** CIB + IDQ + scan + LMU overhead *)
  total : float;          (** joules; the components are picojoules *)
}

val of_stats : Xloops_sim.Config.t -> Xloops_sim.Stats.t -> breakdown
(** Prices a run's events at {!default_costs}. *)

val frequency_hz : float
(** Clock used for power numbers (Table V cycle times are ~2 ns). *)

val power : cycles:int -> breakdown -> float
(** Average dynamic power in watts over a run of [cycles]. *)

val efficiency : baseline:breakdown -> breakdown -> float
(** [> 1] means less energy than the baseline for the same work. *)

val pp_breakdown : Format.formatter -> breakdown -> unit
