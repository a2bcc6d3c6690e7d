(** Event-based dynamic-energy model in the style of McPAT (Section IV-A).

    Every timing model counts microarchitectural events into
    {!Xloops_sim.Stats}; this module prices them.  Per-event energies are
    45 nm-flavoured picojoule figures chosen for their *relative*
    magnitudes (the quantity the paper's conclusions rest on):

    - an access to an LPSU instruction buffer costs a tenth of an L1I
      access (the paper's ASIC flow reports exactly this 10x ratio, and it
      is where most of the specialized-execution energy win comes from);
    - out-of-order structures (rename, issue queue, ROB) are charged per
      dispatched instruction and grow superlinearly with issue width;
    - the LPSU's LSQs are priced like out-of-order LSQ entries and the LMU
      adds a 5% overhead on LPSU-side energy, both per the paper's stated
      methodology. *)

module Stats = Xloops_sim.Stats
module Config = Xloops_sim.Config

(** Per-event energies in picojoules. *)
type costs = {
  icache_fetch : float;
  ib_fetch : float;
  decode : float;
  rename : float;        (* per rename event *)
  rob : float;
  iq : float;
  rf_read : float;
  rf_write : float;
  alu : float;
  mul : float;
  divide : float;
  fpu : float;
  xi : float;            (* MIVT narrow multiply *)
  branch : float;
  mispredict : float;    (* flush+refill event *)
  dcache : float;
  dcache_miss : float;   (* extra energy per miss (line fill) *)
  amo : float;
  lsq_search : float;
  lsq_write : float;
  cib : float;
  idq : float;
  scan : float;          (* per instruction written to an instr buffer *)
  lmu_overhead : float;  (* fraction of LPSU-side energy *)
}

let default_costs = {
  icache_fetch = 18.0;
  ib_fetch = 1.8;        (* 10x cheaper than the I-cache *)
  decode = 2.0;
  rename = 3.5;
  rob = 4.0;
  iq = 3.5;
  rf_read = 1.2;
  rf_write = 1.8;
  alu = 3.0;
  mul = 12.0;
  divide = 22.0;
  fpu = 15.0;
  xi = 2.5;
  branch = 1.0;
  mispredict = 45.0;
  dcache = 25.0;
  dcache_miss = 110.0;
  amo = 32.0;
  lsq_search = 4.0;
  lsq_write = 3.0;
  cib = 1.5;
  idq = 1.0;
  scan = 2.2;
  lmu_overhead = 0.05;
}

(** Width scaling for out-of-order bookkeeping structures: wider machines
    have physically larger rename tables, issue queues and ROBs. *)
let ooo_scale (cfg : Config.t) =
  match cfg.gpp.kind with
  | Config.Inorder -> 1.0
  | Config.Ooo { width; _ } -> 1.0 +. (0.3 *. float_of_int (width - 1))

type breakdown = {
  fetch : float;
  decode_rename : float;
  window : float;         (* ROB + IQ *)
  regfile : float;
  execute : float;
  memory : float;
  lsq : float;
  lpsu_control : float;   (* CIB + IDQ + scan + LMU overhead *)
  total : float;          (* joules *)
}

(** Total dynamic energy in joules for a run's statistics under [cfg]. *)
let of_stats (cfg : Config.t) (s : Stats.t) : breakdown =
  let costs = default_costs in
  let f = float_of_int in
  let scale = ooo_scale cfg in
  let fetch =
    (f s.icache_fetches *. costs.icache_fetch)
    +. (f s.ib_fetches *. costs.ib_fetch)
    +. (f s.icache_misses *. costs.dcache_miss)
  in
  let decode_rename =
    (f s.decodes *. costs.decode)
    +. (f s.renames *. costs.rename *. scale)
  in
  let window =
    (f s.rob_ops *. costs.rob *. scale)
    +. (f s.iq_ops *. costs.iq *. scale)
    +. (f s.mispredicts *. costs.mispredict)
  in
  let regfile =
    (f s.rf_reads *. costs.rf_read) +. (f s.rf_writes *. costs.rf_write)
  in
  let execute =
    (f s.alu_ops *. costs.alu)
    +. (f s.mul_ops *. costs.mul)
    +. (f s.div_ops *. costs.divide)
    +. (f s.fpu_ops *. costs.fpu)
    +. (f s.xi_ops *. costs.xi)
    +. (f s.branches *. costs.branch)
  in
  let memory =
    (f s.dcache_accesses *. costs.dcache)
    +. (f s.dcache_misses *. costs.dcache_miss)
    +. (f s.amo_ops *. costs.amo)
  in
  let lsq =
    (f s.lsq_searches *. costs.lsq_search)
    +. (f s.lsq_writes *. costs.lsq_write)
    +. (f s.store_broadcasts *. costs.lsq_search)
  in
  let lpsu_raw =
    (f s.cib_reads *. costs.cib) +. (f s.cib_writes *. costs.cib)
    +. (f s.idq_ops *. costs.idq)
    +. (f s.scan_insns *. costs.scan)
  in
  (* The LMU/arbiter overhead applies to the energy spent on the LPSU
     side: instruction-buffer fetches, LSQ traffic and control. *)
  let lpsu_side = (f s.ib_fetches *. costs.ib_fetch) +. lsq +. lpsu_raw in
  let lpsu_control = lpsu_raw +. (costs.lmu_overhead *. lpsu_side) in
  let pj =
    fetch +. decode_rename +. window +. regfile +. execute +. memory
    +. lsq +. lpsu_control
  in
  { fetch; decode_rename; window; regfile; execute; memory; lsq;
    lpsu_control; total = pj *. 1e-12 }

(** Default clock for power numbers (Table V cycle times are ~2 ns). *)
let frequency_hz = 500e6

(** Average dynamic power in watts over [cycles]. *)
let power ~cycles (b : breakdown) =
  if cycles = 0 then 0.0
  else b.total /. (float_of_int cycles /. frequency_hz)

(** Energy efficiency of [b] relative to a baseline (ratio > 1 means [b]
    consumes less energy for the same work). *)
let efficiency ~baseline (b : breakdown) =
  if b.total = 0.0 then nan else baseline.total /. b.total

let pp_breakdown ppf (b : breakdown) =
  let pct x = if b.total = 0.0 then 0.0
    else 100.0 *. x *. 1e-12 /. b.total in
  Fmt.pf ppf
    "@[<v>total: %.3f uJ@,\
     fetch %.1f%%  decode/rename %.1f%%  window %.1f%%  regfile %.1f%%@,\
     execute %.1f%%  memory %.1f%%  lsq %.1f%%  lpsu-control %.1f%%@]"
    (b.total *. 1e6)
    (pct b.fetch) (pct b.decode_rename) (pct b.window) (pct b.regfile)
    (pct b.execute) (pct b.memory) (pct b.lsq) (pct b.lpsu_control)
