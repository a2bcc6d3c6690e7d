(** Cycle-level, execution-driven model of the loop-pattern specialization
    unit (Section II-D, Figure 4).

    The LPSU contains [lanes] decoupled in-order lanes and a lane
    management unit (LMU).  Iteration indices are dispensed in order (for
    [xloop.uc] this degenerates into dynamic load balancing because any
    idle lane takes the next index).  Each lane executes one iteration at a
    time through the shared functional executor {!Exec.step}:

    - {b MIVT}: at dispatch of iteration [k] the lane seeds the index
      register and every mutual induction variable with
      [base + k * increment] (the narrow-multiplier computation of the
      paper), so [.xi] instructions execute as cheap single-cycle adds;
    - {b CIB}: for [xloop.{or,orm}], the first read of a cross-iteration
      register stalls until the previous iteration has produced its value;
      the instruction whose PC carries the last-CIR-write bit forwards its
      result, and iterations that skip it copy the register at loop end;
    - {b LSQ}: for [xloop.{om,orm,ua}], speculative lanes buffer stores
      and record load addresses; stores by the non-speculative lane (and
      drained stores at promotion) are broadcast, and any speculative lane
      that already loaded from an overlapping address squashes and restarts
      its iteration;
    - {b dynamic bounds}: for [xloop.*.db], writes to the bound register
      are reported to the LMU, which monotonically raises the bound and
      keeps dispensing indices;
    - the data-memory port and the long-latency functional unit are shared
      and arbitrated per cycle ({!Xloops_mem.Port}).

    Squashed iterations really re-execute, so the model is honest about
    data-dependent violation behaviour (e.g. the paper's ksack-sm vs
    ksack-lg contrast). *)

open Xloops_isa
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module Cache = Xloops_mem.Cache
module Port = Xloops_mem.Port

exception Lane_trap of string

(* The lane cycle loop runs once per lane per simulated cycle and the
   issue path once per lane instruction, so both follow the functional
   core's rules: no allocation, no polymorphic compare and no closures.
   Values the lanes exchange (CIB entries, index and bound, forwarded
   bytes) are sign-extended native ints, as in the register file.  The
   dev build profile compiles every module [-opaque], so no call into
   another module is ever inlined: the register-file accessors below
   are local copies of {!Exec}'s.

   A lane that stalls sleeps: it records the stall's reason and the
   earliest cycle at which its next attempt could come out differently
   (an operand's ready cycle, the end of a held port's busy window), and
   until then each cycle reports that reason without re-running the
   issue path.  Events that can unblock another lane (a dispatch, a
   commit, a squash, a CIB change, a drain or promotion, an applied
   fault) bump [epoch] and so wake every sleeper; see {!sleep}.  The
   cycle loop answers a sleeping lane itself, and a cycle in which
   every context sleeps jumps to the first wake ({!quiet_until}).
   Lane cycles and issues are counted in arrays (by outcome, by pc)
   and reach {!Stats} once per run ({!fold_accounts}). *)

let[@inline] imax (a : int) b = if a >= b then a else b
let[@inline] imin (a : int) b = if a <= b then a else b

let sext_shift = Sys.int_size - 32
let[@inline] norm v = (v lsl sext_shift) asr sext_shift
let[@inline] get_reg (h : Exec.hart) r = h.regs.(r)
let[@inline] set_reg (h : Exec.hart) r v = if r <> 0 then h.regs.(r) <- norm v

type ctx_state =
  | Idle
  | Run           (** executing the iteration body *)
  | Wait_commit   (** finished, speculative, waiting for promotion *)
  | Drain_commit  (** finished, promoted, draining buffered stores *)

type ctx = {
  lane : int;
  tid : int;
  hart : Exec.hart;
  reg_ready : int array;
  mutable st : ctx_state;
  mutable iter : int;            (** local iteration number; -1 when idle *)
  lsq : Lsq.t;
  mutable drain_next : int;      (** next LSQ store to drain; -1 = none *)
  got_cir : bool array;          (** per CIB slot: chain value consumed *)
  mutable sleep_reason : int;    (** stall code reported while asleep *)
  mutable sleep_until : int;     (** asleep while [cycle < sleep_until] *)
  mutable sleep_epoch : int;     (** ... and the LPSU's epoch is this one *)
  mutable insns_iter : int;
  mutable next_issue : int;
  mutable exit_flag : int;       (** .de: exit-register value at loop end *)
  mutable frozen : bool;         (** injected lane freeze, for the run *)
  (* Per-context memory interfaces, built once at LPSU creation instead
     of once per memory instruction. *)
  mutable spec_if : Exec.mem_iface;   (** LSQ overlay for this context *)
  mutable fwd_if : Exec.mem_iface;    (** inter-lane forward; reads fwd_* *)
  mutable fwd_src : int;              (** forwarding source iteration *)
  mutable fwd_raw : int;              (** forwarded raw store bytes *)
  mutable fwd_addr : int;
  mutable fwd_bytes : int;
}

(* A CIR chain's history: (consumer iteration, value, ready cycle)
   entries, oldest first in [0, len).  History is kept (not popped on
   read) so that orm squashes can roll back. *)
type cib = {
  mutable cir : Scan.cir;
  slot : int;
  mutable h_iter : int array;
  mutable h_val : int array;
  mutable h_ready : int array;
  mutable len : int;
}

(* Lane outcomes.  One issue attempt returns [issued] or a stall code;
   the codes rank stall reasons from least to most informative, so a
   lane cycle reports the [imax] of its contexts' codes. *)
let issued = -1
let stall_idle = 0                 (* also a lane that issued *)
let stall_raw = 1
let stall_mem = 2
let stall_llfu = 3
let stall_lsq = 4
let stall_cir = 5
let stall_frozen = 6

type result = {
  cycles : int;             (** specialized-execution cycles *)
  iterations : int;         (** iterations committed *)
  finished : bool;          (** loop ran to its (final) bound *)
  next_idx : int32;         (** index value of the next iteration *)
  bound : int32;            (** final (possibly dynamically-raised) bound *)
  cir_finals : (Reg.t * int32) list;
  miv_finals : (Reg.t * int32) list;
}

(* The LPSU of one machine: the lanes' contexts, LSQs, CIB chains and
   shared ports are built once, on the machine's first specialized loop,
   and [start] resets them for every loop after it.  The fields from
   [info] on describe the loop being run. *)
type t = {
  pre : Program.predecoded;      (* the machine's program, decoded once *)
  meta : Insn_meta.t array;      (* per-pc timing metadata of the program *)
  lane_ops : Lane_ops.lane_meta array;  (* per-pc lane fast path *)
  mem : Memory.t;
  direct_if : Exec.mem_iface;    (* architectural memory, built once *)
  ev : Exec.event;               (* shared reusable step scratch *)
  dcache : Cache.t;
  lat : Gpp_timing.latencies;
  miss_penalty : int;            (* the GPP's L1 miss penalty *)
  lpsu : Config.lpsu;
  stats : Stats.t;
  all_ctxs : ctx array;          (* lane-major, then thread *)
  lane0_ctxs : ctx array;        (* each lane's first context *)
  mem_port : Port.t;
  llfu_port : Port.t;
  lane_reason : int array;       (* last cycle's stall code per lane *)
  lane_cyc : int array;          (* this run's lane cycles by outcome,
                                    indexed by code + 1 *)
  pc_issues : int array;         (* this run's lane issues per pc *)
  violated : bool array;         (* broadcast scratch, per context *)
  commit_slot : ctx array;       (* iteration [k]'s context at [k land
                                    mask]; a power of two >= contexts *)
  mutable epoch : int;           (* bumped by every event that can wake
                                    a sleeping lane *)
  mutable info : Scan.t;
  base_regs : int array;         (* GPP register snapshot at scan *)
  mutable idx0 : int;
  mutable idx_step : int;
  miv_regs : Reg.t array;        (* MIVT: register, base, increment *)
  miv_base : int array;
  miv_inc : int array;
  mutable n_mivs : int;
  mutable ctxs : ctx array;      (* this loop's: [all_ctxs] under MT *)
  mutable n_idle : int;          (* contexts of [ctxs] that are [Idle] *)
  mutable cibs : cib array;      (* this loop's chains are the first
                                    [n_cibs]; the rest are spare *)
  mutable n_cibs : int;
  mutable bound : int;
  mutable next_k : int;          (* next iteration to dispense *)
  mutable commit_iter : int;     (* lowest uncommitted iteration *)
  mutable committed : int;
  mutable exit_at : int;         (* .de: iteration that took the exit; -1 *)
  mutable cycle : int;
  mutable stop_after : int;      (* dispatch limit; [max_int] = none *)
  mutable spec_pattern : bool;
  mutable has_cirs : bool;
  trace : Trace.t option;
  (* Robustness machinery *)
  faults : Fault.t option;
  (* Lane fast path: per-pc closure dispatch for instructions whose
     lane-level effects are fully recoverable without the event record
     (the body's slice of [lane_ops], further demoted in [start] for CIR
     and dynamic-bound bookkeeping).  Only an attached trace, which
     observes every instruction, turns it off. *)
  mutable lane_fast : Lane_ops.lane_meta array;  (* by pc - body_start;
                                                    grown, never shrunk *)
  mutable watchdog : int;        (* no-progress cycles before a hang; 0=off *)
  mutable last_progress : int;   (* cycle of the last dispatch or commit *)
  mutable drop_broadcasts : int; (* injected: swallow this many broadcasts *)
}

(* [Trace.enabled], short-circuited locally for the untraced case. *)
let[@inline] tracing t lvl = t.trace != None && Trace.enabled t.trace lvl

let[@inline] idx_of t k = norm (t.idx0 + k * t.idx_step)

let[@inline] active c = c.st = Run || c.st = Wait_commit

(* -- Memory interfaces ------------------------------------------------ *)

(* Each context's interfaces are built once at LPSU creation; the
   speculative path closes over the context's LSQ, and the forwarding
   path reads the context's [fwd_*] scratch fields, so no closure is
   allocated per memory instruction. *)

let spec_iface t (c : ctx) : Exec.mem_iface = {
  load = (fun w a ->
      Lsq.record_load c.lsq ~addr:a ~bytes:(Insn.width_bytes w);
      t.stats.lsq_writes <- t.stats.lsq_writes + 1;
      Lsq.read c.lsq t.mem w a);
  store = (fun w a v ->
      Lsq.record_store c.lsq ~addr:a ~bytes:(Insn.width_bytes w) ~value:v;
      t.stats.lsq_writes <- t.stats.lsq_writes + 1);
  amo = (fun op a v ->
      let old = Lsq.read c.lsq t.mem Insn.W a in
      Lsq.record_load c.lsq ~addr:a ~bytes:4;
      let nv = match op with
        | Insn.Amo_add -> norm (old + v)
        | Amo_and -> old land v
        | Amo_or -> old lor v
        | Amo_xchg -> v
        | Amo_min -> if old <= v then old else v
        | Amo_max -> if old >= v then old else v
      in
      Lsq.record_store c.lsq ~addr:a ~bytes:4 ~value:nv;
      t.stats.lsq_writes <- t.stats.lsq_writes + 2;
      old);
}

(* Sign/zero-extend raw little-endian bytes per access width. *)
let extend_raw (w : Insn.width) raw =
  match w with
  | B -> if raw land 0x80 <> 0 then raw - 0x100 else raw
  | H -> if raw land 0x8000 <> 0 then raw - 0x10000 else raw
  | Bu | Hu -> raw
  | W -> norm raw

(* One-load interface delivering an inter-lane forwarded value; the
   source iteration, raw value and address live in the context's [fwd_*]
   fields, set by [inter_lane_forward] just before the step. *)
let fwd_iface t (c : ctx) : Exec.mem_iface = {
  Exec.load = (fun w a ->
      assert (a = c.fwd_addr);
      Lsq.record_forwarded_load c.lsq ~addr:c.fwd_addr ~bytes:c.fwd_bytes
        ~from_iter:c.fwd_src ~raw:c.fwd_raw;
      t.stats.lsq_writes <- t.stats.lsq_writes + 1;
      extend_raw w c.fwd_raw);
  store = (fun _ _ _ -> assert false);
  amo = (fun _ _ _ -> assert false);
}

let create ~pre ~mem ~dcache ~(cfg : Config.t) ~stats ?trace ?faults () =
  let lpsu = match cfg.lpsu with
    | Some l -> l
    | None -> invalid_arg "Lpsu.create: config has no LPSU"
  in
  let threads = lpsu.threads_per_lane in
  let direct_if = Exec.direct_mem mem in
  let all_ctxs =
    Array.init (lpsu.lanes * threads) (fun i ->
        let hart = Exec.create_hart () in
        { lane = i / threads; tid = i mod threads;
          hart;
          reg_ready = Array.make Reg.num_regs 0;
          st = Idle; iter = -1;
          lsq = Lsq.create ~max_loads:lpsu.lsq_loads
              ~max_stores:lpsu.lsq_stores;
          drain_next = -1; got_cir = Array.make Reg.num_regs false;
          sleep_reason = stall_idle; sleep_until = 0; sleep_epoch = 0;
          insns_iter = 0; next_issue = 0;
          exit_flag = 0; frozen = false;
          (* real interfaces are installed after [t] exists *)
          spec_if = direct_if; fwd_if = direct_if;
          fwd_src = -1; fwd_raw = 0; fwd_addr = -1; fwd_bytes = 0 })
  in
  let t =
    { pre; meta = Insn_meta.of_program pre.Program.source;
      lane_ops = Lane_ops.lane_meta pre;
      mem; direct_if;
      ev = Exec.create_event ();
      dcache; lat = Gpp_timing.latencies_of cfg.gpp;
      miss_penalty = cfg.gpp.miss_penalty; lpsu; stats;
      all_ctxs;
      lane0_ctxs = Array.init lpsu.lanes (fun l -> all_ctxs.(l * threads));
      mem_port = Port.create ~width:lpsu.mem_ports "dmem";
      llfu_port = Port.create ~width:lpsu.llfu_ports "llfu";
      lane_reason = Array.make lpsu.lanes stall_idle;
      lane_cyc = Array.make (stall_frozen + 2) 0;
      pc_issues = Array.make (Array.length pre.Program.source.insns) 0;
      violated = Array.make (Array.length all_ctxs) false;
      commit_slot =
        (let n = ref 1 in
         while !n < Array.length all_ctxs do n := 2 * !n done;
         Array.make !n all_ctxs.(0));
      epoch = 0;
      info = { xloop_pc = -1; body_start = 0; body_len = 0;
               pat = { dp = Uc; cp = Fixed }; r_idx = 0; r_bound = 0;
               idx_step = 0l; mivs = []; cirs = [] };
      base_regs = Array.make Reg.num_regs 0;
      idx0 = 0; idx_step = 0;
      miv_regs = Array.make Reg.num_regs 0;
      miv_base = Array.make Reg.num_regs 0;
      miv_inc = Array.make Reg.num_regs 0;
      n_mivs = 0;
      ctxs = [||]; n_idle = 0; cibs = [||]; n_cibs = 0;
      bound = 0; next_k = 0; commit_iter = 0; committed = 0; exit_at = -1;
      cycle = 0; stop_after = max_int;
      spec_pattern = false; has_cirs = false; trace;
      faults; lane_fast = [||];
      watchdog = 0; last_progress = 0; drop_broadcasts = 0 }
  in
  Array.iter
    (fun c ->
       c.spec_if <- spec_iface t c;
       if lpsu.inter_lane_fwd then c.fwd_if <- fwd_iface t c)
    all_ctxs;
  t

(* Does [r] name one of this loop's CIRs? *)
let is_cir t r =
  r >= 0
  && begin
    let i = ref 0 in
    while !i < t.n_cibs && t.cibs.(!i).cir.c_reg <> r do incr i done;
    !i < t.n_cibs
  end

let rec seed_cibs t ~regs ~start_cycle slot = function
  | [] -> ()
  | (c : Scan.cir) :: rest ->
    let cb = t.cibs.(slot) in
    cb.cir <- c;
    cb.h_iter.(0) <- 0;
    cb.h_val.(0) <- regs.(c.c_reg);
    cb.h_ready.(0) <- start_cycle;
    cb.len <- 1;
    seed_cibs t ~regs ~start_cycle (slot + 1) rest

let rec seed_mivs t ~regs = function
  | [] -> ()
  | (m : Scan.miv) :: rest ->
    t.miv_regs.(t.n_mivs) <- m.m_reg;
    t.miv_base.(t.n_mivs) <- regs.(m.m_reg);
    t.miv_inc.(t.n_mivs) <- Int32.to_int m.m_inc;
    t.n_mivs <- t.n_mivs + 1;
    seed_mivs t ~regs rest

(** Reset every context, chain and port for the loop [info], entered
    with GPP registers [regs] at [start_cycle].  Only a loop with more
    CIRs or a longer body than any before it allocates. *)
let start t ~(info : Scan.t) ~(regs : int array) ~start_cycle ~stop_after
    ~watchdog =
  let pat = info.pat in
  t.info <- info;
  t.spec_pattern <- Scan.is_speculative_pattern pat;
  t.has_cirs <- Scan.has_cirs pat;
  (* Vertical multithreading serves only uc loops. *)
  t.ctxs <-
    (if t.lpsu.threads_per_lane > 1 && pat.dp = Insn.Uc then t.all_ctxs
     else t.lane0_ctxs);
  Array.iter
    (fun c ->
       c.st <- Idle; c.iter <- -1; c.drain_next <- -1;
       c.sleep_until <- 0; c.insns_iter <- 0; c.next_issue <- 0;
       c.exit_flag <- 0; c.frozen <- false;
       c.fwd_src <- -1; c.fwd_raw <- 0; c.fwd_addr <- -1; c.fwd_bytes <- 0;
       Lsq.clear c.lsq)
    t.all_ctxs;
  t.n_idle <- Array.length t.ctxs;
  let n_cibs = List.length info.cirs in
  if Array.length t.cibs < n_cibs then begin
    let cap = 4 * (Array.length t.all_ctxs + 4) in
    let old = t.cibs in
    t.cibs <-
      Array.init n_cibs (fun slot ->
          if slot < Array.length old then old.(slot)
          else { cir = { c_reg = 0; c_last_write_pc = -1 }; slot;
                 h_iter = Array.make cap 0; h_val = Array.make cap 0;
                 h_ready = Array.make cap 0; len = 0 })
  end;
  t.n_cibs <- n_cibs;
  seed_cibs t ~regs ~start_cycle 0 info.cirs;
  Array.blit regs 0 t.base_regs 0 Reg.num_regs;
  t.idx0 <- regs.(info.r_idx);
  t.idx_step <- Int32.to_int info.idx_step;
  t.n_mivs <- 0;
  seed_mivs t ~regs info.mivs;
  (* Start from the lane-ops metadata for the body's pcs, then
     demote the pcs whose execution the LPSU must see one at a time:
     anything reading a CIR (first-read stall and got_cir bookkeeping),
     anything writing one (got_cir), the last-CIR-write pc (CIB
     forwarding), and dynamic-bound writes (LMU bound raising). *)
  let n = info.body_len in
  if Array.length t.lane_fast < n then
    t.lane_fast <- Array.make n Lane_ops.L_slow;
  Array.blit t.lane_ops info.body_start t.lane_fast 0 n;
  for i = 0 to n - 1 do
    match t.lane_fast.(i) with
    | Lane_ops.L_plain _ ->
      let m = t.meta.(info.body_start + i) in
      if is_cir t m.rd || is_cir t m.s1 || is_cir t m.s2
         || (pat.cp = Insn.Dyn && m.rd = info.r_bound)
      then t.lane_fast.(i) <- Lane_ops.L_slow
    | Lane_ops.L_slow -> ()
  done;
  for slot = 0 to n_cibs - 1 do
    let i = t.cibs.(slot).cir.c_last_write_pc - info.body_start in
    if i >= 0 && i < n then t.lane_fast.(i) <- Lane_ops.L_slow
  done;
  Port.reset t.mem_port;
  Port.reset t.llfu_port;
  Array.fill t.lane_reason 0 (Array.length t.lane_reason) stall_idle;
  t.bound <- regs.(info.r_bound);
  t.next_k <- 0; t.commit_iter <- 0; t.committed <- 0; t.exit_at <- -1;
  t.cycle <- start_cycle;
  t.stop_after <- Option.value stop_after ~default:max_int;
  t.watchdog <- watchdog;
  t.last_progress <- start_cycle;
  t.drop_broadcasts <- 0

(* -- Dispatch -------------------------------------------------------- *)

let[@inline] can_dispense t =
  t.next_k < t.stop_after
  && (match t.info.pat.cp with
      | De -> t.exit_at < 0
      | Fixed | Dyn -> idx_of t t.next_k < t.bound)

(** Seed a context's register file for iteration [k]: live-ins from the
    scan snapshot, index and MIVs from the MIVT computation. *)
let seed_ctx t (c : ctx) k =
  Array.blit t.base_regs 0 c.hart.regs 0 Reg.num_regs;
  set_reg c.hart t.info.r_idx (idx_of t k);
  for i = 0 to t.n_mivs - 1 do
    set_reg c.hart t.miv_regs.(i) (t.miv_base.(i) + k * t.miv_inc.(i));
    t.stats.xi_ops <- t.stats.xi_ops + 1
  done;
  Array.fill c.reg_ready 0 Reg.num_regs t.cycle;
  c.hart.pc <- t.info.body_start;
  Array.fill c.got_cir 0 t.n_cibs false;
  c.insns_iter <- 0

(* -- Sleeping lanes ---------------------------------------------------- *)

(* Wake every sleeping lane: called by each event that can change the
   outcome of another lane's next attempt before its sleep ends. *)
let[@inline] bump t = t.epoch <- t.epoch + 1

(** Put [c] to sleep on stall [reason]: until cycle [until], unless the
    epoch moves first, {!attempt} reports [reason] without looking
    further.  The caller guarantees that nothing but an epoch event can
    change the attempt's outcome before [until]. *)
let[@inline] sleep t (c : ctx) reason until =
  c.sleep_reason <- reason;
  c.sleep_until <- until;
  c.sleep_epoch <- t.epoch;
  reason

(* A request denied by [port]: sleep through the port's busy window if
   it is held (a miss fill, an unpipelined divide, an injected stall);
   a port that is only out of slots this cycle is retried next cycle. *)
let[@inline] port_stall t (c : ctx) port reason =
  let until = Port.busy_until port in
  if until > t.cycle then sleep t c reason until else reason

let dispatch t (c : ctx) =
  let k = t.next_k in
  t.next_k <- k + 1;
  c.iter <- k;
  t.commit_slot.(k land (Array.length t.commit_slot - 1)) <- c;
  bump t;
  c.st <- Run;
  t.n_idle <- t.n_idle - 1;
  t.last_progress <- t.cycle;
  seed_ctx t c k;
  Lsq.clear c.lsq;
  c.drain_next <- -1;
  c.next_issue <- t.cycle + 1;  (* IDQ dequeue costs a cycle *)
  t.stats.idq_ops <- t.stats.idq_ops + 1;
  if tracing t Lanes then
    Trace.event t.trace Lanes "[%7d] lane%d.%d dispatch iter=%d idx=%d"
      t.cycle c.lane c.tid k (idx_of t k)

(* -- CIB ------------------------------------------------------------- *)

(** Index of the newest history entry for consumer iteration [k], or -1. *)
let cib_lookup (cb : cib) k =
  let i = ref (cb.len - 1) in
  while !i >= 0 && cb.h_iter.(!i) <> k do decr i done;
  !i

let cib_push (cb : cib) ~iter ~value ~ready =
  if cb.len = Array.length cb.h_iter then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    cb.h_iter <- grow cb.h_iter;
    cb.h_val <- grow cb.h_val;
    cb.h_ready <- grow cb.h_ready
  end;
  cb.h_iter.(cb.len) <- iter;
  cb.h_val.(cb.len) <- value;
  cb.h_ready.(cb.len) <- ready;
  cb.len <- cb.len + 1

(* Keep only the entries whose consumer iteration lies in [lo, hi],
   preserving their order. *)
let cib_keep (cb : cib) ~lo ~hi =
  let n = ref 0 in
  for i = 0 to cb.len - 1 do
    let k = cb.h_iter.(i) in
    if k >= lo && k <= hi then begin
      cb.h_iter.(!n) <- k;
      cb.h_val.(!n) <- cb.h_val.(i);
      cb.h_ready.(!n) <- cb.h_ready.(i);
      incr n
    end
  done;
  cb.len <- !n

(* Oldest history entry any future lookup can need: speculative patterns
   may roll back to the commit point; non-speculative ones only ever look
   up an active context's iteration or (for [finals]) the commit count.
   Without the non-speculative bound a long register-carried loop (the
   [or] kernels run thousands of iterations in one LPSU instance, and
   [commit_iter] never moves) grows each chain without limit and turns
   every lookup into an O(iterations) walk. *)
let cib_keep_from t =
  if t.spec_pattern then t.commit_iter - 1
  else begin
    let acc = ref t.committed in
    for i = 0 to Array.length t.ctxs - 1 do
      let c = t.ctxs.(i) in
      if c.st <> Idle && c.iter >= 0 && c.iter < !acc then acc := c.iter
    done;
    !acc - 1
  end

let cib_write t (cb : cib) ~producer_iter ~value =
  bump t;
  cib_push cb ~iter:(producer_iter + 1) ~value ~ready:(t.cycle + 1);
  t.stats.cib_writes <- t.stats.cib_writes + 1;
  (* Prune entries no consumer can ever need again. *)
  if cb.len > Array.length t.ctxs * 2 + 4 then
    cib_keep cb ~lo:(cib_keep_from t) ~hi:max_int

let cib_rollback t k_min =
  bump t;
  for i = 0 to t.n_cibs - 1 do cib_keep t.cibs.(i) ~lo:min_int ~hi:k_min done

(* -- Squash ---------------------------------------------------------- *)

let squash_ctx t (c : ctx) =
  if tracing t Lanes then
    Trace.event t.trace Lanes
      "[%7d] lane%d.%d SQUASH iter=%d (%d insns thrown away)"
      t.cycle c.lane c.tid c.iter c.insns_iter;
  bump t;
  t.stats.violations <- t.stats.violations + 1;
  t.stats.squashed_insns <- t.stats.squashed_insns + c.insns_iter;
  (* Transfer this iteration's execute cycles to the squash bucket. *)
  t.stats.cyc_exec <- t.stats.cyc_exec - c.insns_iter;
  t.stats.cyc_squash <-
    t.stats.cyc_squash + c.insns_iter + t.lpsu.squash_penalty;
  Lsq.clear c.lsq;
  c.drain_next <- -1;
  seed_ctx t c c.iter;
  c.st <- Run;
  c.next_issue <- t.cycle + t.lpsu.squash_penalty

(** Squash [c], plus (recursively) every younger context that forwarded a
    value from [c]'s iteration — its buffered stores are gone, so any
    forwarded value is unsubstantiated. *)
let rec squash_with_forward_cascade t (c : ctx) =
  let k = c.iter in
  squash_ctx t c;
  for i = 0 to Array.length t.ctxs - 1 do
    let o = t.ctxs.(i) in
    if active o && o.iter > k && Lsq.has_forward_from o.lsq k then
      squash_with_forward_cascade t o
  done

(** Violation check for a store of [value] (little-endian bytes) to
    [addr, addr+bytes) committed by iteration [from_iter].  Squashes any
    speculative context that already loaded from an overlapping address —
    except loads whose value was forwarded from this very store and is
    byte-identical.  With CIRs present (orm) the register chain makes
    every younger iteration dependent, so squashes cascade; with
    inter-lane forwarding, consumers of a squashed iteration's buffers
    cascade too. *)
let broadcast_store t ~from_iter ~addr ~bytes ~value =
  if t.drop_broadcasts > 0 then begin
    (* Injected fault: the broadcast is swallowed — speculative lanes
       that already loaded from the range never hear about the store. *)
    t.drop_broadcasts <- t.drop_broadcasts - 1;
    if tracing t Lanes then
      Trace.event t.trace Lanes
        "[%7d] FAULT broadcast of store @%d swallowed" t.cycle addr
  end
  else if t.spec_pattern then begin
    t.stats.store_broadcasts <- t.stats.store_broadcasts + 1;
    let n = Array.length t.ctxs in
    (* Check every context before squashing any. *)
    let k_min = ref max_int in
    for i = 0 to n - 1 do
      let c = t.ctxs.(i) in
      let v =
        active c && c.iter > from_iter
        && begin
          t.stats.lsq_searches <- t.stats.lsq_searches + 1;
          Lsq.violated c.lsq ~from_iter ~addr ~bytes ~value
        end
      in
      t.violated.(i) <- v;
      if v && c.iter < !k_min then k_min := c.iter
    done;
    if !k_min < max_int then begin
      if t.has_cirs then begin
        (* Cascade: squash every active iteration >= k_min and roll the
           CIB chains back so iteration k_min can re-read its input. *)
        for i = 0 to n - 1 do
          let c = t.ctxs.(i) in
          if active c && c.iter >= !k_min then squash_ctx t c
        done;
        cib_rollback t !k_min
      end else
        (* Youngest context first.  A context may already have been
           squashed by an earlier cascade step this broadcast; its
           cleared LSQ makes the recursion idempotent. *)
        for i = n - 1 downto 0 do
          let c = t.ctxs.(i) in
          if t.violated.(i) && active c then squash_with_forward_cascade t c
        done
    end
  end

(* -- Inter-lane forwarding -------------------------------------------- *)

(** Inter-lane store-to-load forwarding (enabled by
    [Config.lpsu.inter_lane_fwd]): the youngest older active iteration
    whose buffered stores fully cover the load supplies the value; the
    load entry remembers its source so commits can confirm it and
    squashes can cascade.  On a hit the context's [fwd_*] scratch fields
    are armed for its pre-built [fwd_if] and the result is [true]. *)
let inter_lane_forward t (c : ctx) ~addr ~bytes =
  t.lpsu.inter_lane_fwd
  && begin
    let best = ref (-1) and best_raw = ref 0 in
    for i = 0 to Array.length t.ctxs - 1 do
      let o = t.ctxs.(i) in
      if active o && o.iter < c.iter && o.iter >= t.commit_iter then begin
        t.stats.lsq_searches <- t.stats.lsq_searches + 1;
        let raw = Lsq.covering_store o.lsq ~addr ~bytes in
        if raw >= 0 && o.iter >= !best then begin
          best := o.iter;
          best_raw := raw
        end
      end
    done;
    !best >= 0
    && begin
      t.stats.lsq_forwards <- t.stats.lsq_forwards + 1;
      c.fwd_src <- !best;
      c.fwd_raw <- !best_raw;
      c.fwd_addr <- addr;
      c.fwd_bytes <- bytes;
      true
    end
  end

(* An L1 miss is charged to the value's latency, blocks the issuing lane
   (simple in-order lanes), and holds the shared memory port for the
   fill — the single port is the structural bottleneck the paper's
   L1-resident datasets deliberately avoid.  The penalty is the GPP's
   configured one: the lanes share its L1D. *)
let dcache_latency t (c : ctx) ~addr ~base_latency =
  t.stats.dcache_accesses <- t.stats.dcache_accesses + 1;
  if Cache.access t.dcache addr then base_latency
  else begin
    t.stats.dcache_misses <- t.stats.dcache_misses + 1;
    c.next_issue <- imax c.next_issue (t.cycle + t.miss_penalty);
    Port.hold t.mem_port ~until:(t.cycle + t.miss_penalty);
    base_latency + t.miss_penalty
  end

(* -- Commit ---------------------------------------------------------- *)

(** .de: a committed iteration whose exit flag is set ends the loop;
    every in-flight younger iteration is control-speculative and is
    discarded outright (buffered state vanishes, nothing re-dispatches). *)
let take_exit t (c : ctx) =
  if tracing t Decisions then
    Trace.event t.trace Decisions
      "[%7d] data-dependent exit taken at iter=%d; discarding younger work"
      t.cycle c.iter;
  bump t;
  t.exit_at <- c.iter;
  t.bound <- c.exit_flag;
  Array.iter
    (fun o ->
       if o.st <> Idle && o.iter > c.iter then begin
         t.stats.squashed_insns <- t.stats.squashed_insns + o.insns_iter;
         t.stats.cyc_squash <- t.stats.cyc_squash + o.insns_iter;
         t.stats.cyc_exec <- t.stats.cyc_exec - o.insns_iter;
         Lsq.clear o.lsq;
         o.drain_next <- -1;
         o.st <- Idle;
         t.n_idle <- t.n_idle + 1;
         o.iter <- -1
       end)
    t.ctxs

let commit_iteration t (c : ctx) =
  if tracing t Lanes then
    Trace.event t.trace Lanes "[%7d] lane%d.%d commit iter=%d (%d insns)"
      t.cycle c.lane c.tid c.iter c.insns_iter;
  bump t;
  t.committed <- t.committed + 1;
  t.last_progress <- t.cycle;
  t.stats.iterations <- t.stats.iterations + 1;
  t.stats.committed_insns <- t.stats.committed_insns + c.insns_iter;
  if t.spec_pattern then t.commit_iter <- t.commit_iter + 1;
  if t.info.pat.cp = Insn.De && c.exit_flag <> 0 && t.exit_at < 0
  then take_exit t c;
  c.st <- Idle;
  t.n_idle <- t.n_idle + 1;
  c.iter <- -1

(** Promote / commit whatever can make forward progress for free:
    finished non-speculative iterations with empty store buffers commit
    immediately; finished iterations with buffered stores move to the
    draining state; a still-running promoted context gets its drain queue
    filled so the issue loop empties it before the lane proceeds.

    Only speculative patterns call it.  They commit in order, so the
    iterations in flight are [commit_iter, next_k), at most one per
    context, and no two of them share a slot: the commit point's context
    is the one [dispatch] recorded in its slot. *)
let rec try_commits t =
  let c =
    t.commit_slot.(t.commit_iter land (Array.length t.commit_slot - 1)) in
  if c.iter = t.commit_iter && c.st <> Idle then
    match c.st with
    | Wait_commit ->
      if Lsq.n_stores c.lsq = 0 then begin
        commit_iteration t c;
        try_commits t
      end else if c.drain_next < 0 then begin
        bump t;
        c.drain_next <- 0;
        c.st <- Drain_commit
      end
    | Run when Lsq.n_stores c.lsq > 0 && c.drain_next < 0 ->
      (* Promoted while still running: drain before continuing. *)
      bump t;
      c.drain_next <- 0
    | _ -> ()

(* -- Issue ----------------------------------------------------------- *)

(** Can the iteration finish now?  Every CIR chain must be forwardable: if
    the lane executed the last-CIR-write instruction the outgoing value
    already exists; if that instruction was skipped, the lane copies the
    CIR value through — but if it never consumed the incoming value it
    must first wait for the previous iteration to produce it (the copy
    forwards the {e chain} value, not the lane's stale register).
    Returns -1 if it can, else the earliest cycle it might ([max_int]
    while a value is missing) unless a CIB changes. *)
let cir_finish_wait t (c : ctx) =
  let wake = ref (-1) and i = ref 0 in
  while !wake < 0 && !i < t.n_cibs do
    let cb = t.cibs.(!i) in
    (* Neither forwarded by the last-write insn nor consumed by this
       lane: the copy needs the incoming value. *)
    if cib_lookup cb (c.iter + 1) < 0 && not c.got_cir.(cb.slot) then begin
      let j = cib_lookup cb c.iter in
      if j < 0 then wake := max_int
      else if cb.h_ready.(j) > t.cycle then wake := cb.h_ready.(j)
    end;
    incr i
  done;
  !wake

let end_of_iteration t (c : ctx) =
  (* The implicit xloop at the end of the iteration. *)
  c.insns_iter <- c.insns_iter + 1;
  t.stats.ib_fetches <- t.stats.ib_fetches + 1;
  if t.info.pat.cp = Insn.De then
    c.exit_flag <- get_reg c.hart t.info.r_bound;
  if t.has_cirs then
    (* End-of-iteration CIR copy for chains whose last-write instruction
       was skipped by control flow. *)
    for i = 0 to t.n_cibs - 1 do
      let cb = t.cibs.(i) in
      if cib_lookup cb (c.iter + 1) < 0 then begin
        let value =
          if c.got_cir.(cb.slot) then get_reg c.hart cb.cir.c_reg
          else
            let j = cib_lookup cb c.iter in
            (* guarded by cir_finish_wait *)
            assert (j >= 0);
            cb.h_val.(j)
        in
        cib_write t cb ~producer_iter:c.iter ~value
      end
    done;
  if t.spec_pattern && c.iter > t.commit_iter then
    c.st <- Wait_commit
  else if t.spec_pattern && Lsq.n_stores c.lsq > 0 then begin
    c.drain_next <- 0;
    c.st <- Drain_commit
  end else
    commit_iteration t c

(** Execute the slow-path instruction at [c]'s pc through [iface], its
    resources granted and its result [latency] known.  Accounts the issue
    and performs every lane-level side effect: scoreboard, branch bubble,
    store broadcast, dynamic-bound raise and CIB forwarding. *)
let execute t (c : ctx) ~now iface latency =
  Exec.step t.pre c.hart iface t.ev;
  let ev = t.ev in
  let m = t.meta.(ev.pc) in
  if tracing t Insns then
    Trace.event t.trace Insns "[%7d] lane%d.%d it=%-4d %4d: %a"
      t.cycle c.lane c.tid c.iter ev.pc Insn.pp_resolved
      (Exec.event_insn ev);
  c.insns_iter <- c.insns_iter + 1;
  t.stats.ib_fetches <- t.stats.ib_fetches + 1;
  t.pc_issues.(ev.pc) <- t.pc_issues.(ev.pc) + 1;
  let rd = m.rd in
  if rd >= 0 then c.reg_ready.(rd) <- now + latency;
  (* Taken branches inside the body cost one fetch bubble. *)
  if ev.taken then c.next_issue <- now + 2;
  (* Under a speculative pattern, non-speculative stores are broadcast
     for violation checks; the just-written memory bytes stand in for
     the store data.  Other patterns have no one to tell. *)
  if ev.mem_is_store && t.spec_pattern && c.iter <= t.commit_iter
  then begin
    let raw = ref 0 in
    for i = ev.mem_bytes - 1 downto 0 do
      raw := (!raw lsl 8) lor Memory.get_u8 t.mem (ev.mem_addr + i)
    done;
    broadcast_store t ~from_iter:c.iter ~addr:ev.mem_addr
      ~bytes:ev.mem_bytes ~value:!raw
  end;
  (* Dynamic bound: report writes to the bound register. *)
  if t.info.pat.cp = Insn.Dyn && rd = t.info.r_bound then begin
    let v = get_reg c.hart t.info.r_bound in
    if v > t.bound then begin
      if tracing t Lanes then
        Trace.event t.trace Lanes
          "[%7d] lmu bound raised %d -> %d (lane%d iter=%d)"
          t.cycle t.bound v c.lane c.iter;
      t.bound <- v
    end
  end;
  (* Last-CIR-write forwarding; a local write also supersedes the
     incoming chain value (a write-before-read iteration must not have
     its value clobbered by a later consumption). *)
  if t.has_cirs then
    for i = 0 to t.n_cibs - 1 do
      let cb = t.cibs.(i) in
      if rd = cb.cir.c_reg then c.got_cir.(cb.slot) <- true;
      if cb.cir.c_last_write_pc = ev.pc then
        cib_write t cb ~producer_iter:c.iter
          ~value:(get_reg c.hart cb.cir.c_reg)
    done;
  issued

(* Resource checks and latency selection for a memory instruction, then
   [execute] with the interface that serves it.  A stall sleeps only on
   a held port or a full LSQ: the context's own LSQ and speculation
   change only through epoch events.  With inter-lane forwarding a
   speculative load's source can appear in any cycle, so its port stall
   is retried every cycle. *)
let issue_mem t (c : ctx) ~now =
  let speculative = t.spec_pattern && c.iter > t.commit_iter in
  match t.pre.Program.source.Program.insns.(c.hart.pc) with
  | Load (w, _, rs, imm) ->
    let addr = get_reg c.hart rs + imm in
    let bytes = Memory.width_bytes w in
    if speculative then begin
      if Lsq.loads_full c.lsq then sleep t c stall_lsq max_int
      else if Lsq.store_overlaps c.lsq ~addr ~bytes then begin
        (* Own-lane store-to-load forwarding: no port needed. *)
        t.stats.lsq_searches <- t.stats.lsq_searches + 1;
        execute t c ~now c.spec_if 1
      end else if inter_lane_forward t c ~addr ~bytes then
        execute t c ~now c.fwd_if 1
      else if Port.try_grant t.mem_port ~now ~occupancy:1 then begin
        t.stats.lsq_searches <- t.stats.lsq_searches + 1;
        let l = dcache_latency t c ~addr ~base_latency:t.lat.load_use in
        execute t c ~now c.spec_if l
      end
      else if t.lpsu.inter_lane_fwd then stall_mem
      else port_stall t c t.mem_port stall_mem
    end else if Port.try_grant t.mem_port ~now ~occupancy:1 then begin
      let l = dcache_latency t c ~addr ~base_latency:t.lat.load_use in
      execute t c ~now t.direct_if l
    end else port_stall t c t.mem_port stall_mem
  | Store (_, _, rs, imm) ->
    if speculative then begin
      if Lsq.stores_full c.lsq then sleep t c stall_lsq max_int
      else execute t c ~now c.spec_if 1
    end else if Port.try_grant t.mem_port ~now ~occupancy:1 then begin
      let l =
        dcache_latency t c ~addr:(get_reg c.hart rs + imm)
          ~base_latency:1 in
      execute t c ~now t.direct_if l
    end else port_stall t c t.mem_port stall_mem
  | Amo (_, _, rs, _) ->
    let addr = get_reg c.hart rs in
    if speculative then begin
      if Lsq.loads_full c.lsq || Lsq.stores_full c.lsq then
        sleep t c stall_lsq max_int
      else execute t c ~now c.spec_if t.lat.amo
    end else if Port.try_grant t.mem_port ~now ~occupancy:2 then begin
      let l = dcache_latency t c ~addr ~base_latency:t.lat.amo in
      execute t c ~now t.direct_if l
    end else port_stall t c t.mem_port stall_mem
  | _ -> assert false

(** Attempt to issue one instruction from [c] at the current cycle, past
    its issue time ({!attempt}).  Returns [issued] if the lane did
    useful work, else the stall code, asleep until its outcome can
    change. *)
let attempt_issue t (c : ctx) =
  let now = t.cycle in
  let pc = c.hart.pc in
  if pc = t.info.xloop_pc then begin
    let wake = if t.has_cirs then cir_finish_wait t c else -1 in
    if wake >= 0 then sleep t c stall_cir wake
    else begin
      end_of_iteration t c; issued
    end
  end else begin
    if pc < t.info.body_start || pc > t.info.xloop_pc then
      raise (Lane_trap
               (Printf.sprintf "lane pc %d escaped xloop body [%d,%d]"
                  pc t.info.body_start t.info.xloop_pc));
    match
      (if t.trace == None then t.lane_fast.(pc - t.info.body_start)
       else Lane_ops.L_slow)
    with
    | Lane_ops.L_plain { l_op; l_ctrl } ->
      (* Fast path: a plain single-cycle instruction with no trace
         attached.  It touches no memory, so speculation does not
         change it.  The closure applies exactly [Exec.step]'s register
         effect to the hart's register file and returns the outgoing
         pc; every lane-level effect — issue accounting, RAW
         scoreboard, taken-branch bubble — is recovered from the
         metadata and that pc. *)
      let m = t.meta.(pc) in
      let ready =
        imax (if m.s1 >= 0 then c.reg_ready.(m.s1) else 0)
          (if m.s2 >= 0 then c.reg_ready.(m.s2) else 0)
      in
      if ready > now then sleep t c stall_raw ready
      else begin
        let next = l_op c.hart.regs in
        c.hart.pc <- next;
        c.insns_iter <- c.insns_iter + 1;
        t.stats.ib_fetches <- t.stats.ib_fetches + 1;
        t.pc_issues.(pc) <- t.pc_issues.(pc) + 1;
        if m.rd >= 0 then c.reg_ready.(m.rd) <- now + 1;
        if l_ctrl = 2 || (l_ctrl = 1 && next <> pc + 1) then
          c.next_issue <- now + 2;
        issued
      end
    | Lane_ops.L_slow ->
      let m = t.meta.(pc) in
      (* CIR consumption: the first read of each CIR waits on the CIB. *)
      let wake = ref (-1) in
      if t.has_cirs then
        for i = 0 to t.n_cibs - 1 do
          let cb = t.cibs.(i) in
          let r = cb.cir.c_reg in
          if !wake < 0 && (not c.got_cir.(cb.slot))
          && (m.s1 = r || m.s2 = r) then begin
            let j = cib_lookup cb c.iter in
            if j < 0 then wake := max_int
            else if cb.h_ready.(j) > now then wake := cb.h_ready.(j)
            else begin
              set_reg c.hart r cb.h_val.(j);
              c.reg_ready.(r) <- now;
              c.got_cir.(cb.slot) <- true;
              t.stats.cib_reads <- t.stats.cib_reads + 1
            end
          end
        done;
      if !wake >= 0 then sleep t c stall_cir !wake
      else begin
        let ready =
          imax (if m.s1 >= 0 then c.reg_ready.(m.s1) else 0)
            (if m.s2 >= 0 then c.reg_ready.(m.s2) else 0) in
        if ready > now then sleep t c stall_raw ready
        else if m.llfu then begin
          let occupancy = if m.unpipelined then t.lat.div else 1 in
          if Port.try_grant t.llfu_port ~now ~occupancy then
            execute t c ~now t.direct_if
              (Gpp_timing.class_latency t.lat m.lat)
          else port_stall t c t.llfu_port stall_llfu
        end
        else if m.mem then issue_mem t c ~now
        (* Non-memory: the interface is never used. *)
        else execute t c ~now t.direct_if 1
      end
  end

(** Drain the next buffered store to memory through the shared port. *)
let attempt_drain t (c : ctx) =
  if Port.try_grant t.mem_port ~now:t.cycle ~occupancy:1 then begin
    let i = c.drain_next in
    let addr = Lsq.store_addr c.lsq i in
    Lsq.drain_store c.lsq t.mem i;
    ignore (dcache_latency t c ~addr ~base_latency:1);
    broadcast_store t ~from_iter:c.iter ~addr
      ~bytes:(Lsq.store_bytes c.lsq i) ~value:(Lsq.store_value c.lsq i);
    if i + 1 < Lsq.n_stores c.lsq then c.drain_next <- i + 1
    else begin
      c.drain_next <- -1;
      Lsq.clear c.lsq;
      if c.st = Drain_commit then commit_iteration t c
      (* A running promoted context just continues non-speculatively. *)
    end;
    issued
  end else port_stall t c t.mem_port stall_mem

(* -- Fault injection --------------------------------------------------- *)

(** First context at or after [lane] (wrapping) satisfying [pred] — fault
    events name a lane, but the structure they target may live elsewhere
    this cycle. *)
let pick_ctx t lane pred =
  let n = Array.length t.ctxs in
  let rec go i =
    if i = n then None
    else
      let c = t.ctxs.((lane + i) mod n) in
      if pred c then Some c else go (i + 1)
  in
  go 0

(** Apply one fault event.  Returns [true] if a target existed; an event
    with no applicable target is deferred and retried later.  The caller
    bumps the epoch after an applied event. *)
let apply_fault t (e : Fault.event) =
  match e.ev_kind with
  | Cib_drop ->
    t.n_cibs > 0
    && (let cb = t.cibs.(e.ev_lane mod t.n_cibs) in
        cb.len >= 2 && (cb.len <- cb.len - 1; true))
  | Cib_dup ->
    t.n_cibs > 0
    && (let cb = t.cibs.(e.ev_lane mod t.n_cibs) in
        let j = cb.len - 1 in
        j >= 0 && cib_lookup cb (cb.h_iter.(j) + 1) < 0
        && (cib_push cb ~iter:(cb.h_iter.(j) + 1) ~value:cb.h_val.(j)
              ~ready:cb.h_ready.(j);
            true))
  | Lsq_drop_load ->
    (match pick_ctx t e.ev_lane (fun c -> active c && not (Lsq.is_empty c.lsq))
     with
     | Some c -> Lsq.drop_newest_load c.lsq
     | None -> false)
  | Lsq_lost_broadcast ->
    t.spec_pattern
    && (t.drop_broadcasts <- t.drop_broadcasts + 1; true)
  | Idq_corrupt ->
    (match pick_ctx t e.ev_lane (fun c -> c.st = Run) with
     | Some c ->
       (* A bit-flip in the dispensed index: the iteration computes with
          a wrong induction value (the LMU's own count is unaffected, so
          the loop still terminates — the damage is purely data). *)
       set_reg c.hart t.info.r_idx
         (get_reg c.hart t.info.r_idx lxor 0x40);
       true
     | None -> false)
  | Mivt_stale ->
    t.n_mivs > 0
    && (match pick_ctx t e.ev_lane (fun c -> c.st = Run) with
        | Some c -> set_reg c.hart t.miv_regs.(0) t.miv_base.(0); true
        | None -> false)
  | Port_stall ->
    Port.inject_stall t.mem_port ~now:t.cycle
      ~cycles:(32 + 16 * (e.ev_lane land 3));
    true
  | Lane_freeze ->
    (match pick_ctx t e.ev_lane
             (fun c -> c.st <> Idle && not c.frozen) with
     | Some c -> c.frozen <- true; true
     | None -> false)

(* -- Main loop -------------------------------------------------------- *)

(* Add this run's lane cycles by outcome to the Figure 6 counters and
   its per-pc issues to the event counters; called once per {!run}, on
   every exit. *)
let fold_accounts t =
  let s = t.stats and a = t.lane_cyc in
  s.cyc_exec <- s.cyc_exec + a.(issued + 1);
  s.cyc_stall_raw <- s.cyc_stall_raw + a.(stall_raw + 1);
  s.cyc_stall_mem <- s.cyc_stall_mem + a.(stall_mem + 1);
  s.cyc_stall_llfu <- s.cyc_stall_llfu + a.(stall_llfu + 1);
  s.cyc_stall_lsq <- s.cyc_stall_lsq + a.(stall_lsq + 1);
  s.cyc_stall_cir <- s.cyc_stall_cir + a.(stall_cir + 1);
  s.cyc_idle <- s.cyc_idle + a.(stall_idle + 1) + a.(stall_frozen + 1);
  Array.fill a 0 (Array.length a) 0;
  Insn_meta.fold_counts t.meta t.pc_issues ~lo:t.info.body_start
    ~hi:t.info.xloop_pc s

(** Name the resource the LPSU is blocked on, from the per-lane stall
    reasons of the last simulated cycle — the watchdog's diagnosis. *)
let classify_hang t : Fault.hang =
  let count code = Array.fold_left (fun n r -> if r = code then n + 1 else n)
      0 t.lane_reason in
  let frozen_lanes =
    Array.fold_left (fun n c -> if c.frozen then n + 1 else n) 0 t.ctxs in
  let resource, detail =
    if frozen_lanes > 0 then
      Fault.Lane_frozen,
      Printf.sprintf "%d lane(s) frozen; commit point pinned at iter %d"
        frozen_lanes t.commit_iter
    else if count stall_cir > 0 then
      Fault.Cib_chain,
      Printf.sprintf "%d lane(s) waiting on a CIB value for iter >= %d"
        (count stall_cir) t.commit_iter
    else if count stall_lsq > 0 then
      Fault.Lsq_full,
      Printf.sprintf "%d lane(s) LSQ-bound; oldest uncommitted iter %d"
        (count stall_lsq) t.commit_iter
    else if count stall_mem > 0 then
      Fault.Port_starved,
      Printf.sprintf "%d lane(s) denied the shared memory port"
        (count stall_mem)
    else
      Fault.No_progress,
      Printf.sprintf "no commit or dispatch for %d cycles"
        (t.cycle - t.last_progress)
  in
  { h_resource = resource; h_cycle = t.cycle; h_committed = t.committed;
    h_detail = detail }

let inject_faults t plan ~start =
  Fault.fire plan ~rel:(t.cycle - start)
    (fun (e : Fault.event) ->
       apply_fault t e
       && begin
         bump t;
         t.stats.faults_injected <- t.stats.faults_injected + 1;
         if tracing t Lanes then
           Trace.event t.trace Lanes
             "[%7d] FAULT inject %a (lane %d)" t.cycle Fault.pp_kind
             e.ev_kind e.ev_lane;
         true
       end)

let[@inline] asleep t (c : ctx) =
  t.cycle < c.sleep_until && c.sleep_epoch = t.epoch

(* One context's issue slot for this cycle: [issued] or a stall code.  A
   sleeping context answers at once.  Only epoch events change an idle,
   a waiting or a frozen context (a freeze bumps the epoch), so each
   sleeps for good. *)
let[@inline] attempt t (c : ctx) =
  if asleep t c then c.sleep_reason
  else if c.frozen && c.st <> Idle then sleep t c stall_frozen max_int
  else match c.st with
    | Idle -> sleep t c stall_idle max_int
    | Wait_commit -> sleep t c stall_lsq max_int
    | Drain_commit -> attempt_drain t c
    | Run ->
      if c.drain_next >= 0 then attempt_drain t c
      else if t.spec_pattern && c.iter <= t.commit_iter
           && Lsq.n_stores c.lsq > 0 then begin
        (* Promoted since its last issue (possibly mid-cycle): buffered
           state must reach memory before the lane may touch memory
           directly. *)
        c.drain_next <- 0;
        attempt_drain t c
      end
      else if t.cycle < c.next_issue then
        sleep t c stall_raw c.next_issue
      else attempt_issue t c

(* The lane cycle of a multithreaded or wider lane: each lane owns
   [lane_issue_width] issue slots per cycle (2 models the "superscalar
   lane" future work; the paper's simple lanes have one, and with one
   context they skip this loop, whose answer would be that context's
   [attempt]).  Vertical multithreading lets the next context use a
   slot when one stalls; a context that stalls is not retried within
   the cycle.  Returns [issued] if any slot issued, else the highest
   stall code. *)
let lane_slots t ~base ~threads ~width =
  let slots = ref width and ti = ref 0 and reason = ref stall_idle in
  while !slots > 0 && !ti < threads do
    let r = attempt t t.ctxs.(base + !ti) in
    if r = issued then decr slots
    else begin
      reason := imax !reason r;
      incr ti
    end
  done;
  if !slots < width then issued else !reason

let[@inline] sat_add a b = if a > max_int - b then max_int else a + b

(* After a cycle that issued nothing and moved no epoch, every cycle
   repeats it exactly until the first one at which something can
   differ: a context's sleep ends, the watchdog trips, the fuel runs out
   or the fault plan's next event falls due.  Returns that cycle, or at
   most [t.cycle] when some context is not asleep (its next attempt may
   differ).  No skipped retry of a declined fault could succeed: every
   {!apply_fault} test reads state that only an issue or an epoch event
   changes, and [Port_stall] always applies, so it is never declined. *)
let quiet_until t ~start ~fuel_trip =
  let next_fault = match t.faults with
    | Some p -> sat_add start (Fault.next_due p ~rel:(t.cycle - start))
    | None -> max_int in
  let until = ref (imin fuel_trip next_fault) in
  if t.watchdog > 0 then
    until := imin !until (sat_add t.last_progress (t.watchdog + 1));
  let i = ref 0 and n = Array.length t.ctxs in
  while !i < n do
    let c = t.ctxs.(!i) in
    if c.sleep_epoch <> t.epoch then begin until := t.cycle; i := n end
    else begin
      until := imin !until c.sleep_until;
      incr i
    end
  done;
  !until

let run_to_completion t ~fuel : (unit, Fault.hang) Stdlib.result =
  let lanes = t.lpsu.lanes in
  let threads = Array.length t.ctxs / lanes in
  let width = t.lpsu.lane_issue_width in
  let simple = threads = 1 && width = 1 in
  let start = t.cycle in
  let fuel_trip = sat_add start (sat_add fuel 1) in
  let rotate = ref 0 in
  let hang = ref None and running = ref true in
  while !running
        && not (t.n_idle = Array.length t.ctxs && not (can_dispense t)) do
    if t.cycle - start > fuel then begin
      hang := Some { Fault.h_resource = Fault.Fuel; h_cycle = t.cycle;
                     h_committed = t.committed;
                     h_detail =
                       Printf.sprintf "cycle budget %d exhausted" fuel };
      running := false
    end else if t.watchdog > 0 && t.cycle - t.last_progress > t.watchdog
    then begin
      t.stats.watchdog_hangs <- t.stats.watchdog_hangs + 1;
      hang := Some (classify_hang t);
      running := false
    end else begin
      let epoch = t.epoch in
      (match t.faults with
       | None -> ()
       | Some plan -> inject_faults t plan ~start);
      (* LMU: dispense iteration indices to idle contexts, in lane order.
         Frozen contexts take no new work. *)
      if t.n_idle > 0 then
        for i = 0 to Array.length t.ctxs - 1 do
          let c = t.ctxs.(i) in
          if c.st = Idle && not c.frozen && can_dispense t then
            dispatch t c
        done;
      if t.spec_pattern then try_commits t;
      (* A lane with one context and one issue slot (the paper's simple
         lanes) makes one attempt; only multithreaded or wider lanes run
         the slot loop. *)
      let quiet = ref true in
      for li = 0 to lanes - 1 do
        let lane =
          if li + !rotate >= lanes then li + !rotate - lanes else li + !rotate
        in
        let base = lane * threads in
        let r =
          if simple then attempt t t.ctxs.(base)
          else lane_slots t ~base ~threads ~width
        in
        if r = issued then quiet := false;
        t.lane_reason.(lane) <- imax r stall_idle;
        t.lane_cyc.(r + 1) <- t.lane_cyc.(r + 1) + 1
      done;
      if t.spec_pattern then try_commits t;
      (* A quiet cycle repeats until [quiet_until]: jump there, adding
         the skipped cycles to each lane's outcome.  A trace would print
         the skipped cycles, so the jump is off whenever one is
         attached. *)
      let skip =
        if !quiet && t.trace == None && t.epoch = epoch then
          quiet_until t ~start ~fuel_trip - (t.cycle + 1)
        else 0
      in
      if skip > 0 then begin
        for lane = 0 to lanes - 1 do
          let r = t.lane_reason.(lane) in
          t.lane_cyc.(r + 1) <- t.lane_cyc.(r + 1) + skip
        done;
        rotate := (!rotate + 1 + skip) mod lanes;
        t.cycle <- t.cycle + 1 + skip
      end else begin
        rotate := (if !rotate + 1 = lanes then 0 else !rotate + 1);
        t.cycle <- t.cycle + 1
      end
    end
  done;
  match !hang with None -> Ok () | Some h -> Error h

let finals t =
  let k = t.committed in
  let cir_finals =
    List.init t.n_cibs (fun i ->
        let cb = t.cibs.(i) in
        let r = cb.cir.c_reg in
        let j = cib_lookup cb k in
        (* [j < 0] only for a loop with zero LPSU iterations. *)
        (r, Int32.of_int (if j >= 0 then cb.h_val.(j) else t.base_regs.(r))))
  in
  let miv_finals =
    List.init t.n_mivs (fun i ->
        (t.miv_regs.(i),
         Int32.of_int (norm (t.miv_base.(i) + k * t.miv_inc.(i)))))
  in
  (cir_finals, miv_finals)

(** Run specialized execution.  [stop_after] bounds the number of
    iterations dispatched (used by the adaptive profiling phase); in-flight
    iterations always drain before returning.

    Hangs (watchdog trips and fuel exhaustion) come back as [Error] so the
    machine can roll back and degrade to traditional execution instead of
    crashing.  When a fault plan is active, architectural traps raised by a
    corrupted lane are converted to hangs too — an injected fault must never
    escape as an exception. *)
let run t ~(info : Scan.t) ~regs ~start_cycle ?stop_after ?(watchdog = 0)
    ?(fuel = 500_000_000) () : (result, Fault.hang) Stdlib.result =
  start t ~info ~regs ~start_cycle ~stop_after ~watchdog;
  let trace = t.trace in
  t.stats.xloops_specialized <- t.stats.xloops_specialized + 1;
  if Trace.enabled trace Decisions then
    Trace.event trace Decisions
      "[%7d] lpsu start: xloop.%a body=%d idx0=%d bound=%d mivs=%d cirs=%d"
      start_cycle Insn.pp_xpat_suffix info.pat info.body_len t.idx0
      t.bound (List.length info.mivs) (List.length info.cirs);
  let outcome =
    match run_to_completion t ~fuel with
    | r -> fold_accounts t; r
    | exception e ->
      fold_accounts t;
      (* Under a fault plan, a corrupted index or MIV can push a lane off
         the address map or the program; report it as a hang of kind
         [Trapped]. *)
      let trapped h_detail =
        if t.faults = None then raise e
        else
          Error { Fault.h_resource = Fault.Trapped; h_cycle = t.cycle;
                  h_committed = t.committed; h_detail }
      in
      match e with
      | Exec.Trap msg | Lane_trap msg -> trapped msg
      | Xloops_mem.Memory.Bad_access { addr; what } ->
        trapped (Printf.sprintf "%s at 0x%x" what addr)
      | _ -> raise e
  in
  match outcome with
  | Error h ->
    if Trace.enabled trace Decisions then
      Trace.event trace Decisions "[%7d] lpsu HANG: %a" t.cycle
        Fault.pp_hang h;
    Error h
  | Ok () ->
    let cir_finals, miv_finals = finals t in
    let next_idx = idx_of t t.committed in
    if Trace.enabled trace Decisions then
      Trace.event trace Decisions
        "[%7d] lpsu done: %d iterations in %d cycles, %d violations"
        t.cycle t.committed (t.cycle - start_cycle) t.stats.violations;
    Ok { cycles = t.cycle - start_cycle;
         iterations = t.committed;
         finished =
           (match t.info.pat.cp with
            | Insn.De -> t.exit_at >= 0
            | Fixed | Dyn -> next_idx >= t.bound);
         next_idx = Int32.of_int next_idx;
         bound = Int32.of_int t.bound;
         cir_finals;
         miv_finals }
