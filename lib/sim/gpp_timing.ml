(** GPP timing models.

    Both models consume the committed-instruction event stream produced by
    {!Exec.step} and maintain a cycle estimate:

    - {b In-order}: a single-issue scoreboard.  An instruction issues when
      the previous instruction has issued, its source operands are ready
      and any unpipelined unit (divider) is free; taken branches insert
      [branch_penalty] bubbles; loads have a load-use latency plus the L1
      miss penalty.

    - {b Out-of-order}: the classic windowed-dataflow model.  Dispatch is
      bounded by issue width and reorder-window occupancy; an instruction
      issues when its operands are ready; loads wait for earlier stores to
      the same word; AMOs and fences serialize memory; branch mispredicts
      (bimodal predictor) redirect dispatch to the branch's completion plus
      the refill penalty.

    This is the same modelling altitude as the paper's gem5 configurations:
    cycle-approximate, honest about where ILP comes from. *)

open Xloops_isa
module Cache = Xloops_mem.Cache
module Program = Xloops_asm.Program

(* The timing paths run once per simulated instruction, so they follow
   the functional core's rules: no allocation, no polymorphic compare
   (without flambda [Stdlib.max] on ints is a [caml_greaterequal] call),
   no partial application and no closures. *)
let[@inline] imax (a : int) b = if a >= b then a else b

type latencies = {
  alu : int; mul : int; div : int; fpu : int; load_use : int; amo : int;
}

let latencies_of (g : Config.gpp) = {
  alu = 1;
  mul = g.mul_latency;
  div = g.div_latency;
  fpu = g.fpu_latency;
  load_use = g.load_use_latency;
  amo = g.load_use_latency + 1;
}

let[@inline] class_latency lat (cls : Insn_meta.latency) =
  match cls with
  | Lat_alu -> lat.alu
  | Lat_mul -> lat.mul
  | Lat_div -> lat.div
  | Lat_fpu -> lat.fpu

(* The metadata of the program an event indexes, decoded again only
   when the stepped program changes: once per machine.  Committed
   instructions are counted per pc in [m_count]; {!fold_events} turns
   the counts into {!Stats} events (as does a change of program). *)
type meta_cache = {
  stats : Stats.t;
  mutable m_prog : Program.t;
  mutable m_meta : Insn_meta.t array;
  mutable m_count : int array;
}

let meta_cache stats =
  let p = { Program.insns = [||]; symbols = [] } in
  { stats; m_prog = p; m_meta = [||]; m_count = [||] }

let fold mc =
  Insn_meta.fold_counts mc.m_meta mc.m_count ~lo:0
    ~hi:(Array.length mc.m_count) mc.stats

(* [ev]'s metadata, its issue counted. *)
let[@inline] meta_of mc (ev : Exec.event) =
  if ev.prog != mc.m_prog then begin
    fold mc;
    mc.m_prog <- ev.prog;
    mc.m_meta <- Insn_meta.of_program ev.prog;
    mc.m_count <- Array.make (Array.length mc.m_meta) 0
  end;
  let pc = ev.pc in
  Array.unsafe_set mc.m_count pc (Array.unsafe_get mc.m_count pc + 1);
  Array.unsafe_get mc.m_meta pc

(* Instruction fetch through the L1I.  The pcs of the line the latest
   fetch touched are kept as a range: a fetch from that line is a hit
   and would leave the set's LRU order as it is (the line is already the
   most recently used), so it skips the cache lookup. *)
type fetch = {
  l1i : Cache.t;
  line_bytes : int;
  mutable lo : int;              (* pcs [lo, hi) share the last line *)
  mutable hi : int;
}

let fetch_unit (cfg : Config.gpp) =
  { l1i = Cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
        ~line_bytes:cfg.l1_line ();
    line_bytes = cfg.l1_line; lo = 0; hi = 0 }

let[@inline] fetch_hits f pc =
  (pc >= f.lo && pc < f.hi)
  || begin
    let line = pc * 4 / f.line_bytes in
    f.lo <- (line * f.line_bytes + 3) / 4;
    f.hi <- ((line + 1) * f.line_bytes + 3) / 4;
    Cache.access f.l1i (pc * 4)
  end

(* ------------------------------------------------------------------ *)
(*  In-order                                                           *)
(* ------------------------------------------------------------------ *)

module Inorder = struct
  type t = {
    cfg : Config.gpp;
    lat : latencies;
    stats : Stats.t;
    fetch : fetch;
    l1d : Cache.t;
    reg_ready : int array;
    mc : meta_cache;
    mutable last_issue : int;
    mutable last_complete : int;
    mutable div_busy_until : int;
  }

  let create (cfg : Config.gpp) (stats : Stats.t) = {
    cfg; lat = latencies_of cfg; stats;
    fetch = fetch_unit cfg;
    l1d = Cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
        ~line_bytes:cfg.l1_line ();
    reg_ready = Array.make Reg.num_regs 0;
    mc = meta_cache stats;
    last_issue = 0; last_complete = 0; div_busy_until = 0;
  }

  let consume t (ev : Exec.event) =
    let s = t.stats in
    let m = meta_of t.mc ev in
    s.committed_insns <- s.committed_insns + 1;
    s.icache_fetches <- s.icache_fetches + 1;
    (* Fetch. *)
    let fetch_extra =
      if fetch_hits t.fetch ev.pc then 0
      else begin
        s.icache_misses <- s.icache_misses + 1;
        t.cfg.miss_penalty
      end
    in
    (* Operand readiness. *)
    let ready =
      imax (if m.s1 >= 0 then t.reg_ready.(m.s1) else 0)
        (if m.s2 >= 0 then t.reg_ready.(m.s2) else 0)
    in
    let struct_ready = if m.unpipelined then t.div_busy_until else 0 in
    let issue =
      imax (t.last_issue + 1 + fetch_extra) (imax ready struct_ready)
    in
    (* Completion.  A simple in-order core blocks on an L1 miss
       regardless of whether anything consumes the value. *)
    let miss_stall =
      if ev.mem_addr >= 0 then begin
        s.dcache_accesses <- s.dcache_accesses + 1;
        if Cache.access t.l1d ev.mem_addr then 0
        else begin
          s.dcache_misses <- s.dcache_misses + 1;
          t.cfg.miss_penalty
        end
      end else 0
    in
    let complete =
      if ev.mem_addr >= 0 then
        let base = if ev.mem_is_amo then t.lat.amo
          else if ev.mem_is_store then 1
          else t.lat.load_use in
        issue + base + miss_stall
      else
        issue + class_latency t.lat m.lat
    in
    if m.unpipelined then t.div_busy_until <- complete;
    if m.rd >= 0 then t.reg_ready.(m.rd) <- complete;
    (* Control flow: taken branches insert fetch bubbles. *)
    t.last_issue <-
      issue + miss_stall
      + (if ev.taken then t.cfg.branch_penalty else 0);
    t.last_complete <- imax t.last_complete complete

  let now t = imax t.last_issue t.last_complete

  (** Drain the pipeline (used before a specialized phase / at halt). *)
  let barrier t =
    let c = now t in
    t.last_issue <- c;
    t.last_complete <- c

  (** Jump the clock forward (used after a specialized phase). *)
  let skip_to t cycle =
    let c = imax cycle (now t) in
    t.last_issue <- c;
    t.last_complete <- c;
    Array.fill t.reg_ready 0 (Array.length t.reg_ready) c
end

(* ------------------------------------------------------------------ *)
(*  Out-of-order                                                       *)
(* ------------------------------------------------------------------ *)

(* Word address -> completion cycle of the youngest store to it: an
   open-addressing table with int keys (no [caml_hash] call per memory
   operation).  A slot's tag is [gen lsl 32 lor key]; it is live only
   while [gen] is the table's current generation, so [reset] is O(1).

   An entry whose completion is at or before the current dispatch cycle
   can no longer delay any load (a later load issues no earlier), so a
   full table first drops those; it grows only if a quarter of it is
   still in flight.  The table thus stays the size of the store window,
   not of the data set. *)
module Store_table = struct
  type t = {
    mutable tags : int array;
    mutable vals : int array;
    mutable live_keys : int array;   (* purge scratch, half the size *)
    mutable live_vals : int array;
    mutable gen : int;
    mutable count : int;
    mutable mask : int;
  }

  let create n =
    { tags = Array.make n 0; vals = Array.make n 0;
      live_keys = Array.make (n / 2) 0; live_vals = Array.make (n / 2) 0;
      gen = 1; count = 0; mask = n - 1 }

  let reset t = t.gen <- t.gen + 1; t.count <- 0

  let[@inline] slot t k =
    let h = k * 0x9E3779B1 in
    (h lxor (h lsr 17)) land t.mask

  (* Linear probing: the live slot holding [tag], or the first dead slot,
     where it would go. *)
  let rec probe t tag i =
    let x = t.tags.(i) in
    if x = tag || x lsr 32 <> t.gen then i
    else probe t tag ((i + 1) land t.mask)

  let find t k ~default =
    let tag = (t.gen lsl 32) lor k in
    let i = probe t tag (slot t k) in
    if t.tags.(i) = tag then t.vals.(i) else default

  (* Insert a key known to be absent, with room to spare. *)
  let insert t k v =
    let tag = (t.gen lsl 32) lor k in
    let i = probe t tag (slot t k) in
    t.tags.(i) <- tag;
    t.vals.(i) <- v;
    t.count <- t.count + 1

  (* Keep only the entries completing after [horizon], at [size] slots. *)
  let rebuild t ~horizon ~size =
    let n = ref 0 in
    for i = 0 to Array.length t.tags - 1 do
      let x = t.tags.(i) in
      if x lsr 32 = t.gen && t.vals.(i) > horizon then begin
        t.live_keys.(!n) <- x land 0xFFFF_FFFF;
        t.live_vals.(!n) <- t.vals.(i);
        incr n
      end
    done;
    if size > Array.length t.tags then begin
      let live_keys = t.live_keys and live_vals = t.live_vals in
      t.tags <- Array.make size 0;
      t.vals <- Array.make size 0;
      t.live_keys <- Array.make (size / 2) 0;
      t.live_vals <- Array.make (size / 2) 0;
      t.mask <- size - 1;
      t.gen <- 1;
      t.count <- 0;
      for j = 0 to !n - 1 do insert t live_keys.(j) live_vals.(j) done
    end else begin
      reset t;
      for j = 0 to !n - 1 do insert t t.live_keys.(j) t.live_vals.(j) done
    end

  (** [replace t k v ~horizon]: stores completing at or before [horizon]
      may be forgotten. *)
  let replace t k v ~horizon =
    let tag = (t.gen lsl 32) lor k in
    let i = probe t tag (slot t k) in
    if t.tags.(i) = tag then t.vals.(i) <- v
    else begin
      let n = Array.length t.tags in
      if 2 * (t.count + 1) > n then begin
        rebuild t ~horizon ~size:n;
        if 4 * (t.count + 1) > n then rebuild t ~horizon ~size:(2 * n)
      end;
      insert t k v
    end
end

module Ooo = struct
  type t = {
    cfg : Config.gpp;
    width : int;
    window : int;
    lat : latencies;
    stats : Stats.t;
    fetch : fetch;
    l1d : Cache.t;
    bp : Branch_pred.t;
    reg_ready : int array;
    ring : int array;              (* completion times, window ring *)
    mutable slot : int;            (* the next instruction's ring entry *)
    mc : meta_cache;
    mutable dispatch_cycle : int;
    mutable dispatched_in_cycle : int;
    mutable redirect : int;        (* front end stalled until this cycle *)
    mutable mem_serial : int;      (* AMO/fence serialization point *)
    store_ready : Store_table.t;   (* word addr -> completion *)
    mutable max_complete : int;
  }

  let create (cfg : Config.gpp) (stats : Stats.t) =
    let width, window =
      match cfg.kind with
      | Config.Ooo { width; window } -> width, window
      | Config.Inorder -> invalid_arg "Gpp_timing.Ooo.create: in-order config"
    in
    { cfg; width; window; lat = latencies_of cfg; stats;
      fetch = fetch_unit cfg;
      l1d = Cache.create ~size_bytes:cfg.l1_size ~ways:cfg.l1_ways
          ~line_bytes:cfg.l1_line ();
      bp = Branch_pred.create ();
      reg_ready = Array.make Reg.num_regs 0;
      ring = Array.make window 0;
      mc = meta_cache stats;
      slot = 0; dispatch_cycle = 0; dispatched_in_cycle = 0;
      redirect = 0; mem_serial = 0;
      store_ready = Store_table.create 64;
      max_complete = 0 }

  let consume t (ev : Exec.event) =
    let s = t.stats in
    let m = meta_of t.mc ev in
    s.committed_insns <- s.committed_insns + 1;
    s.icache_fetches <- s.icache_fetches + 1;
    s.renames <- s.renames + 1;
    s.rob_ops <- s.rob_ops + 1;
    s.iq_ops <- s.iq_ops + 1;
    (* Fetch-side cache (fetch groups share lines; charge misses only). *)
    if not (fetch_hits t.fetch ev.pc) then begin
      s.icache_misses <- s.icache_misses + 1;
      t.redirect <- imax t.redirect (t.dispatch_cycle + t.cfg.miss_penalty)
    end;
    (* Dispatch: width, window, and redirect constraints. *)
    let slot = t.slot in
    let d = imax (imax t.dispatch_cycle t.redirect) t.ring.(slot) in
    if d > t.dispatch_cycle then begin
      t.dispatch_cycle <- d;
      t.dispatched_in_cycle <- 0
    end;
    if t.dispatched_in_cycle >= t.width then begin
      t.dispatch_cycle <- t.dispatch_cycle + 1;
      t.dispatched_in_cycle <- 0
    end;
    let dispatch = t.dispatch_cycle in
    t.dispatched_in_cycle <- t.dispatched_in_cycle + 1;
    (* Operand readiness. *)
    let ready =
      imax dispatch
        (imax (if m.s1 >= 0 then t.reg_ready.(m.s1) else 0)
           (if m.s2 >= 0 then t.reg_ready.(m.s2) else 0))
    in
    let issue = imax ready t.mem_serial in
    (* Completion. *)
    let complete =
      if ev.mem_addr >= 0 then begin
        s.dcache_accesses <- s.dcache_accesses + 1;
        let hit = Cache.access t.l1d ev.mem_addr in
        if not hit then s.dcache_misses <- s.dcache_misses + 1;
        let miss = if hit then 0 else t.cfg.miss_penalty in
        let word = ev.mem_addr / 4 in
        if ev.mem_is_amo then begin
          (* Conservative AMO: waits for all earlier memory traffic and
             serializes later traffic (Section IV-B's "rather
             conservative" implementation). *)
          let c = imax issue t.mem_serial + t.lat.amo + miss in
          t.mem_serial <- c;
          Store_table.replace t.store_ready word c ~horizon:dispatch;
          c
        end else if ev.mem_is_store then begin
          let c = issue + 1 + miss in
          Store_table.replace t.store_ready word c ~horizon:dispatch;
          c
        end else begin
          (* Load: wait for the youngest earlier store to the same word
             (store-to-load forwarding at its completion). *)
          let dep = Store_table.find t.store_ready word ~default:0 in
          imax issue dep + t.lat.load_use + miss
        end
      end else if m.sync then begin
        let c = imax issue t.mem_serial in
        t.mem_serial <- c;
        c
      end else issue + class_latency t.lat m.lat
    in
    if m.rd >= 0 then t.reg_ready.(m.rd) <- complete;
    (* Branch prediction: conditional branches and xloops go through the
       bimodal predictor; the return-address stack is assumed perfect and
       direct jumps never mispredict. *)
    if m.predicted
    && not (Branch_pred.predict_update t.bp ~pc:ev.pc ~taken:ev.taken)
    then begin
      s.mispredicts <- s.mispredicts + 1;
      t.redirect <- imax t.redirect (complete + t.cfg.branch_penalty)
    end;
    t.ring.(slot) <- complete;
    t.slot <- (if slot + 1 = t.window then 0 else slot + 1);
    t.max_complete <- imax t.max_complete complete

  let now t = imax t.dispatch_cycle t.max_complete

  let barrier t =
    let c = now t in
    t.dispatch_cycle <- c;
    t.dispatched_in_cycle <- 0;
    t.redirect <- imax t.redirect c;
    t.mem_serial <- imax t.mem_serial c

  let skip_to t cycle =
    let c = imax cycle (now t) in
    t.dispatch_cycle <- c;
    t.dispatched_in_cycle <- 0;
    t.redirect <- c;
    t.mem_serial <- c;
    t.max_complete <- c;
    Array.fill t.reg_ready 0 (Array.length t.reg_ready) c;
    Array.fill t.ring 0 (Array.length t.ring) c;
    Store_table.reset t.store_ready
end

(* ------------------------------------------------------------------ *)
(*  Uniform front door                                                 *)
(* ------------------------------------------------------------------ *)

type t =
  | In_order of Inorder.t
  | Out_of_order of Ooo.t

let create (cfg : Config.gpp) (stats : Stats.t) =
  match cfg.kind with
  | Config.Inorder -> In_order (Inorder.create cfg stats)
  | Config.Ooo _ -> Out_of_order (Ooo.create cfg stats)

let consume t ev =
  match t with
  | In_order m -> Inorder.consume m ev
  | Out_of_order m -> Ooo.consume m ev

let now = function
  | In_order m -> Inorder.now m
  | Out_of_order m -> Ooo.now m

let barrier = function
  | In_order m -> Inorder.barrier m
  | Out_of_order m -> Ooo.barrier m

let skip_to t cycle =
  match t with
  | In_order m -> Inorder.skip_to m cycle
  | Out_of_order m -> Ooo.skip_to m cycle

let fold_events = function
  | In_order m -> fold m.Inorder.mc
  | Out_of_order m -> fold m.Ooo.mc

(** The GPP's L1 data cache — shared with the LPSU, which arbitrates for
    the same data-memory port (Figure 4). *)
let l1d = function
  | In_order m -> m.Inorder.l1d
  | Out_of_order m -> m.Ooo.l1d

(** Scan-phase cost model: an out-of-order GPP overlaps part of the scan
    with draining earlier work (Section II-D), modelled as a smaller fixed
    overhead. *)
let scan_cycles t (lpsu : Config.lpsu) ~body_insns =
  let fixed = match t with
    | In_order _ -> lpsu.scan_fixed
    | Out_of_order _ -> imax 1 (lpsu.scan_fixed / 2)
  in
  fixed + (lpsu.scan_per_insn * body_insns)
