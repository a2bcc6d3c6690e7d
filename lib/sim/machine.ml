(** Top-level machine: a GPP, optionally augmented with an LPSU, executing
    a program in one of the paper's three execution modes.

    - {b Traditional}: every instruction, including [xloop] and [.xi],
      executes on the GPP ([xloop] as a conditional branch, [.xi] as an
      add).
    - {b Specialized}: when the GPP takes an [xloop] back-edge (i.e. after
      the first iteration has executed on the GPP, which is how the
      fall-through encoding works), it scans the body into the LPSU and
      hands the remaining iterations to specialized execution; on loops the
      LPSU cannot handle it falls back to traditional execution.
    - {b Adaptive}: an adaptive profiling table (APT) indexed by the
      [xloop] PC first measures traditional-execution throughput, then
      specialized throughput on the same number of iterations, and commits
      to whichever is faster (Section II-E).  Profiling stretches across
      dynamic instances of the loop, and a decision, once made, sticks. *)

module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory

type mode = Traditional | Specialized | Adaptive

let mode_name = function
  | Traditional -> "T" | Specialized -> "S" | Adaptive -> "A"

type result = {
  cycles : int;
  insns : int;              (** dynamically committed instructions *)
  stats : Stats.t;
}

(** Why a run could not complete.  Structured data, not an exception:
    sweep drivers report the failing kernel and keep going. *)
type failure =
  | Out_of_fuel of { pc : int; insns : int; cycle : int }
  | Lpsu_hang of Fault.hang

let pp_failure ppf = function
  | Out_of_fuel { pc; insns; cycle } ->
    Fmt.pf ppf "out of fuel at pc %d after %d instructions (cycle %d)"
      pc insns cycle
  | Lpsu_hang h -> Fault.pp_hang ppf h

exception Stuck of failure

type apt_entry =
  | Profiling of {
      mutable iters : int;
      mutable cycles : int;
      mutable last_taken : int;   (* -1 between dynamic instances *)
    }
  | Decided of {
      spec : bool;
      mutable uses : int;   (* dynamic loop instances under this decision *)
    }

let decided spec = Decided { spec; uses = 0 }

type t = {
  cfg : Config.t;
  mode : mode;
  adaptive : Config.adaptive;
  lpsu_fuel : int;
  trace : Trace.t option;
  prog : Program.t;
  pre : Program.predecoded;      (* prog, predecoded once for the run *)
  mem : Memory.t;
  gpp_mem : Exec.mem_iface;      (* built once, not per instruction *)
  ev : Exec.event;               (* the GPP's reusable step scratch *)
  stats : Stats.t;
  hart : Exec.hart;
  timing : Gpp_timing.t;
  mutable lpsu : Lpsu.t option;  (* built on the first specialized loop *)
  apt : (int, apt_entry) Hashtbl.t;
  scan_fail : (int, Scan.fallback_reason) Hashtbl.t;
  scans : (int, Scan.shape) Hashtbl.t;   (* each xloop pc scanned once *)
  faults : Fault.t option;
  watchdog : int;
  degrade : bool;
  degraded : (int, unit) Hashtbl.t;
      (* xloop PCs pinned to traditional execution after a rollback *)
  mutable hangs : Fault.hang list;   (* newest first *)
  mutable insns : int;
}

let create ?(adaptive = Config.default_adaptive)
    ?(lpsu_fuel = 500_000_000) ?trace ?faults ?(watchdog = 50_000)
    ?(degrade = true) ~cfg ~mode ~prog ~mem
    ?(entry = 0) () =
  (match mode, cfg.Config.lpsu with
   | (Specialized | Adaptive), None ->
     invalid_arg
       (Printf.sprintf "Machine.create: config %s has no LPSU" cfg.name)
   | _ -> ());
  let stats = Stats.create () in
  { cfg; mode; adaptive; lpsu_fuel; trace; prog;
    pre = Program.predecode prog;
    mem;
    gpp_mem = Exec.direct_mem mem;
    ev = Exec.create_event ();
    stats;
    hart = Exec.create_hart ~pc:entry ();
    timing = Gpp_timing.create cfg.Config.gpp stats;
    lpsu = None;
    apt = Hashtbl.create 8;
    scan_fail = Hashtbl.create 8;
    scans = Hashtbl.create 8;
    faults; watchdog; degrade;
    degraded = Hashtbl.create 4;
    hangs = [];
    insns = 0 }

let hangs t = List.rev t.hangs

(* -- Specialized-execution plumbing ---------------------------------- *)

let lpsu_cfg t =
  match t.cfg.Config.lpsu with Some l -> l | None -> assert false

(** Write the LPSU's architectural results back into the GPP register
    file: index, (possibly raised) bound, serial-final CIR values and MIV
    values — exactly the registers whose post-loop values the XLOOPS ISA
    defines. *)
let writeback t (info : Scan.t) (r : Lpsu.result) =
  Exec.set t.hart info.r_idx r.next_idx;
  Exec.set t.hart info.r_bound r.bound;
  List.iter (fun (reg, v) -> Exec.set t.hart reg v) r.cir_finals;
  List.iter (fun (reg, v) -> Exec.set t.hart reg v) r.miv_finals

(** Analyze the xloop at [pc] for specialization.  Each pc is scanned
    once ({!Scan.shape}) and resolved against the live registers per
    instance; failure reasons are cached so fallback loops do not
    re-scan on every back-edge. *)
let analyze t ~pc =
  match Hashtbl.find_opt t.scan_fail pc with
  | Some reason -> Error reason
  | None ->
    let scanned =
      match Hashtbl.find_opt t.scans pc with
      | Some sh -> Scan.resolve sh ~regs:t.hart.regs
      | None ->
        match Scan.shape t.prog ~xloop_pc:pc ~lpsu:(lpsu_cfg t) with
        | Ok sh ->
          Hashtbl.replace t.scans pc sh;
          Scan.resolve sh ~regs:t.hart.regs
        | Error _ as e -> e
    in
    (match scanned with
    | Ok info -> Ok info
    | Error reason ->
      Hashtbl.replace t.scan_fail pc reason;
      if not (Hashtbl.mem t.apt pc) then begin
        if Trace.enabled t.trace Decisions then
          Trace.event t.trace Decisions
            "xloop@%d falls back to traditional execution: %a" pc
            Scan.pp_fallback reason;
        t.stats.xloops_traditional <- t.stats.xloops_traditional + 1;
        Hashtbl.replace t.apt pc (decided false)
      end;
      Error reason)

(** Run the LPSU over (part of) the xloop described by [info], starting
    after a scan phase, and bring the GPP state up to date.  On [Ok] the
    LPSU's results are written back; on [Error] (hang) GPP state is left
    untouched except for the clock, which honestly pays for the cycles
    spent detecting the hang. *)
let run_lpsu ?stop_after t (info : Scan.t) =
  Gpp_timing.barrier t.timing;
  let scan = Gpp_timing.scan_cycles t.timing (lpsu_cfg t)
      ~body_insns:info.body_len in
  t.stats.scan_insns <- t.stats.scan_insns + info.body_len;
  t.stats.renames <- t.stats.renames + info.body_len;
  let start_cycle = Gpp_timing.now t.timing + scan in
  if Trace.enabled t.trace Decisions then
    Trace.event t.trace Decisions
      "[%7d] scan xloop@%d (%d instructions, %d scan cycles)"
      (Gpp_timing.now t.timing) info.Scan.xloop_pc info.body_len scan;
  let lpsu =
    match t.lpsu with
    | Some l -> l
    | None ->
      let l = Lpsu.create ~pre:t.pre ~mem:t.mem
          ~dcache:(Gpp_timing.l1d t.timing) ~cfg:t.cfg ~stats:t.stats
          ?trace:t.trace ?faults:t.faults () in
      t.lpsu <- Some l;
      l
  in
  match Lpsu.run lpsu ~info ~regs:t.hart.regs ~start_cycle ?stop_after
          ~watchdog:t.watchdog ~fuel:t.lpsu_fuel () with
  | Ok r ->
    writeback t info r;
    Gpp_timing.skip_to t.timing (start_cycle + r.cycles);
    Ok r
  | Error h ->
    Gpp_timing.skip_to t.timing h.Fault.h_cycle;
    Error h

(** Outcome of one attempt at specialized execution under the safety net. *)
type spec_outcome =
  | Completed of Lpsu.result
  | Degraded   (** rolled back; the GPP re-executes the loop traditionally *)

(** Pin [pc] to traditional execution for the rest of the run. *)
let mark_degraded t ~pc =
  Hashtbl.replace t.degraded pc ();
  Hashtbl.replace t.apt pc (decided false);
  t.stats.degradations <- t.stats.degradations + 1;
  t.stats.xloops_traditional <- t.stats.xloops_traditional + 1

(** Specialize under an architectural checkpoint: GPP registers are
    snapshotted and every memory write journalled for the duration of the
    LPSU run.  Three outcomes:

    - clean completion: commit the journal, keep the specialized result;
    - hang (watchdog, fuel, or a fault-provoked trap): roll everything
      back and degrade;
    - completion with faults injected mid-run: the result cannot be
      trusted (the corruption may be architecturally silent), so roll
      back and degrade just the same.

    Degrading restores the exact state at loop entry, so the GPP resumes
    at the body head and re-executes the loop with its traditional
    (conditional-branch) semantics — the program's final state is then
    bit-identical to a never-specialized run. *)
let try_specialize ?stop_after t (info : Scan.t) =
  let pc = info.Scan.xloop_pc in
  let snap_regs = Array.copy t.hart.regs in
  let snap_pc = t.hart.pc in
  let injected_before =
    match t.faults with Some p -> Fault.injected p | None -> 0 in
  Memory.journal_begin t.mem;
  let outcome =
    try run_lpsu ?stop_after t info
    with e ->
      (* e.g. Lane_trap from a malformed body with no fault plan active:
         don't leave the journal open behind the escaping exception. *)
      Memory.journal_abort t.mem;
      raise e
  in
  let injected =
    (match t.faults with Some p -> Fault.injected p | None -> 0)
    - injected_before
  in
  let rollback why =
    Memory.journal_abort t.mem;
    Array.blit snap_regs 0 t.hart.regs 0 (Array.length snap_regs);
    t.hart.pc <- snap_pc;
    mark_degraded t ~pc;
    if Trace.enabled t.trace Decisions then
      Trace.event t.trace Decisions
        "[%7d] xloop@%d: %s; rolled back, degrading to traditional"
        (Gpp_timing.now t.timing) pc why
  in
  match outcome with
  | Ok r when injected = 0 ->
    Memory.journal_commit t.mem;
    Completed r
  | Ok r when not t.degrade ->
    (* Safety net disabled: keep the possibly-corrupt result. *)
    Memory.journal_commit t.mem;
    Completed r
  | Ok _ ->
    rollback
      (Printf.sprintf "completed under %d injected fault(s)" injected);
    Degraded
  | Error h ->
    t.hangs <- h :: t.hangs;
    if t.degrade then begin
      rollback (Fmt.str "%a" Fault.pp_hang h);
      Degraded
    end else begin
      Memory.journal_abort t.mem;
      Array.blit snap_regs 0 t.hart.regs 0 (Array.length snap_regs);
      t.hart.pc <- snap_pc;
      raise (Stuck (Lpsu_hang h))
    end

let specialize_fully t (info : Scan.t) =
  match try_specialize t info with
  | Completed r ->
    assert r.finished;
    t.hart.pc <- info.xloop_pc + 1
  | Degraded -> ()   (* GPP resumes at the body head, traditionally *)

(* -- Adaptive execution ----------------------------------------------- *)

let adaptive_step t ~pc (ev : Exec.event) =
  let now = Gpp_timing.now t.timing in
  let entry =
    match Hashtbl.find_opt t.apt pc with
    | Some e -> e
    | None ->
      let e = Profiling { iters = 0; cycles = 0; last_taken = -1 } in
      Hashtbl.replace t.apt pc e;
      e
  in
  let reprofile_if_stale uses =
    (* Future-work extension (Section II-E): optionally reconsider a
       decision after it has served a number of dynamic loop instances. *)
    match t.adaptive.reconsider_after with
    | Some n when uses >= n ->
      if Trace.enabled t.trace Decisions then
        Trace.event t.trace Decisions
          "xloop@%d: decision stale after %d instances; re-profiling" pc
          uses;
      Hashtbl.replace t.apt pc
        (Profiling { iters = 0; cycles = 0; last_taken = -1 })
    | _ -> ()
  in
  match entry with
  | Decided ({ spec = false; _ } as d) ->
    (* A traditional instance completes when the xloop falls through. *)
    if not ev.taken then begin
      d.uses <- d.uses + 1;
      reprofile_if_stale d.uses
    end
  | Decided ({ spec = true; _ } as d) ->
    if ev.taken then begin
      (match analyze t ~pc with
       | Ok info -> specialize_fully t info
       | Error _ -> Hashtbl.replace t.apt pc (decided false));
      d.uses <- d.uses + 1;
      reprofile_if_stale d.uses
    end
  | Profiling p ->
    if not ev.taken then p.last_taken <- -1
    else begin
      if p.last_taken >= 0 then p.cycles <- p.cycles + (now - p.last_taken);
      p.last_taken <- now;
      p.iters <- p.iters + 1;
      if p.iters >= t.adaptive.profile_iters
      || p.cycles >= t.adaptive.profile_cycles then begin
        match analyze t ~pc with
        | Error _ -> Hashtbl.replace t.apt pc (decided false)
        | Ok info ->
          (* LPSU profiling phase: same number of iterations as measured
             traditionally. *)
          let budget = if p.iters > 1 then p.iters else 1 in
          if Trace.enabled t.trace Decisions then
            Trace.event t.trace Decisions
              "xloop@%d: GPP profile done (%d iters, %d cycles); trying \
               the LPSU" pc p.iters p.cycles;
          match try_specialize ~stop_after:budget t info with
          | Degraded -> ()   (* mark_degraded already decided false *)
          | Completed r ->
            let spec_faster =
              (* cycles-per-iteration comparison, cross-multiplied. *)
              r.iterations > 0
              && r.cycles * p.iters <= p.cycles * r.iterations
            in
            if r.finished then begin
              t.hart.pc <- info.xloop_pc + 1;
              Hashtbl.replace t.apt pc (decided spec_faster)
            end else if spec_faster then begin
              (* Stay on the LPSU for the rest of the loop. *)
              match try_specialize t info with
              | Degraded -> ()
              | Completed r2 ->
                assert r2.finished;
                t.hart.pc <- info.xloop_pc + 1;
                Hashtbl.replace t.apt pc (decided true)
            end else begin
              (* Migrate back: the GPP finishes the remaining iterations. *)
              if Trace.enabled t.trace Decisions then
                Trace.event t.trace Decisions
                  "xloop@%d: specialized slower (%d cyc / %d iters); \
                   migrating back to the GPP" pc r.cycles r.iterations;
              t.stats.migrations <- t.stats.migrations + 1;
              t.hart.pc <- info.body_start;
              Hashtbl.replace t.apt pc (decided false)
            end
      end
    end

(* -- Main loop --------------------------------------------------------- *)

(** Execute the program to completion ([Halt]).  [fuel] bounds the number
    of GPP-committed instructions; exhausting it — or an LPSU hang with
    degradation disabled — is reported as [Error], never raised. *)
let run ?(fuel = 500_000_000) t : (result, failure) Stdlib.result =
  let has_lpsu = Option.is_some t.cfg.Config.lpsu in
  try
    (try
       let steps = ref 0 in
       while true do
         if !steps > fuel then
           raise (Stuck (Out_of_fuel { pc = t.hart.pc; insns = !steps;
                                       cycle = Gpp_timing.now t.timing }));
         incr steps;
         Exec.step t.pre t.hart t.gpp_mem t.ev;
         let ev = t.ev in
         if t.trace != None && Trace.enabled t.trace Insns then
           Trace.event t.trace Insns "[%7d] gpp      %4d: %a"
             (Gpp_timing.now t.timing) ev.pc
             Xloops_isa.Insn.pp_resolved (Exec.event_insn ev);
         Gpp_timing.consume t.timing ev;
         (match t.prog.insns.(ev.pc) with
          | Xloop (_, _, _, _)
            when has_lpsu && not (Hashtbl.mem t.degraded ev.pc) ->
            if ev.taken then t.stats.iterations <- t.stats.iterations + 1;
            (match t.mode with
             | Traditional -> ()
             | Specialized ->
               if ev.taken then
                 (match analyze t ~pc:ev.pc with
                  | Ok info -> specialize_fully t info
                  | Error _ -> ())
             | Adaptive ->
               (* Both edges matter: taken drives profiling/decisions,
                  fall-through marks the end of a dynamic instance. *)
               adaptive_step t ~pc:ev.pc ev)
          | Xloop _ when ev.taken ->
            t.stats.iterations <- t.stats.iterations + 1
          | _ -> ())
       done
     with Exec.Halted -> ());
    Gpp_timing.barrier t.timing;
    Gpp_timing.fold_events t.timing;
    Ok { cycles = Gpp_timing.now t.timing;
         insns = t.stats.committed_insns;
         stats = t.stats }
  with Stuck f -> Gpp_timing.fold_events t.timing; Error f

let ok_exn = function
  | Ok r -> r
  | Error f -> failwith (Fmt.str "Machine.run: %a" pp_failure f)

(** One-call convenience: build a machine and run [prog] on [mem]. *)
let simulate ?adaptive ?lpsu_fuel ?trace ?faults ?watchdog ?degrade
    ?entry ?fuel ~cfg ~mode prog mem
  : (result, failure) Stdlib.result =
  let t = create ?adaptive ?lpsu_fuel ?trace ?faults ?watchdog ?degrade
      ~cfg ~mode ~prog ~mem ?entry () in
  run ?fuel t
