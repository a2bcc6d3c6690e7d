(* The traced engine: a replica of [Experiments.caching_engine] over a
   replica of [Run_spec.execute], built from the library layers' public
   functions so that each call can be wrapped in a span.  Cache keys and
   kernel digests are recomputed from the same pieces the library uses
   (canonical encoding, compiled program listing, MD5); [check_keys]
   proves them equal to [Run_spec.cache_key] and [Run_spec.kernel_digest]
   before any traced pass runs, so the traced engine reads and writes the
   very cache entries the real engine does.

   The replica mirrors the library's call structure as of this
   benchmark: if a later change restructures the engine (say, memoizes
   the compile inside [Run_spec.cache_key]), the end-to-end metrics show
   it and these spans do not, until the benchmark is updated.

   Also here: the replays of the functional core and the GPP timing
   models, and the allocation measurements. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Journal = Xloops.Journal
module Failure = Xloops.Failure
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel
module Compile = Xloops.Compiler.Compile
module Program = Xloops.Asm.Program
module Memory = Xloops.Mem.Memory
module Machine = Xloops.Sim.Machine
module Config = Xloops.Sim.Config
module Stats = Xloops.Sim.Stats
module Exec = Xloops.Sim.Exec
module Gpp_timing = Xloops.Sim.Gpp_timing
module Tier = Xloops.Sim.Tier
module Fault = Xloops.Sim.Fault
module Energy = Xloops.Energy.Model
module Digest_hex = Xloops.Digest_hex

let span = Spans.span

(* -- Replicated keys ----------------------------------------------------- *)

let compile ~target (k : Kernel.t) =
  span "compiler.compile" (fun () -> Compile.compile ~target k.kernel)

let cache_key (spec : Run_spec.t) =
  span "run_spec.cache_key" (fun () ->
      let c = compile ~target:spec.target (Registry.find spec.kernel) in
      Digest_hex.of_digest
        (Digest.string
           (Run_spec.encode spec
            ^ Digest.string (Program.to_string c.Compile.program))))

let kernel_digest (k : Kernel.t) =
  span "run_spec.kernel_digest" (fun () ->
      let listing target = Program.to_string (compile ~target k).program in
      Digest_hex.of_digest
        (Digest.string
           (k.name ^ "\x00" ^ listing Compile.general ^ "\x00"
            ^ listing Compile.xloops)))

(* Untimed: the replicated keys must be the library's keys. *)
let check_keys plan =
  List.for_all (fun s -> cache_key s = Run_spec.cache_key s) plan
  && List.for_all (fun k -> kernel_digest k = Run_spec.kernel_digest k)
    Registry.table2

(* -- Per-mode accounting of simulated work ------------------------------- *)

let mode_index = function
  | Machine.Traditional -> 0 | Specialized -> 1 | Adaptive -> 2

let sim_ns = Array.make 3 0            (* Machine.simulate time per mode *)
let sim_insns = Array.make 3 0         (* committed instructions per mode *)
let sim_lane_cycles = ref 0            (* lane cycles of S and A runs *)

let lane_cycles (s : Stats.t) =
  s.cyc_exec + s.cyc_stall_raw + s.cyc_stall_mem + s.cyc_stall_llfu
  + s.cyc_stall_cir + s.cyc_stall_lsq + s.cyc_squash + s.cyc_idle

let reset () =
  Spans.reset ();
  Array.fill sim_ns 0 3 0;
  Array.fill sim_insns 0 3 0;
  sim_lane_cycles := 0

(* -- Replicated execution ------------------------------------------------ *)

let fresh_memory (k : Kernel.t) (c : Compile.compiled) =
  let mem = Memory.create () in
  k.init c.array_base mem;
  mem

let execute (spec : Run_spec.t) : E.run_data =
  let t0 = Spans.now_ns () in
  let k = Registry.find spec.kernel in
  let c = compile ~target:spec.target k in
  let mem = span "mem.init" (fun () -> fresh_memory k c) in
  let faults =
    Option.map (fun (seed, events) -> Fault.plan ~seed ~events ())
      spec.fault_seed
  in
  let s0 = Spans.now_ns () in
  let sim =
    span "sim.machine" (fun () ->
        Machine.simulate ?faults ~watchdog:spec.watchdog
          ~degrade:spec.degrade ?fuel:spec.fuel ~cfg:spec.cfg
          ~mode:spec.mode c.program mem)
  in
  let m = mode_index spec.mode in
  sim_ns.(m) <- sim_ns.(m) + (Spans.now_ns () - s0);
  match sim with
  | Error f -> raise (Failure.Sim_failed f)
  | Ok r ->
    sim_insns.(m) <- sim_insns.(m) + r.insns;
    if spec.mode <> Machine.Traditional then
      sim_lane_cycles := !sim_lane_cycles + lane_cycles r.stats;
    (match span "kernels.check" (fun () -> k.check c.array_base mem) with
     | Error msg ->
       raise (Run_spec.Check_failed
                { kernel = spec.kernel; what = Run_spec.what spec; msg })
     | Ok () -> ());
    r.stats.wall_ns <- Spans.now_ns () - t0;
    { cfg = spec.cfg; mode = spec.mode; cycles = r.cycles; insns = r.insns;
      stats = r.stats; energy = Energy.of_stats spec.cfg r.stats }

(* [Experiments.compute_meta]: serial dynamic instruction counts on both
   ISAs plus the static xloop body sizes. *)
let compute_meta (k : Kernel.t) : E.kernel_meta =
  let dyn target =
    let c = compile ~target k in
    let mem = span "mem.init" (fun () -> fresh_memory k c) in
    match span "sim.exec" (fun () -> Tier.run_serial c.program mem) with
    | Ok r -> r.dynamic_insns
    | Error stop -> Fmt.failwith "%s: %a" k.name Exec.pp_stop stop
  in
  let gpi_dyn = dyn Compile.general in
  let xli_dyn = dyn Compile.xloops in
  let body_min, body_max =
    match
      Compile.xloop_bodies (compile ~target:Compile.xloops k).program
    with
    | [] -> (0, 0)
    | bodies ->
      let lens = List.map (fun (_, _, l) -> l) bodies in
      (List.fold_left min max_int lens, List.fold_left max 0 lens)
  in
  { gpi_dyn; xli_dyn; body_min; body_max }

(* [Experiments.caching_engine] over one cache, single-threaded (so
   without its mutex). *)
let engine cache : E.engine =
  let memo_runs = Hashtbl.create 256 and memo_meta = Hashtbl.create 64 in
  let run spec =
    span "experiments.run" (fun () ->
        let key = cache_key spec in
        match Hashtbl.find_opt memo_runs key with
        | Some rd -> rd
        | None ->
          let rd =
            match
              span "run_cache.find_run" (fun () ->
                  Run_cache.find_run cache ~key)
            with
            | Some (rd : E.run_data) -> rd.stats.cache_hits <- 1; rd
            | None ->
              let rd = execute spec in
              span "run_cache.store_run" (fun () ->
                  Run_cache.store_run cache ~key rd);
              rd.stats.cache_misses <- 1;
              rd
          in
          Hashtbl.replace memo_runs key rd;
          rd)
  in
  let meta k =
    span "experiments.meta" (fun () ->
        let key = kernel_digest k in
        match Hashtbl.find_opt memo_meta key with
        | Some m -> m
        | None ->
          let m =
            match
              span "run_cache.find_meta" (fun () ->
                  Run_cache.find_meta cache ~key)
            with
            | Some [| g; x; bmin; bmax |] ->
              { E.gpi_dyn = g; xli_dyn = x; body_min = bmin;
                body_max = bmax }
            | Some _ | None ->
              let m = compute_meta k in
              span "run_cache.store_meta" (fun () ->
                  Run_cache.store_meta cache ~key
                    [| m.gpi_dyn; m.xli_dyn; m.body_min; m.body_max |]);
              m
          in
          Hashtbl.replace memo_meta key m;
          m)
  in
  { run; meta }

(* [Experiments.sweep ~jobs:1]: every spec through the engine, each
   completion journaled.  Requests are numbered by plan position. *)
let sweep engine journal plan =
  let items =
    span "run_spec.digest" (fun () ->
        List.map (fun s -> (s, Run_spec.digest s)) plan) in
  List.mapi
    (fun i (spec, dg) ->
       let rd = Spans.in_request i (fun () -> engine.E.run spec) in
       span ~req:i "journal.record" (fun () -> Journal.record journal dg);
       (spec, rd))
    items

(* -- Replays of the functional core and the GPP timing models ------------ *)

(* One Traditional spec replayed outside the machine: [Exec.step] alone,
   or [Exec.step] feeding [Gpp_timing.consume].  Set-up happens here;
   the returned function runs the replay and counts instructions. *)
let replay ~consume (spec : Run_spec.t) (k : Kernel.t)
    (c : Compile.compiled) =
  let mem = fresh_memory k c in
  let pre = Program.predecode c.program in
  let hart = Exec.create_hart () in
  let mi = Exec.direct_mem mem in
  let ev = Exec.create_event () in
  let timing = Gpp_timing.create spec.cfg.gpp (Stats.create ()) in
  fun () ->
    let n = ref 0 in
    (try
       if consume then
         while true do
           Exec.step pre hart mi ev;
           Gpp_timing.consume timing ev;
           incr n
         done
       else
         while true do
           Exec.step pre hart mi ev;
           incr n
         done
     with Exec.Halted -> ());
    !n

type replay_totals = {
  mutable insns : int;
  mutable step_ns : int;
  mutable consume_ns : int;         (* step + consume *)
  mutable step_bytes : float;
  mutable consume_bytes : float;
}

let no_replay () =
  { insns = 0; step_ns = 0; consume_ns = 0; step_bytes = 0.;
    consume_bytes = 0. }

(* Bytes one call allocates: the call is measured on its own, with the
   minor heap emptied before it and again after it, so every byte it
   allocated has been counted (see README.md, "Allocation numbers"). *)
let allocated f =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  (r, Gc.allocated_bytes () -. a0)

let timed f =
  Gc.minor ();
  let t0 = Spans.now_ns () in
  let r = f () in
  (r, Spans.now_ns () - t0)

(* Replays the plan's Traditional specs, grouped by GPP kind: in-order
   ([io]) and out-of-order ([ooo]). *)
let replay_gpp plan =
  let io = no_replay () and ooo = no_replay () in
  List.iter
    (fun (spec : Run_spec.t) ->
       if spec.mode = Machine.Traditional then begin
         let k = Registry.find spec.kernel in
         let c = Compile.compile ~target:spec.target k.kernel in
         let t =
           match spec.cfg.gpp.kind with
           | Config.Inorder -> io
           | Config.Ooo _ -> ooo
         in
         let run consume = replay ~consume spec k c in
         let n, step_ns = timed (run false) in
         let _, consume_ns = timed (run true) in
         let _, sb = allocated (run false) in
         let _, cb = allocated (run true) in
         t.insns <- t.insns + n;
         t.step_ns <- t.step_ns + step_ns;
         t.consume_ns <- t.consume_ns + consume_ns;
         t.step_bytes <- t.step_bytes +. sb;
         t.consume_bytes <- t.consume_bytes +. cb
       end)
    plan;
  (io, ooo)

(* Allocation of memory initialisation (per spec) and of
   [Machine.simulate] (per committed instruction), one call at a time. *)
let alloc_machine plan =
  let mem_bytes = ref 0. and sim_bytes = ref 0. and insns = ref 0 in
  List.iter
    (fun (spec : Run_spec.t) ->
       let k = Registry.find spec.kernel in
       let c = Compile.compile ~target:spec.target k.kernel in
       let mem, mb = allocated (fun () -> fresh_memory k c) in
       let r, sb =
         allocated (fun () ->
             Machine.simulate ~watchdog:spec.watchdog ~degrade:spec.degrade
               ?fuel:spec.fuel ~cfg:spec.cfg ~mode:spec.mode c.program mem)
       in
       mem_bytes := !mem_bytes +. mb;
       sim_bytes := !sim_bytes +. sb;
       insns := !insns + (Machine.ok_exn r).insns)
    plan;
  (!mem_bytes /. float_of_int (List.length plan),
   !sim_bytes /. float_of_int !insns)
