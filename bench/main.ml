(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections IV and V) from the simulator.

   Usage:
     dune exec bench/main.exe                 # the default sections
     dune exec bench/main.exe -- --table2     # a single experiment
     dune exec bench/main.exe -- --quick      # Table II on 6 kernels
     dune exec bench/main.exe -- --quick --jobs 4   # parallel sweep
     dune exec bench/main.exe -- --no-cache   # ignore _xloops_cache/
     dune exec bench/main.exe -- --help       # flags and exit codes

   With no section flag, every section but --ablation and --csv prints.
   A usage error (unknown flag, bad value) exits 124 before anything runs.

   The sweep is planned as a list of pure run specs, executed by a
   Domain worker pool (--jobs N, or $XLOOPS_JOBS), and every result is
   memoized through the content-addressed on-disk cache (--cache-dir,
   default _xloops_cache/; --no-cache disables it).  Tables and figures
   are assembled serially from the warmed engine, so stdout is
   byte-identical whatever the job count; pool and cache diagnostics go
   to stderr.

   The sweep itself is fault-tolerant: a crashing or deadline-blowing
   spec becomes a reported per-item failure (--max-retries,
   --deadline-ms), completed specs are journaled as they finish so
   a killed sweep restarts from where it left off (--resume), corrupt
   cache blobs are checksummed, quarantined and re-simulated, and a
   seeded chaos plan (--chaos-seed N, --chaos-events N, --chaos-abort)
   injects cache corruption, worker stalls/crashes and mid-sweep aborts
   to prove all of the above — under any of which stdout must remain
   byte-identical.

   With --server ADDR the warm phase runs through a persistent
   xloops_serve daemon instead of the in-process pool: specs cross the
   wire in their canonical encoding, the daemon schedules them across
   its own workers and cache, and results stream back.  Stdout stays
   byte-identical to the in-process sweep; a daemon kill/restart
   mid-plan costs only reconnection and the re-simulation its cache
   doesn't absorb.  The engine, chaos and address flags are the Cmdliner
   terms Cli_common defines once for every xloops_* tool.

   Shapes to look for (paper vs this reproduction is recorded in
   EXPERIMENTS.md):
   - Table II: uc kernels gain >=2.5x specialized on io; long-critical-path
     or kernels lose to the out-of-order hosts; om/ua kernels are limited
     by LSQ hazards and squashes (ksack-sm squashes far more than
     ksack-lg); uc.db kernels beat both OOO widths; adaptive tracks
     max(T, S).
   - Figure 9: multithreading helps sgemm; more lanes help bandwidth-bound
     kernels; covar-or is immune to everything (critical path).
   - Table V: ~40% area overhead at 4 lanes, roughly linear in lanes. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Pool = Xloops.Pool
module Failure = Xloops.Failure
module Journal = Xloops.Journal
module Chaos = Xloops.Chaos
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel

(* One engine for the whole invocation: in-memory memoization over the
   shared on-disk result cache.  (This replaces the old private
   [Hashtbl] memo of whole evals — a second caching layer here would
   mask staleness bugs in the shared one.) *)
let engine = ref E.direct_engine

let evaluate (k : Kernel.t) = E.evaluate ~engine:!engine k

let section title =
  Fmt.pr "@.=== %s ===@.@." title

let table2 ks =
  section "Table II: application kernels and cycle-level results";
  Fmt.pr "%a" E.pp_table2_header ();
  List.iter
    (fun k -> Fmt.pr "%a" E.pp_table2_row (E.table2_row (evaluate k)))
    ks

let fig5 ks =
  section "Figure 5: speedup summary (normalized to serial on io)";
  Fmt.pr "%-14s %8s %8s %8s %8s@." "kernel" "io" "ooo2" "ooo4" "ooo2+x:S";
  List.iter
    (fun k ->
       let ev = evaluate k in
       let io = (E.host ev "io").base.cycles in
       let rel (r : E.run_data) = float_of_int io /. float_of_int r.cycles in
       Fmt.pr "%-14s %8.2f %8.2f %8.2f %8.2f@." k.Kernel.name
         1.0
         (rel (E.host ev "ooo/2").base)
         (rel (E.host ev "ooo/4").base)
         (rel (E.host ev "ooo/2").spec))
    ks

let fig6 ks =
  section "Figure 6: LPSU lane-cycle breakdown (specialized on io+x)";
  Fmt.pr "%a" E.pp_fig6
    (List.map (fun k -> E.fig6_row (evaluate k)) ks)

let fig7 ks =
  section "Figure 7: specialized vs adaptive on ooo/4+x";
  Fmt.pr "%-14s %8s %8s@." "kernel" "S" "A";
  List.iter
    (fun k ->
       let ev = evaluate k in
       let h = E.host ev "ooo/4" in
       Fmt.pr "%-14s %8.2f %8.2f@." k.Kernel.name
         (E.speedup h h.spec) (E.speedup h h.adapt))
    ks

let fig8 ks =
  section "Figure 8: energy efficiency vs performance (S and A per host)";
  Fmt.pr "%a" E.pp_fig8
    (List.concat_map (fun k -> E.fig8_points (evaluate k))
       ks)

let fig9 _ =
  section "Figure 9: LPSU design-space exploration (vs serial on ooo/4)";
  Fmt.pr "%a" E.pp_fig9 (E.fig9 ~engine:!engine ())

let table4 _ =
  section "Table IV: case studies (hand-scheduled or / transformed uc)";
  Fmt.pr "%a" E.pp_table4 (E.table4 ~engine:!engine ())

let table5 _ =
  section "Table V: VLSI area and cycle time";
  Fmt.pr "%a" Xloops.Vlsi.Area.pp_table_v (Xloops.Vlsi.Area.table_v ())

let fig10 _ =
  section "Figure 10: VLSI-mode energy efficiency vs performance \
           (uc kernels, no .xi, uc-only LPSU on io)";
  Fmt.pr "%a" E.pp_fig10 (E.fig10 ~engine:!engine ())

(* -- Ablations ---------------------------------------------------------- *)

(* Ablation studies for the internal design decisions DESIGN.md calls
   out: inter-lane store-to-load forwarding (the paper's "more aggressive
   implementation" sketch), scan-phase cost, squash penalty, and the
   out-of-order window of the baseline model. *)

let spec_run name cfg =
  !engine.E.run
    (Run_spec.make ~cfg ~mode:Xloops.Sim.Machine.Specialized name)

let ablation _ =
  section "Ablation: inter-lane store-to-load forwarding";
  Fmt.pr "%-14s %22s %26s@." "kernel" "baseline (cyc/viol)"
    "forwarding (cyc/viol/fwd)";
  List.iter
    (fun name ->
       let b = spec_run name Xloops.Sim.Config.io_x in
       let f = spec_run name Xloops.Sim.Config.io_x_fwd in
       Fmt.pr "%-14s %12d /%5d %14d /%5d /%4d@." name
         b.E.cycles b.E.stats.violations
         f.E.cycles f.E.stats.violations f.E.stats.lsq_forwards)
    [ "war-om"; "dynprog-om"; "ksack-sm-om"; "hsort-ua"; "rsort-ua" ];
  Fmt.pr "@.(forwarding confirms conflicting loads on war-om but amplifies@.squash cascades on tight chains like dynprog)@.";

  section "Ablation: scan-phase cost (cycles per scanned instruction)";
  Fmt.pr "%-14s" "kernel";
  List.iter (fun c -> Fmt.pr " %8s" (Printf.sprintf "scan=%d" c))
    [ 0; 1; 2; 4 ];
  Fmt.pr "@.";
  List.iter
    (fun name ->
       Fmt.pr "%-14s" name;
       List.iter
         (fun per ->
            let cfg = Xloops.Sim.Config.with_lpsu Xloops.Sim.Config.io
                (Printf.sprintf "+scan%d" per)
                ~lpsu:{ Xloops.Sim.Config.default_lpsu
                        with scan_per_insn = per } in
            Fmt.pr " %8d" (spec_run name cfg).E.cycles)
         [ 0; 1; 2; 4 ];
       Fmt.pr "@.")
    [ "symm-or"; "covar-or"; "war-uc" ];
  Fmt.pr "@.(kernels that re-specialize small inner loops are the ones@.sensitive to scan cost)@.";

  section "Ablation: squash penalty";
  Fmt.pr "%-14s" "kernel";
  List.iter (fun c -> Fmt.pr " %8s" (Printf.sprintf "sq=%d" c))
    [ 0; 2; 8; 16 ];
  Fmt.pr "@.";
  List.iter
    (fun name ->
       Fmt.pr "%-14s" name;
       List.iter
         (fun pen ->
            let cfg = Xloops.Sim.Config.with_lpsu Xloops.Sim.Config.io
                (Printf.sprintf "+sq%d" pen)
                ~lpsu:{ Xloops.Sim.Config.default_lpsu
                        with squash_penalty = pen } in
            Fmt.pr " %8d" (spec_run name cfg).E.cycles)
         [ 0; 2; 8; 16 ];
       Fmt.pr "@.")
    [ "ksack-sm-om"; "ksack-lg-om"; "hsort-ua" ];

  section "Ablation: dataset vs L1 capacity (element-wise compute)";
  (* The paper tailors datasets to fit the 16 KB L1 (Section V-A).
     Sweeping past that point shows what changes: with an L1-resident
     working set the lanes' win comes from overlapping the per-element
     compute (bounded by the shared port); once the data spills, misses
     block each lane and hold the single port, so throughput degrades for
     both machines — but the lanes still hide the in-order core's
     serialization of compute behind memory, so a win remains.  Absolute
     cycles grow ~5x either way, which is the comparison the paper's
     dataset sizing avoids contaminating Table II with. *)
  Fmt.pr "%-12s %12s %12s %10s@." "working set" "io (cyc)" "io+x (cyc)"
    "speedup";
  List.iter
    (fun n ->
       let kernel : Xloops.Compiler.Ast.kernel =
         let open Xloops.Compiler.Ast.Syntax in
         let x = "sa".%[v "j"] + "sb".%[v "j"] in
         let x = (x * i 3) lxor (x asr i 2) in
         let x = (x + (x lsr i 3)) land i 0xFFFFF in
         { k_name = "stream";
           arrays = [ { a_name = "sa"; a_ty = I32; a_len = n };
                      { a_name = "sb"; a_ty = I32; a_len = n };
                      { a_name = "sc"; a_ty = I32; a_len = n } ];
           consts = [ ("n", n) ];
           k_body =
             [ Xloops.Compiler.Ast.for_ ~pragma:Unordered "j" (i 0)
                 (v "n")
                 [ Xloops.Compiler.Ast.Store ("sc", v "j", x) ] ] }
       in
       let run cfg mode =
         let c = Xloops.Compiler.Compile.compile kernel in
         let mem = Xloops.Mem.Memory.create ~size:(1 lsl 21) () in
         (Xloops.Sim.Machine.ok_exn
            (Xloops.Sim.Machine.simulate ~cfg ~mode c.program mem))
           .Xloops.Sim.Machine.cycles
       in
       let t = run Xloops.Sim.Config.io Xloops.Sim.Machine.Traditional in
       let sp = run Xloops.Sim.Config.io_x Xloops.Sim.Machine.Specialized in
       Fmt.pr "%8d KB %12d %12d %10.2f@." (n * 12 / 1024) t sp
         (float_of_int t /. float_of_int sp))
    [ 256; 1024; 4096; 16384 ];

  section "Ablation: superscalar (dual-issue) lanes";
  (* The paper's future-work lane microarchitecture: the or kernels are
     "limited by the inter-iteration critical path", so extra
     intra-iteration issue bandwidth is where their headroom is. *)
  Fmt.pr "%-14s %12s %12s %10s@." "kernel" "1-wide (cyc)" "2-wide (cyc)"
    "gain";
  List.iter
    (fun name ->
       let b = spec_run name Xloops.Sim.Config.io_x in
       let w2 = spec_run name Xloops.Sim.Config.io_x_ss2 in
       Fmt.pr "%-14s %12d %12d %9.0f%%@." name b.E.cycles w2.E.cycles
         (100.0 *. (float_of_int b.E.cycles /. float_of_int w2.E.cycles
                    -. 1.0)))
    [ "covar-or"; "adpcm-or"; "sha-or"; "sgemm-uc"; "war-uc"; "kmeans-or" ];

  section "Ablation: out-of-order window (ooo/4 host, serial sgemm)";
  let k = Registry.find "sgemm-uc" in
  List.iter
    (fun window ->
       let cfg = { Xloops.Sim.Config.ooo4 with
                   name = Printf.sprintf "ooo/4/w%d" window;
                   gpp = { Xloops.Sim.Config.ooo4.gpp with
                           kind = Ooo { width = 4; window } } } in
       let r = E.run_checked ~target:Xloops.Compiler.Compile.general
           ~cfg ~mode:Xloops.Sim.Machine.Traditional k in
       Fmt.pr "window %3d: %8d cycles@." window r.E.cycles)
    [ 8; 16; 32; 64; 128 ]

(* -- CSV export ---------------------------------------------------------- *)

(* Machine-readable results for plotting: --csv writes results/*.csv with
   the Table II matrix and the Figure 8 scatter. *)

let csv ks =
  let dir = "results" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name header rows =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc (header ^ "\n");
    List.iter (fun r -> output_string oc (r ^ "\n")) rows;
    close_out oc;
    Fmt.pr "wrote %s (%d rows)@." path (List.length rows)
  in
  let evals = List.map (fun k -> evaluate k) ks in
  write "table2.csv"
    "kernel,suite,type,body_min,body_max,gpi_dyn,xg,host,T,S,A"
    (List.concat_map
       (fun ev ->
          let row = E.table2_row ev in
          List.map
            (fun (host, (t, s, a)) ->
               Printf.sprintf "%s,%s,%s,%d,%d,%d,%.4f,%s,%.4f,%.4f,%.4f"
                 row.E.t2_name row.t2_suite row.t2_type (fst row.t2_body)
                 (snd row.t2_body) row.t2_gpi row.t2_xg host t s a)
            row.t2_speedups)
       evals);
  write "fig8.csv" "kernel,host,mode,speedup,energy_eff,rel_power"
    (List.concat_map
       (fun ev ->
          List.map
            (fun p ->
               Printf.sprintf "%s,%s,%s,%.4f,%.4f,%.4f" p.E.f8_kernel
                 p.f8_host p.f8_mode p.f8_speedup p.f8_energy_eff
                 p.f8_rel_power)
            (E.fig8_points ev))
       evals);
  write "fig6.csv"
    ("kernel," ^ String.concat ","
       (List.map fst (snd (E.fig6_row (List.hd evals)))))
    (List.map
       (fun ev ->
          let name, cats = E.fig6_row ev in
          name ^ ","
          ^ String.concat ","
            (List.map (fun (_, f) -> Printf.sprintf "%.4f" f) cats))
       evals)

(* -- Extensions ---------------------------------------------------------- *)

let extensions _ =
  section "Extension: data-dependent exit (xloop.uc.de, paper future work)";
  Fmt.pr "%-28s %10s %12s@." "run" "cycles" "squashed";
  List.iter
    (fun (label, spec) ->
       let r = !engine.E.run spec in
       Fmt.pr "%-28s %10d %12d@." label r.E.cycles
         r.E.stats.squashed_insns)
    E.extension_runs;
  Fmt.pr "@.(iterations past the exit run control-speculatively on the lanes@.and are discarded — the squashed-instruction column)@."

(* -- Sections ------------------------------------------------------------ *)

(* What a section needs simulated before it prints: the per-kernel
   evaluations, specs of its own, or nothing (it simulates as it
   prints). *)
type needs = Evals | Specs of (unit -> Run_spec.t list) | On_demand

type section = {
  flag : string;
  default : bool;                  (* printed when no section is named *)
  needs : needs;
  doc : string;
  print : Kernel.t list -> unit;   (* given the Table II kernel set *)
}

(* Every section, in print order.  The warm-phase plan is derived from
   the selected entries, so what is simulated and what prints cannot
   drift apart. *)
let sections =
  let s ?(default = true) flag needs doc print =
    { flag; default; needs; doc; print } in
  [ s "table2" Evals "Table II: application kernels and cycle-level \
                      results." table2;
    s "fig5" Evals "Figure 5: speedup summary." fig5;
    s "fig6" Evals "Figure 6: LPSU lane-cycle breakdown." fig6;
    s "fig7" Evals "Figure 7: specialized vs adaptive on ooo/4+x." fig7;
    s "fig8" Evals "Figure 8: energy efficiency vs performance." fig8;
    s "fig9" (Specs E.fig9_specs)
      "Figure 9: LPSU design-space exploration." fig9;
    s "table4" (Specs E.table4_specs) "Table IV: case studies." table4;
    s "table5" On_demand "Table V: VLSI area and cycle time." table5;
    s "fig10" (Specs E.fig10_specs)
      "Figure 10: VLSI-mode energy efficiency vs performance." fig10;
    s ~default:false "ablation" On_demand
      "Ablations of internal design decisions (not in the default set)."
      ablation;
    s ~default:false "csv" Evals
      "Write results/*.csv for plotting (not in the default set)." csv;
    s "extensions" (Specs (fun () -> List.map snd E.extension_runs))
      "Implemented future work: data-dependent exits." extensions ]

(* The per-kernel evaluations first (every section that reads them
   shares them), then each selected section's own specs in order;
   deduped by digest. *)
let plan_of ks selected =
  let evals = List.exists (fun s -> s.needs = Evals) selected in
  (if evals then List.concat_map E.specs_for ks else [])
  @ List.concat_map
    (fun s -> match s.needs with Specs f -> f () | _ -> []) selected
  |> E.dedupe_specs

(* -- Driver ------------------------------------------------------------ *)

(* The orchestration knobs (--journal, --resume, the --chaos flags,
   --server) and the engine flags only affect how the sweep executes
   and what goes to stderr — stdout stays byte-identical whatever the
   combination, which is what CI diffs. *)
let bench quick named (eng : Cli_common.engine_args) journal_path resume
    chaos_seed chaos_events chaos_abort server =
  Cli_common.guarded @@ fun () ->
  let selected =
    List.filter
      (fun s -> if named = [] then s.default else List.memq s named)
      sections
  in
  let ks =
    if quick then List.map Registry.find E.quick_kernels
    else Registry.table2
  in
  let jobs = eng.ea_jobs in
  let chaos =
    Cli_common.chaos_of ~abort:chaos_abort ~seed:chaos_seed
      ~events:chaos_events ()
  in
  (* Startup hygiene (tmp reap, over-limit reap) lives in the one cache
     constructor the CLIs share. *)
  let cache = Cli_common.cache_of_engine ?chaos ~tag:"cache" eng in
  let journal =
    match journal_path, eng.ea_cache_dir with
    | Some p, _ -> Some (Journal.start ~resume p)
    | None, Some dir ->
      Some (Journal.start ~resume (Filename.concat dir Journal.default_name))
    | None, None -> None
  in
  (* A resumed sweep skips journaled specs, and table assembly reads
     their results back from a cache: the local one, or the daemon's. *)
  if resume && cache = None && (server = None || journal = None) then
    Fmt.epr "bench: --resume without a cache has no results to resume \
             from; every spec is run again@.";
  (* In server mode the remote engine memoizes results fetched from the
     daemon and computes kernel metadata locally; otherwise the usual
     in-process memoizing/caching engine. *)
  let remote_warm =
    match server with
    | None -> engine := E.caching_engine ?cache (); None
    | Some addr ->
      let eng', warm =
        Xloops_service.Client.engine ?cache
          ?deadline_ms:eng.ea_deadline_ms ~max_retries:eng.ea_max_retries
          addr
      in
      engine := eng';
      Some warm
  in
  let t0 = Unix.gettimeofday () in
  (* Plan the sweep: one pure run spec per needed simulation, deduped by
     digest, then executed by the worker pool so the assembly passes
     below only ever hit the warmed engine. *)
  let plan = plan_of ks selected in
  let failed n =
    Fmt.epr "bench: %d of %d spec(s) failed; tables not assembled@." n
      (List.length plan);
    1
  in
  (* Warm phase: execute the plan under the fault-tolerance stack.  A
     failing or timed-out spec is a per-item failure (reported here),
     not a crashed sweep; journaled specs from an interrupted run are
     skipped and served from the cache during assembly. *)
  let status =
    match remote_warm with
    | _ when plan = [] -> 0
    | Some warm ->
      (* Server mode: the daemon schedules the plan across its own
         workers and cache.  Journaled specs are not resubmitted; table
         assembly fetches them on demand and the daemon's cache makes
         that instant. *)
      let todo =
        match journal with
        | None -> plan
        | Some j ->
          List.filter
            (fun s -> not (Journal.member j (Run_spec.digest s)))
            plan
      in
      let skipped = List.length plan - List.length todo in
      if skipped > 0 then
        Fmt.epr "[sweep] resumed: %d of %d spec(s) already journaled@."
          skipped (List.length plan);
      Fmt.epr "[serve] warming %d spec(s) via %a@." (List.length todo)
        Cli_common.pp_addr (Option.get server);
      let failures = warm todo in
      Option.iter
        (fun j ->
           let failed = List.map (fun (s, _) -> Run_spec.digest s)
               failures in
           List.iter
             (fun s ->
                let d = Run_spec.digest s in
                if not (List.mem d failed) then Journal.record j d)
             todo)
        journal;
      List.iter
        (fun (s, e) ->
           Fmt.epr "[sweep] FAILED %s: %a@." (Run_spec.what s)
             Xloops_service.Protocol.pp_error e)
        failures;
      if failures = [] then 0 else failed (List.length failures)
    | None ->
      if jobs > 1 then
        Fmt.epr "[pool] %d-run plan on %d domains (%d cores available)@."
          (List.length plan) jobs (Pool.available_cores ());
      let policy =
        { Pool.default_policy with
          deadline_ms = eng.ea_deadline_ms;
          max_retries = eng.ea_max_retries;
          backoff_seed = Option.value chaos_seed ~default:0 }
      in
      match E.sweep ~jobs ~policy ?journal ?chaos !engine plan with
      | exception Failure.Abort msg ->
        (* The journal already holds every completed spec (each written
           before it counted as done), so a rerun with --resume picks up
           exactly where this died. *)
        Option.iter
          (fun j -> Fmt.epr "[journal] %a@." Journal.pp_counters j) journal;
        Fmt.epr "bench: sweep aborted: %s (rerun with --resume)@." msg;
        3
      | report ->
        if report.E.sr_skipped > 0 then
          Fmt.epr "[sweep] resumed: %d of %d spec(s) already journaled@."
            report.E.sr_skipped (List.length plan);
        Option.iter
          (fun c -> Fmt.epr "[chaos] %d event(s) injected@."
              (Chaos.injected_count c))
          chaos;
        List.iter
          (fun f -> Fmt.epr "[sweep] FAILED %a@." E.pp_sweep_failure f)
          report.E.sr_failures;
        if report.E.sr_failures = [] then 0
        else failed (List.length report.E.sr_failures)
  in
  if status <> 0 then status
  else begin
    List.iter (fun s -> s.print ks) selected;
    Option.iter
      (fun c -> Fmt.epr "[cache] %a@." Run_cache.pp_counters c) cache;
    Option.iter
      (fun j -> Fmt.epr "[journal] %a@." Journal.pp_counters j;
        Journal.close j)
      journal;
    Fmt.epr "[bench completed in %.1f s, jobs=%d]@."
      (Unix.gettimeofday () -. t0) jobs;
    0
  end

open Cmdliner

let cmd =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  let opt c name docv doc =
    Arg.(value & opt (some c) None & info [ name ] ~docv ~doc) in
  let exits =
    Cmd.Exit.info 1 ~doc:"when a spec of the plan failed."
    :: Cmd.Exit.info 3 ~doc:"when the sweep aborted (rerun with --resume)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"regenerate the paper's tables and figures" ~exits)
    Term.(const bench
          $ flag "quick" "Run the Table II sections (Table II, Figures \
                          5-8, --csv) on the six quick kernels only."
          $ Arg.(value & vflag_all []
                 & List.map (fun s -> (s, info [ s.flag ] ~doc:s.doc))
                   sections)
          $ Cli_common.engine_term ~pool:true ~max_retries:2 ()
          $ opt Arg.string "journal" "PATH"
            "Sweep journal path (default: sweep.journal in the cache \
             directory)."
          $ flag "resume"
            "Skip the specs a previous, interrupted sweep journaled."
          $ Cli_common.chaos_seed_arg $ Cli_common.chaos_events_arg
          $ flag "chaos-abort"
            "Add mid-sweep aborts to the --chaos-seed plan (exit 3)."
          $ opt Cli_common.addr_conv "server" "ADDR"
            "Warm the plan through the xloops_serve daemon at $(docv) \
             instead of the in-process pool.")

let () = exit (Cmd.eval' cmd)
