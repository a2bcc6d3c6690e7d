(* Golden per-spec results, re-simulated and compared counter by
   counter against committed files:

   - [golden/quick_stats.txt]: every spec of the quick sweep;
   - [golden/fault_stats.txt]: every registry kernel on io+x and
     ooo/4+x, specialized and adaptive, under fault seeds 1, 2 and 5 —
     the specs [xloops_run --fault-seed] builds.  Each line also names
     the run's failure, if any, and every LPSU hang (resource, cycle,
     committed iterations), degraded ones included.

   A line holds the spec digest, kernel, configuration and mode, then
   [cycles], [insns] and 45 of the 48 [Stats] counters as [name=value].
   The three left out ([wall_ns], [cache_hits], [cache_misses]) describe
   how a result was obtained, not what was simulated.

   A change that moves a simulated number on purpose regenerates the
   files: on a mismatch the test writes the recomputed lines to
   [quick_stats.actual] or [fault_stats.actual] in its working
   directory ([_build/default/test/]); copy that over the golden file
   and explain the delta in CHANGES.md. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Stats = Xloops.Sim.Stats
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine
module Fault = Xloops.Sim.Fault

let counters (s : Stats.t) =
  [ ("committed_insns", s.committed_insns);
    ("squashed_insns", s.squashed_insns);
    ("iterations", s.iterations);
    ("icache_fetches", s.icache_fetches);
    ("ib_fetches", s.ib_fetches);
    ("decodes", s.decodes);
    ("renames", s.renames);
    ("rob_ops", s.rob_ops);
    ("iq_ops", s.iq_ops);
    ("rf_reads", s.rf_reads);
    ("rf_writes", s.rf_writes);
    ("alu_ops", s.alu_ops);
    ("mul_ops", s.mul_ops);
    ("div_ops", s.div_ops);
    ("fpu_ops", s.fpu_ops);
    ("xi_ops", s.xi_ops);
    ("branches", s.branches);
    ("mispredicts", s.mispredicts);
    ("dcache_accesses", s.dcache_accesses);
    ("dcache_misses", s.dcache_misses);
    ("icache_misses", s.icache_misses);
    ("amo_ops", s.amo_ops);
    ("lsq_searches", s.lsq_searches);
    ("lsq_writes", s.lsq_writes);
    ("store_broadcasts", s.store_broadcasts);
    ("lsq_forwards", s.lsq_forwards);
    ("violations", s.violations);
    ("scan_insns", s.scan_insns);
    ("cib_reads", s.cib_reads);
    ("cib_writes", s.cib_writes);
    ("idq_ops", s.idq_ops);
    ("xloops_specialized", s.xloops_specialized);
    ("xloops_traditional", s.xloops_traditional);
    ("migrations", s.migrations);
    ("faults_injected", s.faults_injected);
    ("watchdog_hangs", s.watchdog_hangs);
    ("degradations", s.degradations);
    ("cyc_exec", s.cyc_exec);
    ("cyc_stall_raw", s.cyc_stall_raw);
    ("cyc_stall_mem", s.cyc_stall_mem);
    ("cyc_stall_llfu", s.cyc_stall_llfu);
    ("cyc_stall_cir", s.cyc_stall_cir);
    ("cyc_stall_lsq", s.cyc_stall_lsq);
    ("cyc_squash", s.cyc_squash);
    ("cyc_idle", s.cyc_idle) ]

let fields ~cycles ~insns stats =
  List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
    (("cycles", cycles) :: ("insns", insns) :: counters stats)

let head (spec : Run_spec.t) =
  [ Xloops.Digest_hex.to_hex (Run_spec.digest spec); spec.kernel;
    Run_spec.what spec ]

let line (spec : Run_spec.t) =
  let r = Run_spec.execute spec in
  String.concat " " (head spec @ fields ~cycles:r.cycles ~insns:r.insns
                                   r.stats)

(* The specs [xloops_run -c CFG -m MODE --fault-seed SEED] builds: its
   default fuel, watchdog, fault-event count and safety net. *)
let fault_plan () =
  List.concat_map
    (fun (k : Xloops.Kernels.Kernel.t) ->
       List.concat_map
         (fun cfg ->
            List.concat_map
              (fun seed ->
                 List.map
                   (fun mode ->
                      Run_spec.make ~fuel:500_000_000 ~watchdog:50_000
                        ~fault_seed:(seed, 12) ~degrade:true ~cfg ~mode
                        k.name)
                   [ Machine.Specialized; Machine.Adaptive ])
              [ 1; 2; 5 ])
         [ Config.io_x; Config.ooo4_x ])
    Xloops.Kernels.Registry.all

let hang_field (h : Fault.hang) =
  Printf.sprintf "%s@%d/%d"
    (String.map (function ' ' -> '-' | c -> c)
       (Fault.resource_name h.h_resource))
    h.h_cycle h.h_committed

(* [Run_spec.run_result] is the run [Run_spec.execute] checks and
   distills; it also hands back the hang list. *)
let fault_line (spec : Run_spec.t) =
  let seed = match spec.fault_seed with
    | Some (s, _) -> s | None -> assert false in
  let outcome =
    match Run_spec.run_result spec with
    | Error (Machine.Out_of_fuel _) -> [ "failure=fuel" ]
    | Error (Machine.Lpsu_hang h) -> [ "failure=hang:" ^ hang_field h ]
    | Ok r ->
      let res = r.result in
      (match r.check_result with
       | Ok () -> "failure=none"
       | Error _ -> "failure=check")
      :: ("hangs="
          ^ (match r.hangs with
              | [] -> "-"
              | hs -> String.concat "," (List.map hang_field hs)))
      :: fields ~cycles:res.cycles ~insns:res.insns res.stats
  in
  String.concat " " (head spec @ (Printf.sprintf "seed=%d" seed :: outcome))

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* The first field that differs between two lines, as a message. *)
let first_difference expected got =
  let fields l = String.split_on_char ' ' l in
  let rec go = function
    | e :: es, g :: gs -> if e = g then go (es, gs) else Some (e, g)
    | e :: _, [] -> Some (e, "<missing>")
    | [], g :: _ -> Some ("<missing>", g)
    | [], [] -> None
  in
  go (fields expected, fields got)

let compare_golden ~golden ~actual got =
  let expected = read_lines golden in
  if got <> expected then begin
    Out_channel.with_open_text actual (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) got);
    let rec find i = function
      | e :: es, g :: gs ->
        if e = g then find (i + 1) (es, gs)
        else
          let spec = String.concat " " (List.filteri (fun j _ -> j < 3)
                                          (String.split_on_char ' ' g)) in
          (match first_difference e g with
           | Some (ef, gf) ->
             Alcotest.failf "spec %d (%s): golden %s, got %s; recomputed \
                             file written to %s" i spec ef gf actual
           | None -> assert false)
      | _ ->
        Alcotest.failf "golden has %d spec(s), the plan %d; \
                        recomputed file written to %s"
          (List.length expected) (List.length got) actual
    in
    find 0 (expected, got)
  end

(* Each spec is self-contained, so the sweeps run on every core; the
   pool keeps the plan's order, so the lines compare as in a serial run. *)
let sweep f specs =
  Xloops.Pool.map ~jobs:(Xloops.Pool.available_cores ()) f specs

let test_quick_stats () =
  compare_golden ~golden:"golden/quick_stats.txt"
    ~actual:"quick_stats.actual" (sweep line (E.quick_plan ()))

let test_fault_stats () =
  compare_golden ~golden:"golden/fault_stats.txt"
    ~actual:"fault_stats.actual" (sweep fault_line (fault_plan ()))

let () =
  Alcotest.run "golden"
    [ ("quick sweep",
       [ Alcotest.test_case "per-spec stats" `Quick test_quick_stats ]);
      ("fault sweep",
       [ Alcotest.test_case "per-spec stats" `Quick test_fault_stats ]) ]
