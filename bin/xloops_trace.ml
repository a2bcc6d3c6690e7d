(* xloops_trace: run a kernel with execution tracing — the gem5-style
   debug view of what the machine is doing.

     dune exec bin/xloops_trace.exe -- -k kmeans-or -l decisions
     dune exec bin/xloops_trace.exe -- -k ksack-sm-om -l lanes -n 120
     dune exec bin/xloops_trace.exe -- -k war-uc -l insns -n 200 *)

open Cmdliner
module K = Xloops.Kernels
module Sim = Xloops.Sim
module Memory = Xloops.Mem.Memory

let kernel_arg =
  let doc = "Kernel name (see xloops_info for the list)." in
  Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc)

let config_arg =
  let doc = "Machine configuration (default io+x)." in
  Arg.(value & opt string "io+x" & info [ "c"; "config" ] ~doc)

let mode_arg =
  let doc = "Execution mode: T, S or A (default S)." in
  Arg.(value & opt string "S" & info [ "m"; "mode" ] ~doc)

let level_arg =
  let doc = "Trace level: decisions, lanes, or insns." in
  Arg.(value & opt string "decisions" & info [ "l"; "level" ] ~doc)

let limit_arg =
  let doc = "Stop after this many trace lines (0 = unlimited)." in
  Arg.(value & opt int 200 & info [ "n"; "limit" ] ~doc)

let verbose_arg =
  let doc = "Also report host-side simulation throughput." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let parse_level = function
  | "decisions" -> Sim.Trace.Decisions
  | "lanes" -> Sim.Trace.Lanes
  | "insns" -> Sim.Trace.Insns
  | l -> invalid_arg
           ("unknown trace level " ^ l
            ^ " (expected decisions, lanes or insns)")

let run kernel config mode level limit verbose eng fault_seed
    fault_events no_degrade =
  Cli_common.guarded @@ fun () ->
  let k = K.Registry.find kernel in
  let spec =
    Cli_common.spec_of ~eng ~config ~mode ~target:"xloops"
      ~fault_seed ~fault_events ~no_degrade kernel
  in
  let trace = Sim.Trace.to_stdout ~level:(parse_level level) ~limit () in
  let t0 = Unix.gettimeofday () in
  let policy_outcome =
    Cli_common.with_policy ~eng
      ~salt:(Xloops.Digest_hex.to_hex (Xloops.Run_spec.digest spec))
      (fun () -> Xloops.Run_spec.run_result ~kernel:k ~trace spec)
  in
  let wall = Unix.gettimeofday () -. t0 in
  if Sim.Trace.exhausted (Some trace) then
    Fmt.pr "... (trace limit reached)@.";
  match policy_outcome.result with
  | Error f ->
    Fmt.epr "error: %s: %a@." k.name Xloops.Failure.pp_tagged f;
    2
  | Ok (Error f) ->
    Fmt.epr "error: %s: %a@." k.name Xloops.Failure.pp_tagged
      (Xloops.Failure.Sim f);
    2
  | Ok (Ok r) ->
    let res = r.K.Kernel.result in
    res.stats.wall_ns <- int_of_float (1e9 *. wall);
    Fmt.pr "@.%s on %s: %d cycles, %d iterations, check %s@."
      k.name spec.Xloops.Run_spec.cfg.Sim.Config.name res.cycles
      res.stats.iterations
      (match r.check_result with
       | Ok () -> "PASS"
       | Error m -> "FAIL: " ^ m);
    if verbose then
      Fmt.pr "host:    wall_ns %d (%.1f MIPS simulated)@."
        res.stats.wall_ns
        (float_of_int res.insns /. Float.max wall 1e-9 /. 1e6);
    Cli_common.report_robustness res.stats;
    0

let cmd =
  let doc = "trace the execution of an XLOOPS kernel" in
  Cmd.v (Cmd.info "xloops_trace" ~doc)
    Term.(const run $ kernel_arg $ config_arg $ mode_arg $ level_arg
          $ limit_arg $ verbose_arg $ Cli_common.engine_term ()
          $ Cli_common.fault_seed_arg $ Cli_common.fault_events_arg
          $ Cli_common.no_degrade_arg)

let () = exit (Cmd.eval' cmd)
