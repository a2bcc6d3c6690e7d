(* xloops_trace: run a kernel with execution tracing — the gem5-style
   debug view of what the machine is doing.

     dune exec bin/xloops_trace.exe -- -k kmeans-or -l decisions
     dune exec bin/xloops_trace.exe -- -k ksack-sm-om -l lanes -n 120
     dune exec bin/xloops_trace.exe -- -k war-uc -l insns -n 200 *)

open Cmdliner
module K = Xloops.Kernels
module Sim = Xloops.Sim

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

let run level limit verbose single_run =
  Cli_common.guarded @@ fun () ->
  let trace = Sim.Trace.to_stdout ~level:(parse_level level) ~limit () in
  single_run ~trace:(Some trace) @@ fun k (spec : Xloops.Run_spec.t) r wall ->
  let res = r.K.Kernel.result in
  Fmt.pr "@.%s on %s: %d cycles, %d iterations, check %s@."
    k.K.Kernel.name spec.cfg.Sim.Config.name res.cycles
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
    Term.(const run $ level_arg $ limit_arg $ verbose_arg
          $ Cli_common.run_term ~target:(const "xloops"))

let () = exit (Cmd.eval' cmd)
