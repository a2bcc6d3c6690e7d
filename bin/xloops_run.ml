(* xloops_run: compile one application kernel and simulate it on a chosen
   machine configuration and execution mode, printing cycles, IPC, the
   microarchitectural event counts and the energy breakdown.

     dune exec bin/xloops_run.exe -- -k sgemm-uc -c io+x -m S
     dune exec bin/xloops_run.exe -- -k adpcm-or -c ooo/4+x -m A -t xloops *)

open Cmdliner
module K = Xloops.Kernels
module Sim = Xloops.Sim
module Energy = Xloops.Energy.Model

let verbose_arg =
  let doc = "Print the full event-counter dump." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let run verbose single_run =
  Cli_common.guarded @@ fun () ->
  single_run ~trace:None @@ fun k (spec : Xloops.Run_spec.t) r wall ->
  let cfg = spec.cfg and mode = spec.mode in
  let res = r.K.Kernel.result in
  Fmt.pr "kernel:  %s (%s, dominant %s)@." k.K.Kernel.name k.suite k.dominant;
  Fmt.pr "machine: %s, mode %s@." cfg.Sim.Config.name
    (Sim.Machine.mode_name mode);
  Fmt.pr "check:   %s@."
    (match r.check_result with
     | Ok () -> "PASS"
     | Error m -> "FAIL: " ^ m);
  Fmt.pr "cycles:  %d@." res.cycles;
  Fmt.pr "insns:   %d (IPC %.2f)@." res.insns
    (float_of_int res.insns /. float_of_int (max 1 res.cycles));
  Fmt.pr "xloops:  %d specialized, %d iterations, %d violations@."
    res.stats.xloops_specialized res.stats.iterations
    res.stats.violations;
  Cli_common.report_robustness res.stats;
  let e = Energy.of_stats cfg res.stats in
  Fmt.pr "energy:  %a@." Energy.pp_breakdown e;
  Fmt.pr "power:   %.1f mW at %.0f MHz@."
    (Energy.power ~cycles:res.cycles e *. 1e3)
    (Energy.frequency_hz /. 1e6);
  if verbose then begin
    Fmt.pr "@.host:    wall_ns %d (%.1f MIPS simulated)@."
      res.stats.wall_ns
      (float_of_int res.insns /. Float.max wall 1e-9 /. 1e6);
    Fmt.pr "spec:    %a (digest of the canonical run plan)@."
      Xloops.Digest_hex.pp (Xloops.Run_spec.digest spec);
    Fmt.pr "%a@." Sim.Stats.pp res.stats;
    (match Sim.Stats.lane_breakdown res.stats with
     | breakdown when res.stats.ib_fetches > 0 ->
       Fmt.pr "@.lane cycles:";
       List.iter (fun (c, f) -> Fmt.pr " %s=%.2f" c f) breakdown;
       Fmt.pr "@."
     | _ -> ())
  end;
  (match r.check_result with Ok () -> 0 | Error _ -> 1)

let cmd =
  let doc = "simulate an XLOOPS application kernel" in
  Cmd.v (Cmd.info "xloops_run" ~doc)
    Term.(const run $ verbose_arg
          $ Cli_common.run_term ~target:Cli_common.target_arg)

let () = exit (Cmd.eval' cmd)
