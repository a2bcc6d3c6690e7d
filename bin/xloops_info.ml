(* xloops_info: inventory of the reproduction — kernels (with their
   dependence patterns, body sizes and dynamic instruction counts),
   machine configurations, and the VLSI area model.

     dune exec bin/xloops_info.exe
     dune exec bin/xloops_info.exe -- --vlsi *)

open Cmdliner
module K = Xloops.Kernels
module Sim = Xloops.Sim
module C = Xloops.Compiler

let vlsi_arg =
  let doc = "Print the Table V area/cycle-time model instead." in
  Arg.(value & flag & info [ "vlsi" ] ~doc)

let kernels () =
  Fmt.pr "%-16s %-3s %-6s %-10s %10s %6s@." "kernel" "st" "type" "bodies"
    "dyn-insns" "X/G";
  List.iter
    (fun (k : K.Kernel.t) ->
       let compiled target =
         (Xloops.Program_cache.find ~target k).compiled in
       let bodies =
         C.Compile.xloop_bodies (compiled C.Compile.xloops).program
         |> List.map (fun (_, _, l) -> string_of_int l)
         |> String.concat ","
       in
       let dyn target =
         match K.Kernel.dynamic_insns k (compiled target) with
         | Ok n -> n
         | Error msg -> failwith msg
       in
       let gpi = dyn C.Compile.general in
       let xli = dyn C.Compile.xloops in
       Fmt.pr "%-16s %-3s %-6s %-10s %10d %6.2f@." k.name k.suite
         k.dominant bodies gpi
         (float_of_int xli /. float_of_int gpi))
    K.Registry.all;
  Fmt.pr "@.configurations:@.";
  List.iter
    (fun (c : Sim.Config.t) ->
       match c.lpsu with
       | None -> Fmt.pr "  %-14s (no LPSU)@." c.name
       | Some l ->
         Fmt.pr "  %-14s lanes=%d ib=%d lsq=%d+%d ports=%dm/%dl mt=%d@."
           c.name l.lanes l.ib_entries l.lsq_loads l.lsq_stores
           l.mem_ports l.llfu_ports l.threads_per_lane)
    Sim.Config.(baselines @ specialized @ design_space @ extensions)

let vlsi () =
  Fmt.pr "%a" Xloops.Vlsi.Area.pp_table_v (Xloops.Vlsi.Area.table_v ());
  let a = Xloops.Vlsi.Area.area Sim.Config.default_lpsu in
  Fmt.pr "@.primary LPSU breakdown (mm^2):@.";
  Fmt.pr "  gpp logic %.3f, I$ %.3f, D$ %.3f@."
    a.gpp_logic a.gpp_icache a.gpp_dcache;
  Fmt.pr "  lmu %.4f, lanes %.4f, instr buffers %.4f, lsq %.4f@."
    a.lmu a.lanes a.instr_buffers a.lsq

let run show_vlsi =
  Cli_common.guarded @@ fun () ->
  if show_vlsi then vlsi () else kernels ();
  0

let cmd =
  let doc = "list the XLOOPS kernels, configurations and VLSI model" in
  Cmd.v (Cmd.info "xloops_info" ~doc) Term.(const run $ vlsi_arg)

let () = exit (Cmd.eval' cmd)
