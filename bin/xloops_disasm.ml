(* xloops_disasm: show a kernel's Loopc source and the assembly the XLOOPS
   compiler produces for it, with the xloop bodies annotated.

     dune exec bin/xloops_disasm.exe -- -k war-om
     dune exec bin/xloops_disasm.exe -- -k sgemm-uc -t general *)

open Cmdliner
module K = Xloops.Kernels
module C = Xloops.Compiler
module Program = Xloops.Asm.Program

let source_arg =
  let doc = "Also print the Loopc source." in
  Arg.(value & flag & info [ "s"; "source" ] ~doc)

let run kernel target source =
  Cli_common.guarded @@ fun () ->
  let k = K.Registry.find kernel in
  let c = C.Compile.compile ~target:(Cli_common.parse_target target)
      k.K.Kernel.kernel
  in
  if source then
    Fmt.pr "── Loopc source ─────────────────────────────@.%a@.@."
      C.Ast.pp_kernel k.kernel;
  Fmt.pr "── data layout ──────────────────────────────@.%a@."
    Xloops.Asm.Layout.pp c.layout;
  Fmt.pr "── assembly (%d instructions, %d spill slots) ─@.%s@."
    (Program.length c.program) c.spill_slots (Program.to_string c.program);
  let bodies = C.Compile.xloop_bodies c.program in
  if bodies <> [] then begin
    Fmt.pr "── xloop bodies ─────────────────────────────@.";
    List.iter
      (fun (body, xpc, len) ->
         Fmt.pr "  pc %d..%d: %d instructions@." body xpc len)
      bodies
  end;
  0

let cmd =
  let doc = "disassemble a compiled XLOOPS kernel" in
  Cmd.v (Cmd.info "xloops_disasm" ~doc)
    Term.(const run $ Cli_common.kernel_arg $ Cli_common.target_arg
          $ source_arg)

let () = exit (Cmd.eval' cmd)
