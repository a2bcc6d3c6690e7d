(* A loop whose dependence behaviour changes phase mid-program: one
   static xloop.om over a memory recurrence a[j] = a[j - d] + 1, where
   the distance d changes per dynamic instance.  Early instances run
   with d large (no conflicts: specialized execution flies); later
   instances run with d = 1 (a serial chain: squashes everywhere).

   The cases check that the compiler emits the loop as om and that
   specialized execution squashes because of the serial phase.  The
   APT decides once per static loop (Section II-E), so adaptive
   execution keeps its early verdict through the serial phase; the
   paper's future-work re-profiling is not modelled. *)

open Xloops_compiler
module Memory = Xloops_mem.Memory
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module K = Xloops_kernels.Kernel

let n = 64            (* recurrence elements per instance *)
let instances = 24
let phase1 = 8        (* instances with the parallel-friendly distance *)
let far = 16          (* phase-1 recurrence distance *)

let kernel : Ast.kernel =
  let open Ast.Syntax in
  { k_name = "phase-change";
    arrays = [ K.arr "a" I32 n; K.arr "dist" I32 instances ];
    consts = [ ("n", n); ("insts", instances) ];
    k_body =
      [ for_ "t" (i 0) (v "insts")
          [ Ast.Decl ("d", "dist".%[v "t"]);
            for_ ~pragma:Ordered "j" (v "d") (v "n")
              [ Ast.Store ("a", v "j", "a".%[v "j" - v "d"] + i 1) ] ] ] }

let distances =
  Array.init instances (fun t -> if t < phase1 then far else 1)

let reference () =
  let a = Array.make n 0 in
  Array.iter
    (fun d ->
       for j = d to n - 1 do a.(j) <- a.(j - d) + 1 done)
    distances;
  a

let run mode =
  let c = Compile.compile kernel in
  let mem = Memory.create () in
  Memory.blit_int_array mem ~addr:(c.array_base "dist") distances;
  let r = Machine.ok_exn
      (Machine.simulate ~cfg:Config.ooo2_x ~mode c.program mem) in
  let out = Memory.read_int_array mem ~addr:(c.array_base "a") ~n in
  (match K.check_int_array ~what:"a" ~expected:(reference ()) out with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  r

let test_kernel_is_om () =
  let c = Compile.compile kernel in
  let has_om = Array.exists
      (fun insn -> match insn with
         | Xloops_isa.Insn.Xloop ({ dp = Om; _ }, _, _, _) -> true
         | _ -> false)
      c.program.insns in
  Alcotest.(check bool) "om emitted" true has_om

let test_phases_behave_differently () =
  (* Pure specialized execution squashes heavily only because of the
     serial phase. *)
  let s = run Machine.Specialized in
  Alcotest.(check bool) "squashes in serial phase" true
    (s.stats.violations > instances - phase1)

let () =
  Alcotest.run "reconsider"
    [ ("phase-change",
       [ Alcotest.test_case "kernel is om" `Quick test_kernel_is_om;
         Alcotest.test_case "premise" `Quick test_phases_behave_differently ]);
    ]
