(* Data-dependent-exit extension (xloop.*.de): ISA round-trip, compiler
   lowering, traditional semantics, and — the interesting part — control
   speculation on the LPSU: iterations beyond the exit run speculatively
   and leave no architectural trace. *)

open Xloops_compiler
module Insn = Xloops_isa.Insn
module Encode = Xloops_isa.Encode
module Memory = Xloops_mem.Memory
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Kernel = Xloops_kernels.Kernel
module Registry = Xloops_kernels.Registry

let de dp = { Insn.dp; cp = De }

let run_serial p mem =
  match Xloops_sim.Exec.run_serial p mem with
  | Ok r -> r
  | Error stop -> failwith (Fmt.str "%a" Xloops_sim.Exec.pp_stop stop)

let test_encode_roundtrip () =
  List.iter
    (fun dp ->
       let i : int Insn.t = Xloop (de dp, 12, 11, 3) in
       let w = Encode.to_word 10 i in
       Alcotest.(check bool)
         (Fmt.str "roundtrip %a" Insn.pp_xpat_suffix (de dp))
         true
         (Insn.equal Int.equal i (Encode.of_word 10 w)))
    Insn.[ Uc; Or; Om; Orm; Ua ]

let test_suffix_printing () =
  Alcotest.(check string) "uc.de" "uc.de"
    (Fmt.str "%a" Insn.pp_xpat_suffix (de Insn.Uc))

(* Traditional semantics: the xloop.de branches back while the exit
   register is clear. *)
let test_traditional_semantics () =
  let b = Xloops_asm.Builder.create () in
  let t0 = 8 and t1 = 9 and t2 = 10 in
  Xloops_asm.Builder.li b t0 0;       (* idx *)
  Xloops_asm.Builder.li b t2 0;       (* sum *)
  Xloops_asm.Builder.label b "body";
  Xloops_asm.Builder.add b t2 t2 t0;
  Xloops_asm.Builder.xi_addi b t0 t0 1;
  (* exit when idx reaches 5 *)
  Xloops_asm.Builder.alu b Slt t1 t0 (Xloops_isa.Reg.zero);  (* t1 = 0 *)
  Xloops_asm.Builder.alui b Slt t1 t0 5;   (* t1 = idx < 5 *)
  Xloops_asm.Builder.alui b Xor t1 t1 1;   (* exit flag = !(idx < 5) *)
  Xloops_asm.Builder.xloop b (de Insn.Uc) t0 t1 "body";
  Xloops_asm.Builder.halt b;
  let p = Xloops_asm.Builder.assemble b in
  let r = run_serial p (Memory.create ()) in
  Alcotest.(check int32) "sum 0..4" 10l (Xloops_sim.Exec.get r.final t2)

(* The find-de kernel end to end across targets and machines. *)
let run_find ~target ~cfg ~mode () =
  let k = Registry.find "find-de" in
  let r = Kernel.run ~target ~cfg ~mode k in
  (match r.Kernel.check_result with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  r.result

let test_find_general () =
  ignore (run_find ~target:Compile.general ~cfg:Config.io
            ~mode:Machine.Traditional ())

let test_find_traditional () =
  ignore (run_find ~target:Compile.xloops ~cfg:Config.io
            ~mode:Machine.Traditional ())

let test_find_specialized () =
  let r = run_find ~target:Compile.xloops ~cfg:Config.io_x
      ~mode:Machine.Specialized () in
  Alcotest.(check bool) "specialized" true
    (r.Machine.stats.xloops_specialized > 0);
  (* Control speculation: the lanes ran past the exit and were
     discarded. *)
  Alcotest.(check bool) "speculative work discarded" true
    (r.Machine.stats.squashed_insns > 0)

let test_find_specialized_ooo () =
  ignore (run_find ~target:Compile.xloops ~cfg:Config.ooo4_x
            ~mode:Machine.Specialized ())

let test_find_adaptive () =
  ignore (run_find ~target:Compile.xloops ~cfg:Config.ooo2_x
            ~mode:Machine.Adaptive ())

let test_find_speedup () =
  (* The exit sits two-thirds in, so specialized execution of the scan
     still wins clearly over the serial in-order core. *)
  let t = run_find ~target:Compile.xloops ~cfg:Config.io
      ~mode:Machine.Traditional () in
  let s = run_find ~target:Compile.xloops ~cfg:Config.io_x
      ~mode:Machine.Specialized () in
  let speedup = float_of_int t.Machine.cycles /. float_of_int s.cycles in
  Alcotest.(check bool) (Printf.sprintf "speedup %.2f > 1.5" speedup)
    true (speedup > 1.5)

(* The compiler emits the .de pattern. *)
let test_compiler_emits_de () =
  let k = Registry.find "find-de" in
  let c = Compile.compile ~target:Compile.xloops k.kernel in
  let found = ref false in
  Array.iter
    (fun insn ->
       match insn with
       | Insn.Xloop ({ cp = De; dp = Uc }, _, _, _) -> found := true
       | _ -> ())
    c.program.insns;
  Alcotest.(check bool) "uc.de emitted" true !found

(* An ordered de loop (running maximum until a sentinel): register carry
   + data-dependent exit together. *)
let sentinel_kernel : Ast.kernel =
  let open Ast.Syntax in
  { k_name = "runmax-de";
    arrays = [ Kernel.arr "a" I32 64; Kernel.arr "best" I32 1 ];
    consts = [ ("n", 64) ];
    k_body =
      [ Ast.Decl ("mx", i 0);
        for_de ~pragma:Ordered "j" (i 0)
          ((v "stop" = i 0) land (v "j" < v "n" - i 1))
          [ Ast.Decl ("x", "a".%[v "j"]);
            Ast.If (v "x" > v "mx", [ Ast.Assign ("mx", v "x") ], []);
            Ast.Decl ("stop", v "x" = i 0) ];   (* sentinel: zero *)
        Ast.Store ("best", i 0, v "mx") ] }

let test_ordered_de () =
  let vals = Array.init 64 (fun i -> if i = 40 then 0 else (i * 37) mod 500 + 1) in
  let reference =
    let mx = ref 0 in
    (try
       for j = 0 to 63 do
         if vals.(j) > !mx then mx := vals.(j);
         if vals.(j) = 0 then raise Exit
       done
     with Exit -> ());
    !mx
  in
  List.iter
    (fun (target, cfg, mode) ->
       let c = Compile.compile ~target sentinel_kernel in
       let mem = Memory.create () in
       Memory.blit_int_array mem ~addr:(c.array_base "a") vals;
       ignore (Machine.simulate ~cfg ~mode c.program mem);
       Alcotest.(check int) "running max" reference
         (Memory.get_int mem (c.array_base "best")))
    [ (Compile.general, Config.io, Machine.Traditional);
      (Compile.xloops, Config.io, Machine.Traditional);
      (Compile.xloops, Config.io_x, Machine.Specialized);
      (Compile.xloops, Config.ooo4_x, Machine.Specialized) ]

let () =
  Alcotest.run "de"
    [ ("isa",
       [ Alcotest.test_case "encode roundtrip" `Quick test_encode_roundtrip;
         Alcotest.test_case "suffix" `Quick test_suffix_printing;
         Alcotest.test_case "traditional semantics" `Quick
           test_traditional_semantics ]);
      ("find-de",
       [ Alcotest.test_case "general" `Quick test_find_general;
         Alcotest.test_case "xloops traditional" `Quick
           test_find_traditional;
         Alcotest.test_case "specialized" `Quick test_find_specialized;
         Alcotest.test_case "specialized ooo4+x" `Quick
           test_find_specialized_ooo;
         Alcotest.test_case "adaptive" `Quick test_find_adaptive;
         Alcotest.test_case "speedup" `Quick test_find_speedup;
         Alcotest.test_case "compiler emits de" `Quick
           test_compiler_emits_de ]);
      ("ordered-de",
       [ Alcotest.test_case "running max to sentinel" `Quick
           test_ordered_de ]);
    ]
