(* Block-compiled tier: closure-compiled basic blocks with fused runs
   must be observationally identical to the per-step tiers — registers,
   memory, dynamic instruction counts, out-of-fuel payloads and
   trap/halt behavior all bit-equal.

   Layers:
   - operator/accessor equivalence: the unboxed FPU evaluator and the
     native-int memory accessors agree with their int32 semantic specs;
   - whole-program differential: random ISA programs (forward control
     flow, including jumps into the middle of blocks and fused runs)
     and every registry kernel run identically through ref, predecode
     and block;
   - fuel parity: a block dispatch retires many instructions at once,
     so the driver's fuel accounting is checked at exact exhaustion
     boundaries;
   - side-exit parity: a trap in the middle of a compiled block must
     materialize the precise mid-block state — same exception, same
     committed memory bytes — as the per-step tiers;
   - plan sanity: blocks and fused runs form where the rules say;
   - allocation regression: the block tier must not allocate. *)

open Xloops_isa
module B = Xloops_asm.Builder
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module Exec = Xloops_sim.Exec
module Threaded = Xloops_sim.Threaded
module Registry = Xloops_kernels.Registry
module Kernel = Xloops_kernels.Kernel
module Compile = Xloops_compiler.Compile

(* -- operator / accessor equivalence ----------------------------------- *)

let gen_int32 =
  let open QCheck.Gen in
  frequency
    [ 4, map Int32.of_int (int_range (-1000) 1000);
      2, map Int32.of_int (int_bound 0x7FFFFFFF);
      2, map Int32.bits_of_float
           (map (fun f -> f *. 1000.0) (float_range (-1.0) 1.0));
      1, oneofl [ Int32.min_int; Int32.max_int; -1l; 0l; 1l;
                  0x7F800000l (* +inf *); 0xFF800000l (* -inf *);
                  0x7FC00000l (* nan *) ] ]

let all_fpu_ops =
  [ Insn.Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Feq; Flt; Fle;
    Fcvt_sw; Fcvt_ws ]

let prop_fpu_int_matches =
  QCheck.Test.make ~name:"fpu_eval_int matches fpu_eval" ~count:4000
    (QCheck.make
       ~print:(fun (op, a, b) ->
           Fmt.str "%s %ld %ld" (Insn.show_fpu_op op) a b)
       QCheck.Gen.(triple (oneofl all_fpu_ops) gen_int32 gen_int32))
    (fun (op, a, b) ->
       Int32.of_int
         (Exec.fpu_eval_int op (Int32.to_int a) (Int32.to_int b))
       = Exec.fpu_eval op a b)

let all_widths = [ Insn.B; Bu; H; Hu; W ]
let all_amo_ops =
  [ Insn.Amo_add; Amo_and; Amo_or; Amo_xchg; Amo_min; Amo_max ]

(* The native-int accessors must behave exactly like the int32 ones:
   same result (as a sign-extended int), same memory bytes, same event
   counters — including on the journal path. *)
let prop_mem_int_accessors =
  let gen =
    let open QCheck.Gen in
    let* w = oneofl all_widths in
    let* addr = map (fun a -> a * 4) (int_bound 60) in
    let* v = gen_int32 in
    let* op = oneofl all_amo_ops in
    let* journal = bool in
    return (w, addr, v, op, journal)
  in
  QCheck.Test.make ~name:"load_int/store_int/amo_int match int32 forms"
    ~count:2000 (QCheck.make gen)
    (fun (w, addr, v, op, journal) ->
       let m1 = Memory.create ~size:512 () in
       let m2 = Memory.create ~size:512 () in
       for i = 0 to 511 do
         Memory.set_u8 m1 i ((i * 37 + 11) land 0xFF);
         Memory.set_u8 m2 i ((i * 37 + 11) land 0xFF)
       done;
       if journal then begin
         Memory.journal_begin m1; Memory.journal_begin m2
       end;
       Memory.store m1 w addr v;
       Memory.store_int m2 w addr (Int32.to_int v);
       let l1 = Memory.load m1 w addr in
       let l2 = Memory.load_int m2 w addr in
       let a1 = Memory.amo m1 op 256 v in
       let a2 = Memory.amo_int m2 op 256 (Int32.to_int v) in
       if journal then begin
         Memory.journal_abort m1; Memory.journal_abort m2
       end;
       Int32.to_int l1 = l2
       && Int32.to_int a1 = a2
       && Bytes.equal m1.Memory.data m2.Memory.data
       && m1.Memory.loads = m2.Memory.loads
       && m1.Memory.stores = m2.Memory.stores
       && m1.Memory.amos = m2.Memory.amos)

(* -- whole-program differential ---------------------------------------- *)

(* Same shape as the test_predecode generator — forward-only control
   flow over seeded registers with a scratch memory window — plus FPU
   ops (dispatch coverage for the closure compiler) and a bias toward
   fusible adjacency: ALU-heavy straight runs with branches landing on
   arbitrary pcs, including the middle of blocks and fused runs. *)

let scratch_base = 512

let all_alu_ops =
  [ Insn.Add; Sub; And; Or_; Xor; Nor; Sll; Srl; Sra; Slt; Sltu;
    Mul; Mulh; Div; Rem ]

let all_branch_conds = [ Insn.Beq; Bne; Blt; Bge; Bltu; Bgeu ]

let gen_insn ~pc ~len =
  let open QCheck.Gen in
  let reg = int_range 1 15 in
  let fwd = int_range (pc + 1) len in   (* the Halt sits at [len] *)
  frequency
    [ 8, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Alu (op, rd, rs, rt)));
      6, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* imm = int_range (-40000) 40000 in
          return (Insn.Alui (op, rd, rs, imm)));
      2, (let* op = oneofl all_fpu_ops in
          let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Fpu (op, rd, rs, rt)));
      1, (let* rd = reg in
          let* imm = int_range 0 0xFFFF in
          return (Insn.Lui (rd, imm)));
      3, (let* rd = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          let off = match w with
            | Insn.B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Load (w, rd, 20, off)));
      3, (let* rt = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          let off = match w with
            | Insn.B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Store (w, rt, 20, off)));
      1, (let* op = oneofl all_amo_ops in
          let* rd = reg in
          let* rt = reg in
          return (Insn.Amo (op, rd, 21, rt)));
      3, (let* c = oneofl all_branch_conds in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Branch (c, rs, rt, l)));
      1, (let* l = fwd in return (Insn.Jump l));
      1, (let* dp = oneofl [ Insn.Uc; Or; Om; Orm; Ua ] in
          let* cp = oneofl [ Insn.Fixed; Dyn; De ] in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Xloop ({ dp; cp }, rs, rt, l)));
      1, (let* rd = reg in
          let* rs = reg in
          let* imm = int_range (-100) 100 in
          return (Insn.Xi_addi (rd, rs, imm)));
      1, (let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Xi_add (rd, rs, rt)));
      1, oneofl [ Insn.Sync; Nop ] ]

let gen_program =
  let open QCheck.Gen in
  let* len = int_range 5 60 in
  let* body =
    let rec go pc acc =
      if pc = len then return (List.rev acc)
      else
        let* i = gen_insn ~pc ~len in
        go (pc + 1) (i :: acc)
    in
    go 0 []
  in
  let* seeds =
    let rec go r acc =
      if r > 15 then return (List.rev acc)
      else
        let* imm = int_range (-32768) 32767 in
        go (r + 1) (Insn.Alui (Add, r, 0, imm) :: acc)
    in
    go 1 []
  in
  let prologue =
    seeds
    @ [ Insn.Alui (Add, 20, 0, scratch_base);
        Insn.Alui (Add, 21, 0, scratch_base + 128) ]
  in
  let npro = List.length prologue in
  let shift = Insn.map_label (fun l -> l + npro) in
  return
    { Program.insns =
        Array.of_list (List.map shift prologue
                       @ List.map shift body @ [ Insn.Halt ]);
      symbols = [] }

let arb_program =
  QCheck.make gen_program
    ~print:(fun p -> Fmt.str "%a" Program.pp p)

let snapshot (r : Exec.run) mem =
  (r.Exec.dynamic_insns, r.Exec.final.Exec.pc,
   Array.to_list r.Exec.final.Exec.regs,
   Bytes.to_string mem.Memory.data)

let run_tier run p =
  let m = Memory.create ~size:4096 () in
  (run p m, m)

let prop_block_differential =
  QCheck.Test.make ~name:"block == predecode == ref"
    ~count:400 arb_program
    (fun p ->
       match run_tier Threaded.run_serial_block p,
             run_tier Exec.run_serial p, run_tier Exec.run_serial_ref p with
       | (Ok r0, m0), (Ok r1, m1), (Ok r2, m2) ->
         snapshot r0 m0 = snapshot r1 m1 && snapshot r1 m1 = snapshot r2 m2
       | (Error s0, m0), (Error s1, m1), (Error s2, m2) ->
         s0 = s1 && s1 = s2
         && Bytes.equal m0.Memory.data m1.Memory.data
         && Bytes.equal m1.Memory.data m2.Memory.data
       | _ -> false)

(* Fuel parity at exact exhaustion boundaries: a block dispatch retires
   many instructions at once, but may not overshoot the limit, and the
   Out_of_fuel payload (pc, counts) must be identical to the per-step
   tiers.  Random fuels cut runs at arbitrary points, including
   mid-block. *)
let prop_fuel_parity =
  QCheck.Test.make ~name:"out-of-fuel payloads identical across tiers"
    ~count:400
    (QCheck.make
       QCheck.Gen.(pair gen_program (int_bound 40))
       ~print:(fun (p, fuel) -> Fmt.str "fuel %d@.%a" fuel Program.pp p))
    (fun (p, fuel) ->
       let m1 = Memory.create ~size:4096 () in
       let m2 = Memory.create ~size:4096 () in
       match Threaded.run_serial_block ~fuel p m1,
             Exec.run_serial ~fuel p m2 with
       | Ok r1, Ok r2 -> snapshot r1 m1 = snapshot r2 m2
       | Error s1, Error s2 ->
         s1 = s2 && Bytes.equal m1.Memory.data m2.Memory.data
       | _ -> false)

let test_fuel_edges () =
  (* 3 li + per-iteration (16 add + addi + bne): one fused run per block *)
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 50;
  B.li b 10 0;
  B.label b "top";
  for _ = 0 to 15 do B.add b 10 10 8 done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  let p = B.assemble b in
  List.iter
    (fun fuel ->
       let m1 = Memory.create () and m2 = Memory.create () in
       match Threaded.run_serial_block ~fuel p m1,
             Exec.run_serial ~fuel p m2 with
       | Error s1, Error s2 ->
         if s1 <> s2 then
           Alcotest.failf "fuel %d: %a vs %a" fuel
             Exec.pp_stop s1 Exec.pp_stop s2
       | Ok r1, Ok r2 ->
         Alcotest.(check int) (Fmt.str "fuel %d insns" fuel)
           r2.Exec.dynamic_insns r1.Exec.dynamic_insns
       | _ -> Alcotest.failf "fuel %d: tiers disagree on termination" fuel)
    [ 0; 1; 2; 3; 4; 5; 17; 18; 19; 20; 21; 37; 38; 39; 1000 ]

let test_trap_parity () =
  (* no halt: running off the end must trap identically in both tiers *)
  let p = { Program.insns = [| Insn.Alu (Add, 1, 1, 1) |]; symbols = [] } in
  let msg run =
    let m = Memory.create () in
    try ignore (run p m); "no-trap" with Exec.Trap m -> m
  in
  Alcotest.(check string) "trap message (block)"
    (msg (fun p m -> Exec.run_serial p m))
    (msg (fun p m -> Threaded.run_serial_block p m))

(* Side-exit state parity: a straight-line run is one compiled block,
   and an out-of-bounds/misaligned store in its middle must leave
   exactly the per-step state behind — earlier stores in the block
   committed, later ones not, and the same exception raised. *)
let test_midblock_trap_parity () =
  let b = B.create () in
  B.li b 8 0x100;
  B.li b 9 111;
  B.sw b 9 8 0;        (* commits before the trap *)
  B.addi b 9 9 1;
  B.addi b 9 9 1;
  B.sw b 9 8 2;        (* misaligned word store: traps mid-block *)
  B.addi b 9 9 1;
  B.sw b 9 8 8;        (* must never commit *)
  B.halt b;
  let p = B.assemble b in
  let outcome run =
    let m = Memory.create () in
    let r =
      try (match run p m with
           | Ok (r : Exec.run) ->
             Fmt.str "ok pc=%d insns=%d" r.Exec.final.Exec.pc
               r.Exec.dynamic_insns
           | Error s -> Fmt.str "%a" Exec.pp_stop s)
      with e -> Printexc.to_string e
    in
    (r, Bytes.to_string m.Memory.data)
  in
  let (e1, d1) = outcome (fun p m -> Exec.run_serial p m) in
  let (e3, d3) = outcome (fun p m -> Threaded.run_serial_block p m) in
  Alcotest.(check string) "block exception" e1 e3;
  Alcotest.(check bool) "block memory" true (String.equal d1 d3);
  (* and the state really is mid-block: first store landed, last didn't *)
  let m = Memory.create () in
  (try ignore (Threaded.run_serial_block p m) with _ -> ());
  Alcotest.(check int) "pre-trap store committed" 111
    (Memory.get_int m 0x100);
  Alcotest.(check int) "post-trap store suppressed" 0
    (Memory.get_int m 0x108)

(* Compiled kernels: real loop structure, all three targets' worth of
   code shapes, deterministic. *)
let test_registry_differential () =
  List.iter
    (fun (k : Kernel.t) ->
       let c = Compile.compile k.Kernel.kernel in
       let run exec mem =
         k.Kernel.init c.Compile.array_base mem;
         match exec c.Compile.program mem with
         | Ok r -> r
         | Error stop ->
           Alcotest.failf "%s: %a" k.Kernel.name Exec.pp_stop stop
       in
       let m2 = Memory.create () and m3 = Memory.create () in
       let r2 = run (fun p m -> Exec.run_serial p m) m2 in
       let r3 = run (fun p m -> Threaded.run_serial_block p m) m3 in
       if snapshot r3 m3 <> snapshot r2 m2 then
         Alcotest.failf "%s: block and predecode runs differ"
           k.Kernel.name)
    Registry.all

(* -- fusion plan sanity ------------------------------------------------ *)

let test_block_plan () =
  (* Straight-line add chain into a back edge: one block for the
     prologue, one for the loop body, and fused triples inside. *)
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 10;
  B.li b 10 0;
  B.label b "top";
  for _ = 0 to 5 do B.add b 10 10 8 done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  let p = B.assemble b in
  let blocks, triples = Threaded.block_plan p in
  (* leaders: the entry (0) and the loop head (3, the bne target) *)
  Alcotest.(check bool) "several blocks" true (List.length blocks >= 2);
  Alcotest.(check bool) "loop head is a leader" true
    (List.mem_assoc 3 blocks);
  Alcotest.(check bool) "blocks are multi-insn" true
    (List.exists (fun (_, n) -> n >= 4) blocks);
  Alcotest.(check bool) "fused runs recorded" true (triples <> []);
  (* the whole add chain fuses into one run inside the body block *)
  Alcotest.(check bool) "add-chain run" true
    (List.exists
       (fun (_, r) ->
          String.length r >= 11 && String.sub r 0 11 = "alu+alu+alu")
       triples)

(* -- allocation regression --------------------------------------------- *)

let alloc_per_insn run =
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 100_000;
  B.li b 10 0;
  B.label b "top";
  for _ = 0 to 15 do B.add b 10 10 8 done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  let p = B.assemble b in
  let mem = Memory.create () in
  (* warm-up compiles and memoizes *)
  (match run p mem with
   | Ok _ -> ()
   | Error stop -> Alcotest.failf "warmup: %a" Exec.pp_stop stop);
  let mem2 = Memory.create () in
  let a0 = Gc.allocated_bytes () in
  let insns =
    match run p mem2 with
    | Ok (r : Exec.run) -> r.Exec.dynamic_insns
    | Error stop -> Alcotest.failf "run: %a" Exec.pp_stop stop
  in
  (Gc.allocated_bytes () -. a0) /. float_of_int insns

let test_block_allocation () =
  let per = alloc_per_insn (fun p m -> Threaded.run_serial_block p m) in
  Alcotest.(check bool)
    (Fmt.str "%.5f bytes/insn within budget" per) true (per <= 0.05)

let () =
  Alcotest.run "threaded"
    [ ("operators",
       [ QCheck_alcotest.to_alcotest prop_fpu_int_matches;
         QCheck_alcotest.to_alcotest prop_mem_int_accessors ]);
      ("differential",
       [ QCheck_alcotest.to_alcotest prop_block_differential;
         QCheck_alcotest.to_alcotest prop_fuel_parity;
         Alcotest.test_case "fuel edges" `Quick test_fuel_edges;
         Alcotest.test_case "trap parity" `Quick test_trap_parity;
         Alcotest.test_case "mid-block trap" `Quick
           test_midblock_trap_parity;
         Alcotest.test_case "registry kernels" `Quick
           test_registry_differential ]);
      ("plan",
       [ Alcotest.test_case "block plan" `Quick test_block_plan ]);
      ("allocation",
       [ Alcotest.test_case "block straight-line run" `Quick
           test_block_allocation ]);
    ]
