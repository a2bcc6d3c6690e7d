(* Predecoded executor: the fast path (Program.predecode + Exec.step
   over native-int registers) must be observationally identical to the
   reference decoder (Exec.step_ref over the raw instruction stream),
   and must not allocate on straight-line code.

   Three layers:
   - operator/accessor equivalence: the unboxed ALU/branch/FPU
     evaluators and the native-int memory accessors agree with their
     int32 semantic specs on corner-heavy random operands;
   - whole-program differential: random ISA programs (forward control
     flow only, so termination is structural) and every registry kernel
     run to identical registers, memory and instruction counts through
     both executors, with identical out-of-fuel reports and traps;
   - allocation budgets: each interpreter, on a straight-line loop and
     four registry kernels, stays under a committed number of bytes per
     instruction. *)

open Xloops_isa
module B = Xloops_asm.Builder
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module Exec = Xloops_sim.Exec
module Registry = Xloops_kernels.Registry
module Kernel = Xloops_kernels.Kernel
module Compile = Xloops_compiler.Compile

(* -- operator equivalence --------------------------------------------- *)

let gen_int32 =
  let open QCheck.Gen in
  frequency
    [ 4, map Int32.of_int (int_range (-1000) 1000);
      2, map (fun i -> Int32.of_int i) (int_bound 0x7FFFFFFF);
      1, oneofl [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 31l; 32l;
                  0x80000000l; 0x7FFFFFFFl ] ]

let all_alu_ops =
  [ Insn.Add; Sub; And; Or_; Xor; Nor; Sll; Srl; Sra; Slt; Sltu;
    Mul; Mulh; Div; Rem ]

let all_branch_conds = [ Insn.Beq; Bne; Blt; Bge; Bltu; Bgeu ]

let arb_alu_case =
  QCheck.make
    ~print:(fun (op, a, b) ->
        Fmt.str "%s %ld %ld" (Insn.show_alu_op op) a b)
    QCheck.Gen.(triple (oneofl all_alu_ops) gen_int32 gen_int32)

let prop_alu_int_matches =
  QCheck.Test.make ~name:"alu_eval_int matches alu_eval" ~count:2000
    arb_alu_case
    (fun (op, a, b) ->
       Int32.of_int
         (Exec.alu_eval_int op (Int32.to_int a) (Int32.to_int b))
       = Exec.alu_eval op a b)

let prop_branch_int_matches =
  QCheck.Test.make ~name:"branch_eval_int matches branch_eval" ~count:2000
    (QCheck.make
       QCheck.Gen.(triple (oneofl all_branch_conds) gen_int32 gen_int32))
    (fun (c, a, b) ->
       Exec.branch_eval_int c (Int32.to_int a) (Int32.to_int b)
       = Exec.branch_eval c a b)

(* [gen_int32] plus float bit patterns and the IEEE specials. *)
let gen_fp_int32 =
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
       QCheck.Gen.(triple (oneofl all_fpu_ops) gen_fp_int32 gen_fp_int32))
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
    let* v = gen_fp_int32 in
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

(* -- whole-program differential --------------------------------------- *)

(* Random programs with forward-only control flow: every branch or jump
   targets a strictly larger pc, so any path reaches the final Halt and
   fuel is never a factor.  Memory traffic stays inside a scratch window
   based at the (never-overwritten) register 20. *)

let scratch_base = 512

let gen_insn ~pc ~len =
  let open QCheck.Gen in
  let reg = int_range 1 15 in
  let fwd = int_range (pc + 1) len in   (* the Halt sits at [len] *)
  frequency
    [ 6, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Alu (op, rd, rs, rt)));
      4, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* imm = int_range (-40000) 40000 in
          return (Insn.Alui (op, rd, rs, imm)));
      1, (let* rd = reg in
          let* imm = int_range 0 0xFFFF in
          return (Insn.Lui (rd, imm)));
      2, (let* rd = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          let off = match w with
            | B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Load (w, rd, 20, off)));
      2, (let* rt = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          let off = match w with
            | B | Bu -> off | H | Hu -> 2 * off | W -> 4 * off in
          return (Insn.Store (w, rt, 20, off)));
      1, (let* op = oneofl all_amo_ops in
          let* rd = reg in
          let* rt = reg in
          return (Insn.Amo (op, rd, 21, rt)));
      2, (let* c = oneofl all_branch_conds in
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
    (* dependent generation: each insn knows its own pc for forward
       targets *)
    let rec go pc acc =
      if pc = len then return (List.rev acc)
      else
        let* i = gen_insn ~pc ~len in
        go (pc + 1) (i :: acc)
    in
    go 0 []
  in
  (* Seed registers 1..15 with varied immediates, park the scratch
     bases, then the random body, then Halt. *)
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

(* [map_label] on the prologue is a no-op (no labels there) but keeps
   the shift uniform; body targets move past the prologue and [len]
   lands exactly on the Halt. *)

let arb_program =
  QCheck.make gen_program
    ~print:(fun p -> Fmt.str "%a" Program.pp p)

let snapshot (r : Exec.run) mem =
  (r.Exec.dynamic_insns, r.Exec.final.Exec.pc,
   Array.to_list r.Exec.final.Exec.regs,
   Bytes.to_string mem.Memory.data)

let prop_predecode_differential =
  QCheck.Test.make ~name:"predecoded run == reference run" ~count:300
    arb_program
    (fun p ->
       let m1 = Memory.create ~size:4096 () in
       let m2 = Memory.create ~size:4096 () in
       match Exec.run_serial p m1, Exec.run_serial_ref p m2 with
       | Ok r1, Ok r2 -> snapshot r1 m1 = snapshot r2 m2
       | Error _, Error _ -> true
       | _ -> false)

(* Random fuels cut runs at arbitrary points: the Out_of_fuel payload
   (pc, counts) and the memory left behind must be identical. *)
let prop_fuel_parity =
  QCheck.Test.make ~name:"out-of-fuel payloads identical across tiers"
    ~count:400
    (QCheck.make
       QCheck.Gen.(pair gen_program (int_bound 40))
       ~print:(fun (p, fuel) -> Fmt.str "fuel %d@.%a" fuel Program.pp p))
    (fun (p, fuel) ->
       let m1 = Memory.create ~size:4096 () in
       let m2 = Memory.create ~size:4096 () in
       match Exec.run_serial ~fuel p m1, Exec.run_serial_ref ~fuel p m2 with
       | Ok r1, Ok r2 -> snapshot r1 m1 = snapshot r2 m2
       | Error s1, Error s2 ->
         s1 = s2 && Bytes.equal m1.Memory.data m2.Memory.data
       | _ -> false)

let test_trap_parity () =
  (* no halt: running off the end must trap identically in both *)
  let p = { Program.insns = [| Insn.Alu (Add, 1, 1, 1) |]; symbols = [] } in
  let msg run =
    let m = Memory.create () in
    try ignore (run p m); "no-trap" with Exec.Trap m -> m
  in
  Alcotest.(check string) "trap message"
    (msg (fun p m -> Exec.run_serial_ref p m))
    (msg (fun p m -> Exec.run_serial p m))

(* Compiled kernels: richer register pressure and real loop structure
   than the random programs, and deterministic. *)
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
       let m1 = Memory.create () and m2 = Memory.create () in
       let r1 = run (fun p m -> Exec.run_serial p m) m1 in
       let r2 = run (fun p m -> Exec.run_serial_ref p m) m2 in
       if snapshot r1 m1 <> snapshot r2 m2 then
         Alcotest.failf "%s: predecoded and reference runs differ"
           k.Kernel.name)
    Registry.table2

(* -- allocation budgets ------------------------------------------------ *)

(* 16 dependent adds + decrement + branch per iteration: pure register
   ALU work, the interpreter's dispatch loop with nothing else. *)
let straightline ~iters =
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 iters;
  B.li b 10 0;
  B.label b "top";
  for _ = 0 to 15 do B.add b 10 10 8 done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  B.assemble b

(* A workload is a program and a fresh memory for each run: a registry
   kernel's memory is sized to its layout and initialised by its
   [init], as in a sweep. *)
let workload = function
  | "straightline" ->
    (straightline ~iters:100_000, fun () -> Memory.create ())
  | name ->
    let k = Registry.find name in
    let c = Compile.compile k.Kernel.kernel in
    (c.Compile.program,
     fun () ->
       let mem = Memory.create ~size:c.Compile.mem_bytes () in
       k.Kernel.init c.Compile.array_base mem;
       mem)

(* Bytes allocated per dynamic instruction, counted the way
   test_machine counts them: a discarded warm-up run, then one run with
   the minor heap drained before and after (OCaml 5.1 credits what is
   still in the minor heap to [Gc.allocated_bytes] at a fraction of its
   size). *)
let bytes_per_insn run name =
  let prog, mem_of = workload name in
  let once () =
    let mem = mem_of () in
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let insns =
      match run prog mem with
      | Ok r -> r.Exec.dynamic_insns
      | Error stop -> Alcotest.failf "%s: %a" name Exec.pp_stop stop
    in
    Gc.minor ();
    (Gc.allocated_bytes () -. a0) /. float_of_int insns
  in
  ignore (once ());
  once ()

let budget_case name tier run budget =
  Alcotest.test_case (name ^ " " ^ tier) `Quick (fun () ->
      let b = bytes_per_insn run name in
      Alcotest.(check bool)
        (Fmt.str "%s %s: %.3f B/insn <= %.2f" name tier b budget)
        true (b <= budget))

(* Budgets in bytes per instruction.  [Exec.run_serial] keeps registers
   as native ints and passes memory values as ints, so it allocates
   only per-run set-up; its budgets leave room for that.  The reference
   decoder [Exec.run_serial_ref] boxes an [int32] per register read and
   write, and its 200 B/insn only catches drift by an order of
   magnitude. *)
let budget_cases =
  List.concat_map
    (fun (name, budget) ->
       [ budget_case name "ref" (fun p m -> Exec.run_serial_ref p m) 200.0;
         budget_case name "predecode" (fun p m -> Exec.run_serial p m) budget ])
    [ "straightline", 0.10; "sgemm-uc", 1.00; "war-uc", 2.00;
      "bfs-uc-db", 2.00; "adpcm-or", 0.50 ]

let () =
  Alcotest.run "predecode"
    [ ("operators",
       [ QCheck_alcotest.to_alcotest prop_alu_int_matches;
         QCheck_alcotest.to_alcotest prop_branch_int_matches;
         QCheck_alcotest.to_alcotest prop_fpu_int_matches;
         QCheck_alcotest.to_alcotest prop_mem_int_accessors ]);
      ("differential",
       [ QCheck_alcotest.to_alcotest prop_predecode_differential;
         QCheck_alcotest.to_alcotest prop_fuel_parity;
         Alcotest.test_case "trap parity" `Quick test_trap_parity;
         Alcotest.test_case "registry kernels" `Quick
           test_registry_differential ]);
      ("allocation", budget_cases);
    ]
