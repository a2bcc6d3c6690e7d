(* ISA-level unit and property tests: register naming, instruction
   metadata (sources/dest/classes), faithful printing, and encode/decode
   round-tripping. *)

open Xloops_isa

let test_reg_names () =
  Alcotest.(check string) "zero" "zero" (Reg.name 0);
  Alcotest.(check string) "ra" "ra" (Reg.name 1);
  Alcotest.(check string) "a0" "a0" (Reg.name 4);
  Alcotest.(check string) "t3" "t3" (Reg.name 11);
  Alcotest.(check string) "s0" "s0" (Reg.name 16);
  Alcotest.(check string) "k1" "k1" (Reg.name 31);
  for r = 0 to 31 do
    Alcotest.(check int) "roundtrip" r (Reg.of_name (Reg.name r))
  done

let test_reg_of_name_r_form () =
  Alcotest.(check int) "r7" 7 (Reg.of_name "r7");
  Alcotest.check_raises "bad name" (Invalid_argument "Reg.of_name: x9")
    (fun () -> ignore (Reg.of_name "x9"))

let uc = { Insn.dp = Uc; cp = Fixed }

let test_sources_dest () =
  let i : int Insn.t = Alu (Add, 5, 6, 7) in
  Alcotest.(check (list int)) "alu srcs" [ 6; 7 ] (Insn.sources i);
  Alcotest.(check (option int)) "alu dest" (Some 5) (Insn.dest i);
  let st : int Insn.t = Store (W, 8, 9, 4) in
  Alcotest.(check (list int)) "store srcs" [ 9; 8 ] (Insn.sources st);
  Alcotest.(check (option int)) "store dest" None (Insn.dest st);
  let x : int Insn.t = Xloop (uc, 4, 5, 0) in
  Alcotest.(check (list int)) "xloop srcs" [ 4; 5 ] (Insn.sources x);
  Alcotest.(check (option int)) "r0 dest hidden" None
    (Insn.dest (Alu (Add, 0, 1, 2) : int Insn.t));
  Alcotest.(check (option int)) "jal writes ra" (Some Reg.ra)
    (Insn.dest (Jal 3 : int Insn.t))

let test_classes () =
  Alcotest.(check bool) "mul is llfu" true
    (Insn.is_llfu (Alu (Mul, 1, 2, 3) : int Insn.t));
  Alcotest.(check bool) "fadd is llfu" true
    (Insn.is_llfu (Fpu (Fadd, 1, 2, 3) : int Insn.t));
  Alcotest.(check bool) "add not llfu" false
    (Insn.is_llfu (Alu (Add, 1, 2, 3) : int Insn.t));
  Alcotest.(check bool) "xloop is branch" true
    (Insn.is_branch (Xloop (uc, 1, 2, 0) : int Insn.t));
  Alcotest.(check bool) "xi" true
    (Insn.is_xi (Xi_addi (1, 1, 4) : int Insn.t));
  Alcotest.(check bool) "amo is mem" true
    (Insn.is_mem (Amo (Amo_add, 1, 2, 3) : int Insn.t))

let test_pp_smoke () =
  let s i = Fmt.str "%a" Insn.pp_resolved i in
  Alcotest.(check string) "add" "add s0, t0, t1"
    (s (Alu (Add, 16, 8, 9)));
  Alcotest.(check string) "xloop" "xloop.uc t4, t3, 2"
    (s (Xloop (uc, 12, 11, 2)));
  Alcotest.(check string) "xloop.db" "xloop.om.db t4, t3, 2"
    (s (Xloop ({ dp = Om; cp = Dyn }, 12, 11, 2)));
  Alcotest.(check string) "xi" "addiu.xi t4, t4, 4"
    (s (Xi_addi (12, 12, 4)));
  Alcotest.(check string) "lw" "lw t0, 8(t1)" (s (Load (W, 8, 9, 8)))

(* -- encode/decode ---------------------------------------------------- *)

let reg_gen = QCheck.Gen.int_range 0 31
let imm_gen = QCheck.Gen.int_range (-32768) 32767
let pc_gen = QCheck.Gen.int_range 0 4095
(* Branch targets stay near the pc so the 16-bit offset is in range. *)

let insn_gen : (int * int Insn.t) QCheck.Gen.t =
  let open QCheck.Gen in
  let* pc = pc_gen in
  let target = int_range (max 0 (pc - 1000)) (pc + 1000) in
  let alu_op =
    oneofl Insn.[ Add; Sub; And; Or_; Xor; Nor; Sll; Srl; Sra; Slt; Sltu;
                  Mul; Mulh; Div; Rem ] in
  let fpu_op =
    oneofl Insn.[ Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Feq; Flt; Fle;
                  Fcvt_sw; Fcvt_ws ] in
  let width = oneofl Insn.[ B; Bu; H; Hu; W ] in
  let amo_op =
    oneofl Insn.[ Amo_add; Amo_and; Amo_or; Amo_xchg; Amo_min; Amo_max ] in
  let cond = oneofl Insn.[ Beq; Bne; Blt; Bge; Bltu; Bgeu ] in
  let dp = oneofl Insn.[ Uc; Or; Om; Orm; Ua ] in
  let cp = oneofl Insn.[ Fixed; Dyn; De ] in
  let* i =
    oneof
      [ (let* o = alu_op and* a = reg_gen and* b = reg_gen
         and* c = reg_gen in
         return (Insn.Alu (o, a, b, c)));
        (let* o = alu_op and* a = reg_gen and* b = reg_gen
         and* i = imm_gen in
         return (Insn.Alui (o, a, b, i)));
        (let* o = fpu_op and* a = reg_gen and* b = reg_gen
         and* c = reg_gen in
         return (Insn.Fpu (o, a, b, c)));
        (let* a = reg_gen and* i = int_range 0 65535 in
         return (Insn.Lui (a, i)));
        (let* w = width and* a = reg_gen and* b = reg_gen
         and* i = imm_gen in
         return (Insn.Load (w, a, b, i)));
        (let* w = width and* a = reg_gen and* b = reg_gen
         and* i = imm_gen in
         return (Insn.Store (w, a, b, i)));
        (let* o = amo_op and* a = reg_gen and* b = reg_gen
         and* c = reg_gen in
         return (Insn.Amo (o, a, b, c)));
        (let* c = cond and* a = reg_gen and* b = reg_gen
         and* l = target in
         return (Insn.Branch (c, a, b, l)));
        (let* l = int_range 0 100000 in return (Insn.Jump l));
        (let* l = int_range 0 100000 in return (Insn.Jal l));
        (let* a = reg_gen in return (Insn.Jr a));
        (let* d = dp and* c = cp and* a = reg_gen and* b = reg_gen
         and* l = target in
         return (Insn.Xloop ({ dp = d; cp = c }, a, b, l)));
        (let* a = reg_gen and* b = reg_gen and* i = imm_gen in
         return (Insn.Xi_addi (a, b, i)));
        (let* a = reg_gen and* b = reg_gen and* c = reg_gen in
         return (Insn.Xi_add (a, b, c)));
        return Insn.Sync;
        return Insn.Halt;
        return Insn.Nop ]
  in
  return (pc, i)

let arb =
  QCheck.make insn_gen
    ~print:(fun (pc, i) -> Fmt.str "@%d: %a" pc Insn.pp_resolved i)

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:2000 arb
    (fun (pc, i) ->
       let w = Encode.to_word pc i in
       Insn.equal Int.equal (Encode.of_word pc w) i)

let prop_dest_not_source_conflict =
  QCheck.Test.make ~name:"sources are valid registers" ~count:500 arb
    (fun (_, i) ->
       List.for_all Reg.is_valid (Insn.sources i)
       && (match Insn.dest i with Some d -> Reg.is_valid d | None -> true))

(* The program cache keys results by the MD5 of a program's listing, so
   two different instructions must never print the same line.  An
   instruction one encoded bit away differs in at most one field; if it
   differs at all, it must print apart. *)
let line i = Fmt.str "%a" Insn.pp_resolved i

let prop_listing_faithful =
  QCheck.Test.make ~name:"same line, same insn" ~count:1000 arb
    (fun (pc, i) ->
       let w = Encode.to_word pc i in
       List.for_all
         (fun bit ->
            match Encode.of_word pc (Int32.logxor w (Int32.shift_left 1l bit))
            with
            | exception Encode.Encoding_error _ -> true
            | j -> line j <> line i || Insn.equal Int.equal i j)
         (List.init 32 Fun.id))

let test_kernel_listings_faithful () =
  let seen = Hashtbl.create 4096 in
  List.iter
    (fun (k : Xloops_kernels.Kernel.t) ->
       List.iter
         (fun target ->
            let c = Xloops_compiler.Compile.compile ~target k.kernel in
            Array.iter
              (fun i ->
                 let l = line i in
                 match Hashtbl.find_opt seen l with
                 | Some j when not (Insn.equal Int.equal i j) ->
                   Alcotest.failf "%s: two instructions print %S" k.name l
                 | Some _ -> ()
                 | None -> Hashtbl.add seen l i)
              c.program.insns)
         Xloops_compiler.Compile.[ general; xloops; xloops_no_xi ])
    Xloops_kernels.Registry.all

let test_encode_errors () =
  Alcotest.check_raises "imm17 rejected"
    (Encode.Encoding_error "imm16 out of range: 40000") (fun () ->
        ignore (Encode.to_word 0 (Alui (Add, 1, 2, 40000) : int Insn.t)));
  Alcotest.check_raises "far branch rejected"
    (Encode.Encoding_error "imm16 out of range: 100000") (fun () ->
        ignore (Encode.to_word 0 (Branch (Beq, 1, 2, 100000) : int Insn.t)))

let test_program_encode () =
  let prog : int Insn.t array =
    [| Alui (Add, 8, 0, 5); Alui (Add, 9, 0, 3); Alu (Add, 10, 8, 9);
       Branch (Bne, 10, 0, 1); Halt |]
  in
  let words = Encode.encode_program prog in
  let back = Encode.decode_program words in
  Array.iteri
    (fun i insn ->
       Alcotest.(check bool) (Printf.sprintf "insn %d" i) true
         (Insn.equal Int.equal insn back.(i)))
    prog

let () =
  Alcotest.run "isa"
    [ ("reg",
       [ Alcotest.test_case "names" `Quick test_reg_names;
         Alcotest.test_case "of_name r-form" `Quick test_reg_of_name_r_form ]);
      ("insn",
       [ Alcotest.test_case "sources/dest" `Quick test_sources_dest;
         Alcotest.test_case "classes" `Quick test_classes;
         Alcotest.test_case "pretty-printing" `Quick test_pp_smoke;
         QCheck_alcotest.to_alcotest prop_listing_faithful;
         Alcotest.test_case "kernel listings" `Quick
           test_kernel_listings_faithful ]);
      ("encode",
       [ QCheck_alcotest.to_alcotest prop_roundtrip;
         QCheck_alcotest.to_alcotest prop_dest_not_source_conflict;
         Alcotest.test_case "range errors" `Quick test_encode_errors;
         Alcotest.test_case "program" `Quick test_program_encode ]);
    ]
