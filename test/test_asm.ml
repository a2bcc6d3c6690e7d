(* Assembler tests: label resolution, pseudo-instruction expansion, data
   layout. *)

open Xloops_isa
module B = Xloops_asm.Builder
module Program = Xloops_asm.Program
module Layout = Xloops_asm.Layout

let run_serial p mem =
  match Xloops_sim.Exec.run_serial p mem with
  | Ok r -> r
  | Error stop -> failwith (Fmt.str "%a" Xloops_sim.Exec.pp_stop stop)

let test_labels () =
  let b = B.create () in
  B.label b "start";
  B.addi b 8 0 1;
  B.bne b 8 0 "start";
  B.jump b "end";
  B.nop b;
  B.label b "end";
  B.halt b;
  let p = B.assemble b in
  Alcotest.(check int) "length" 5 (Program.length p);
  (match p.insns.(1) with
   | Branch (Bne, _, _, 0) -> ()
   | i -> Alcotest.failf "bad branch: %a" Insn.pp_resolved i);
  (match p.insns.(2) with
   | Jump 4 -> ()
   | i -> Alcotest.failf "bad jump: %a" Insn.pp_resolved i);
  Alcotest.(check int) "symbol" 4 (Program.address_of_symbol p "end")

let test_undefined_label () =
  let b = B.create () in
  B.jump b "nowhere";
  Alcotest.check_raises "undefined" (B.Undefined_label "nowhere")
    (fun () -> ignore (B.assemble b))

let test_duplicate_label () =
  let b = B.create () in
  B.label b "x";
  B.nop b;
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder.label: duplicate label x")
    (fun () -> B.label b "x")

let test_li_small () =
  let b = B.create () in
  B.li b 8 42;
  B.li b 9 (-100);
  let p = B.assemble b in
  Alcotest.(check int) "2 insns" 2 (Program.length p);
  (match p.insns.(0) with
   | Alui (Add, 8, 0, 42) -> ()
   | i -> Alcotest.failf "bad li: %a" Insn.pp_resolved i)

let test_li_large () =
  let b = B.create () in
  B.li b 8 0x12345678;
  let p = B.assemble b in
  Alcotest.(check int) "lui+ori" 2 (Program.length p);
  (match p.insns.(0), p.insns.(1) with
   | Lui (8, 0x1234), Alui (Or_, 8, 8, 0x5678) -> ()
   | _ -> Alcotest.fail "bad expansion");
  (* Execute it to be sure. *)
  let mem = Xloops_mem.Memory.create () in
  let b2 = B.create () in
  B.li b2 8 0x12345678;
  B.halt b2;
  let p2 = B.assemble b2 in
  let r = run_serial p2 mem in
  Alcotest.(check int32) "value" 0x12345678l (Xloops_sim.Exec.get r.final 8)

let test_li_negative_large () =
  let mem = Xloops_mem.Memory.create () in
  let b = B.create () in
  B.li b 8 (-123456789);
  B.halt b;
  let p = B.assemble b in
  let r = run_serial p mem in
  Alcotest.(check int32) "negative" (-123456789l) (Xloops_sim.Exec.get r.final 8)

let test_fresh_labels () =
  let b = B.create () in
  let l1 = B.fresh_label b "loop" in
  let l2 = B.fresh_label b "loop" in
  Alcotest.(check bool) "distinct" true (l1 <> l2)

let test_layout () =
  let l = Layout.create () in
  let a = Layout.alloc_words l ~name:"a" ~n:10 in
  let bb = Layout.alloc l ~name:"b" ~bytes:3 in
  let c = Layout.alloc_words l ~name:"c" ~n:1 in
  Alcotest.(check int) "base" 0x1000 a;
  Alcotest.(check int) "b after a" (0x1000 + 40) bb;
  Alcotest.(check int) "c aligned" (0x1000 + 44) c;
  Alcotest.(check int) "find" 0x1000 (Layout.find l "a").base;
  Alcotest.check_raises "missing" (Invalid_argument "Layout.find: zz")
    (fun () -> ignore (Layout.find l "zz"))

let test_layout_overflow () =
  let l = Layout.create () in
  ignore (Layout.alloc l ~name:"a" ~bytes:0xf00);
  Alcotest.(check bool) "raises" true
    (try ignore (Layout.alloc l ~name:"b" ~bytes:(1 lsl 20)); false
     with Invalid_argument _ -> true)

let test_disasm_roundtrip () =
  let b = B.create () in
  B.li b 8 7;
  B.label b "top";
  B.addi b 8 8 (-1);
  B.bne b 8 0 "top";
  B.halt b;
  let p = B.assemble b in
  let s = Program.to_string p in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "mentions label" true (contains s "top:");
  Alcotest.(check bool) "mentions bne" true (contains s "bne")

let () =
  Alcotest.run "asm"
    [ ("builder",
       [ Alcotest.test_case "labels" `Quick test_labels;
         Alcotest.test_case "undefined label" `Quick test_undefined_label;
         Alcotest.test_case "duplicate label" `Quick test_duplicate_label;
         Alcotest.test_case "li small" `Quick test_li_small;
         Alcotest.test_case "li large" `Quick test_li_large;
         Alcotest.test_case "li negative" `Quick test_li_negative_large;
         Alcotest.test_case "fresh labels" `Quick test_fresh_labels ]);
      ("layout",
       [ Alcotest.test_case "alloc" `Quick test_layout;
         Alcotest.test_case "overflow" `Quick test_layout_overflow ]);
      ("disasm", [ Alcotest.test_case "labels shown" `Quick
                     test_disasm_roundtrip ]);
    ]

