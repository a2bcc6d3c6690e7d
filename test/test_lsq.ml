(* Load-store-queue tests: byte-accurate overlay semantics checked
   against a simple reference model with QCheck, plus the capacity,
   overlap and drain behaviour the LPSU relies on. *)

open Xloops_isa
module Lsq = Xloops_sim.Lsq
module Memory = Xloops_mem.Memory

let test_forwarding_exact () =
  let mem = Memory.create () in
  Memory.set_i32 mem 0x100 0x11111111l;
  let q = Lsq.create ~max_loads:8 ~max_stores:8 in
  Lsq.record_store q ~addr:0x100 ~bytes:4 ~value:0x22222222;
  Alcotest.(check int) "forwarded" 0x22222222
    (Lsq.read q mem W 0x100);
  Alcotest.(check int) "memory untouched" 0x11111111
    (Memory.get_int mem 0x100)

let test_partial_overlay () =
  (* A byte store overlays one byte of a word read. *)
  let mem = Memory.create () in
  Memory.set_i32 mem 0x200 0x44332211l;
  let q = Lsq.create ~max_loads:8 ~max_stores:8 in
  Lsq.record_store q ~addr:0x201 ~bytes:1 ~value:0xAA;
  Alcotest.(check int) "one byte overlaid" 0x4433AA11
    (Lsq.read q mem W 0x200)

let test_youngest_store_wins () =
  let mem = Memory.create () in
  let q = Lsq.create ~max_loads:8 ~max_stores:8 in
  Lsq.record_store q ~addr:0x300 ~bytes:4 ~value:1;
  Lsq.record_store q ~addr:0x300 ~bytes:4 ~value:2;
  Alcotest.(check int) "youngest" 2 (Lsq.read q mem W 0x300)

let test_sign_extension_through_overlay () =
  let mem = Memory.create () in
  let q = Lsq.create ~max_loads:8 ~max_stores:8 in
  Lsq.record_store q ~addr:0x400 ~bytes:1 ~value:0x80;
  Alcotest.(check int) "lb sext" (-128) (Lsq.read q mem B 0x400);
  Alcotest.(check int) "lbu zext" 128 (Lsq.read q mem Bu 0x400);
  Lsq.record_store q ~addr:0x402 ~bytes:2 ~value:0x8000;
  Alcotest.(check int) "lh sext" (-32768) (Lsq.read q mem H 0x402)

let test_capacity () =
  let q = Lsq.create ~max_loads:2 ~max_stores:2 in
  Alcotest.(check bool) "empty" true (Lsq.is_empty q);
  Lsq.record_load q ~addr:0 ~bytes:4;
  Lsq.record_load q ~addr:4 ~bytes:4;
  Alcotest.(check bool) "loads full" true (Lsq.loads_full q);
  Alcotest.(check bool) "stores not full" false (Lsq.stores_full q);
  Lsq.record_store q ~addr:0 ~bytes:4 ~value:0;
  Lsq.record_store q ~addr:4 ~bytes:4 ~value:0;
  Alcotest.(check bool) "stores full" true (Lsq.stores_full q);
  Lsq.clear q;
  Alcotest.(check bool) "cleared" true (Lsq.is_empty q)

let test_overlap_checks () =
  let q = Lsq.create ~max_loads:8 ~max_stores:8 in
  Lsq.record_load q ~addr:0x100 ~bytes:4;
  Alcotest.(check bool) "exact" true (Lsq.load_overlaps q ~addr:0x100 ~bytes:4);
  Alcotest.(check bool) "partial low" true
    (Lsq.load_overlaps q ~addr:0x0FE ~bytes:4);
  Alcotest.(check bool) "partial high" true
    (Lsq.load_overlaps q ~addr:0x103 ~bytes:1);
  Alcotest.(check bool) "adjacent below" false
    (Lsq.load_overlaps q ~addr:0x0FC ~bytes:4);
  Alcotest.(check bool) "adjacent above" false
    (Lsq.load_overlaps q ~addr:0x104 ~bytes:4)

let test_drain_order_and_apply () =
  let mem = Memory.create () in
  let q = Lsq.create ~max_loads:8 ~max_stores:8 in
  Lsq.record_store q ~addr:0x500 ~bytes:4 ~value:1;
  Lsq.record_store q ~addr:0x504 ~bytes:4 ~value:2;
  Lsq.record_store q ~addr:0x500 ~bytes:4 ~value:3;  (* overwrites *)
  Alcotest.(check int) "3 stores" 3 (Lsq.n_stores q);
  for i = 0 to Lsq.n_stores q - 1 do Lsq.drain_store q mem i done;
  Alcotest.(check int) "final 0x500" 3 (Memory.get_int mem 0x500);
  Alcotest.(check int) "final 0x504" 2 (Memory.get_int mem 0x504)

(* -- property: overlay == apply-then-read ------------------------------- *)

(* Random (addr, width, value) store sequences; reading any byte through
   the overlay must equal draining the stores into a copy of memory and
   reading there. *)

let width_gen =
  QCheck.Gen.oneofl [ (Insn.B, 1); (Insn.H, 2); (Insn.W, 4) ]

let stores_gen =
  QCheck.Gen.(list_size (int_range 0 12)
                (pair (int_range 0 15) width_gen))

let arb =
  QCheck.make stores_gen
    ~print:(fun l ->
        String.concat ";"
          (List.map (fun (slot, (_, b)) ->
               Printf.sprintf "(%d,%db)" slot b) l))

let prop_overlay_matches_drain =
  QCheck.Test.make ~name:"overlay read == drained memory read" ~count:500
    arb
    (fun stores ->
       let mem = Memory.create ~size:4096 () in
       let shadow = Memory.create ~size:4096 () in
       (* Seed both memories identically. *)
       for w = 0 to 63 do
         Memory.set_i32 mem (w * 4) (Int32.of_int (w * 0x01010101));
         Memory.set_i32 shadow (w * 4) (Int32.of_int (w * 0x01010101))
       done;
       let q = Lsq.create ~max_loads:64 ~max_stores:64 in
       List.iteri
         (fun i (slot, (_, bytes)) ->
            let addr = slot * 4 in  (* aligned for any width *)
            let value = 0x5A000000 + i in
            Lsq.record_store q ~addr ~bytes ~value)
         stores;
       (* Drain into the shadow memory. *)
       for i = 0 to Lsq.n_stores q - 1 do Lsq.drain_store q shadow i done;
       (* Every word read through the overlay equals the shadow. *)
       let ok = ref true in
       for w = 0 to 63 do
         if Lsq.read q mem W (w * 4) <> Memory.get_int shadow (w * 4) then
           ok := false
       done;
       !ok)

let prop_store_overlap_consistent =
  QCheck.Test.make ~name:"store_overlaps agrees with forwarding" ~count:500
    arb
    (fun stores ->
       let mem = Memory.create ~size:4096 () in
       let q = Lsq.create ~max_loads:64 ~max_stores:64 in
       List.iteri
         (fun i (slot, (_, bytes)) ->
            Lsq.record_store q ~addr:(slot * 4) ~bytes
              ~value:(i + 1))
         stores;
       (* If no store overlaps a range, the overlay read must equal raw
          memory. *)
       let ok = ref true in
       for w = 0 to 63 do
         if not (Lsq.store_overlaps q ~addr:(w * 4) ~bytes:4)
         && Lsq.read q mem W (w * 4) <> Memory.get_int mem (w * 4) then
           ok := false
       done;
       !ok)

let () =
  Alcotest.run "lsq"
    [ ("overlay",
       [ Alcotest.test_case "exact forwarding" `Quick test_forwarding_exact;
         Alcotest.test_case "partial byte" `Quick test_partial_overlay;
         Alcotest.test_case "youngest wins" `Quick test_youngest_store_wins;
         Alcotest.test_case "sign extension" `Quick
           test_sign_extension_through_overlay;
         QCheck_alcotest.to_alcotest prop_overlay_matches_drain;
         QCheck_alcotest.to_alcotest prop_store_overlap_consistent ]);
      ("structure",
       [ Alcotest.test_case "capacity" `Quick test_capacity;
         Alcotest.test_case "overlap checks" `Quick test_overlap_checks;
         Alcotest.test_case "drain" `Quick test_drain_order_and_apply ]);
    ]
