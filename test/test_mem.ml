(* Memory subsystem tests: byte-addressable memory with AMOs, the cache
   timing model, and the shared-port arbiter. *)

module Memory = Xloops_mem.Memory
module Cache = Xloops_mem.Cache
module Port = Xloops_mem.Port
open Xloops_isa.Insn

let test_byte_halfword_word () =
  let m = Memory.create () in
  Memory.set_i32 m 0x100 0x11223344l;
  Alcotest.(check int) "byte 0" 0x44 (Memory.get_u8 m 0x100);
  Alcotest.(check int) "byte 3" 0x11 (Memory.get_u8 m 0x103);
  Alcotest.(check int) "half 0" 0x3344 (Memory.get_u16 m 0x100);
  Alcotest.(check int) "half 1" 0x1122 (Memory.get_u16 m 0x102);
  Memory.set_u8 m 0x101 0xFF;
  Alcotest.(check int32) "patched" 0x1122FF44l (Memory.get_i32 m 0x100)

let test_sign_extension () =
  let m = Memory.create () in
  Memory.set_u8 m 0x10 0x80;
  Alcotest.(check int32) "lb sext" (-128l) (Memory.load m B 0x10);
  Alcotest.(check int32) "lbu zext" 128l (Memory.load m Bu 0x10);
  Memory.set_u16 m 0x20 0x8000;
  Alcotest.(check int32) "lh sext" (-32768l) (Memory.load m H 0x20);
  Alcotest.(check int32) "lhu zext" 32768l (Memory.load m Hu 0x20)

let test_store_widths () =
  let m = Memory.create () in
  Memory.store m W 0x40 0x7FFFFFFFl;
  Memory.store m B 0x40 0xABl;
  Alcotest.(check int32) "byte store" 0x7FFFFFABl (Memory.get_i32 m 0x40);
  Memory.store m H 0x42 0x1234l;
  Alcotest.(check int32) "half store" 0x1234FFABl (Memory.get_i32 m 0x40)

let test_alignment_and_bounds () =
  let m = Memory.create ~size:4096 () in
  Alcotest.(check bool) "misaligned word" true
    (try ignore (Memory.get_i32 m 0x41); false
     with Memory.Bad_access _ -> true);
  Alcotest.(check bool) "out of bounds" true
    (try ignore (Memory.get_u8 m 5000); false
     with Memory.Bad_access _ -> true);
  Alcotest.(check bool) "negative" true
    (try ignore (Memory.get_u8 m (-1)); false
     with Memory.Bad_access _ -> true)

let test_amo () =
  let m = Memory.create () in
  Memory.set_i32 m 0x80 10l;
  Alcotest.(check int32) "amo_add old" 10l (Memory.amo m Amo_add 0x80 5l);
  Alcotest.(check int32) "amo_add new" 15l (Memory.get_i32 m 0x80);
  Alcotest.(check int32) "amo_xchg old" 15l (Memory.amo m Amo_xchg 0x80 99l);
  Alcotest.(check int32) "amo_xchg new" 99l (Memory.get_i32 m 0x80);
  ignore (Memory.amo m Amo_min 0x80 50l);
  Alcotest.(check int32) "amo_min" 50l (Memory.get_i32 m 0x80);
  ignore (Memory.amo m Amo_max 0x80 70l);
  Alcotest.(check int32) "amo_max" 70l (Memory.get_i32 m 0x80);
  ignore (Memory.amo m Amo_and 0x80 0x3Cl);
  Alcotest.(check int32) "amo_and" (Int32.logand 70l 0x3Cl)
    (Memory.get_i32 m 0x80);
  ignore (Memory.amo m Amo_or 0x80 0x80l);
  Alcotest.(check bool) "amo_or" true
    (Int32.logand (Memory.get_i32 m 0x80) 0x80l <> 0l)

let test_float_roundtrip () =
  let m = Memory.create () in
  Memory.set_f32 m 0x200 3.25;
  Alcotest.(check (float 0.0001)) "f32" 3.25 (Memory.get_f32 m 0x200)

let test_bulk_helpers () =
  let m = Memory.create () in
  Memory.blit_int_array m ~addr:0x300 [| 1; -2; 3 |];
  Alcotest.(check (array int)) "ints" [| 1; -2; 3 |]
    (Memory.read_int_array m ~addr:0x300 ~n:3);
  Memory.blit_bytes m ~addr:0x400 [| 10; 20; 255 |];
  Alcotest.(check (array int)) "bytes" [| 10; 20; 255 |]
    (Memory.read_bytes m ~addr:0x400 ~n:3)

(* -- cache ------------------------------------------------------------ *)

let test_cache_cold_then_hot () =
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:32 () in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit same line" true (Cache.access c 4);
  Alcotest.(check bool) "hit again" true (Cache.access c 31);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32);
  Alcotest.(check int) "2 misses" 2 (Cache.misses c);
  Alcotest.(check int) "4 accesses" 4 (Cache.accesses c)

let test_cache_lru () =
  (* 2 ways, 16 sets of 32B: addresses 0, 1024, 2048 map to set 0. *)
  let c = Cache.create ~size_bytes:1024 ~ways:2 ~line_bytes:32 () in
  ignore (Cache.access c 0);      (* miss, fill way0 *)
  ignore (Cache.access c 1024);   (* miss, fill way1 *)
  Alcotest.(check bool) "0 still hot" true (Cache.access c 0);
  ignore (Cache.access c 2048);   (* miss, evicts 1024 (LRU) *)
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "1024 evicted" false (Cache.access c 1024)

let test_cache_fits_working_set () =
  (* A 16KB working set in a 16KB cache: after warmup, all hits. *)
  let c = Cache.create () in
  for i = 0 to 511 do ignore (Cache.access c (i * 32)) done;
  Cache.reset_counters c;
  for _pass = 1 to 3 do
    for i = 0 to 511 do
      Alcotest.(check bool) "hot" true (Cache.access c (i * 32))
    done
  done;
  Alcotest.(check (float 0.001)) "zero miss rate" 0.0 (Cache.miss_rate c)

(* -- port -------------------------------------------------------------- *)

let test_port_width () =
  let p = Port.create ~width:2 "mem" in
  let grants =
    List.map (fun now -> Port.try_grant p ~now ~occupancy:1) [ 10; 10; 10; 11 ]
  in
  (* Two grants fill cycle 10's width, the third request is denied, and
     the next cycle grants again: 3 grants, 1 conflict. *)
  Alcotest.(check (list bool)) "grant, grant, deny, grant"
    [ true; true; false; true ] grants;
  Alcotest.(check int) "width alone holds nothing" 0 (Port.busy_until p)

let test_port_occupancy () =
  let p = Port.create "llfu" in
  Alcotest.(check bool) "div grant" true
    (Port.try_grant p ~now:0 ~occupancy:12);
  Alcotest.(check int) "held until 12" 12 (Port.busy_until p);
  Alcotest.(check bool) "busy at 5" false (Port.try_grant p ~now:5 ~occupancy:1);
  Alcotest.(check bool) "busy at 11" false (Port.try_grant p ~now:11 ~occupancy:1);
  Alcotest.(check bool) "free at 12" true (Port.try_grant p ~now:12 ~occupancy:1)

(* -- qcheck properties -------------------------------------------------- *)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"word write/read roundtrip" ~count:500
    QCheck.(pair (int_range 0 1000) int32)
    (fun (w, v) ->
       let m = Memory.create () in
       let addr = w * 4 in
       Memory.set_i32 m addr v;
       Memory.get_i32 m addr = v)

let prop_byte_assembly =
  QCheck.Test.make ~name:"word equals its four bytes" ~count:500
    QCheck.(pair (int_range 0 1000) int32)
    (fun (w, v) ->
       let m = Memory.create () in
       let addr = w * 4 in
       Memory.set_i32 m addr v;
       let b i = Memory.get_u8 m (addr + i) in
       let reassembled =
         b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
       Int32.of_int reassembled = v
       || Int32.to_int v land 0xFFFFFFFF = reassembled)

let () =
  Alcotest.run "mem"
    [ ("memory",
       [ Alcotest.test_case "byte/half/word" `Quick test_byte_halfword_word;
         Alcotest.test_case "sign extension" `Quick test_sign_extension;
         Alcotest.test_case "store widths" `Quick test_store_widths;
         Alcotest.test_case "alignment/bounds" `Quick
           test_alignment_and_bounds;
         Alcotest.test_case "amo" `Quick test_amo;
         Alcotest.test_case "float" `Quick test_float_roundtrip;
         Alcotest.test_case "bulk" `Quick test_bulk_helpers;
         QCheck_alcotest.to_alcotest prop_mem_roundtrip;
         QCheck_alcotest.to_alcotest prop_byte_assembly ]);
      ("cache",
       [ Alcotest.test_case "cold/hot" `Quick test_cache_cold_then_hot;
         Alcotest.test_case "lru" `Quick test_cache_lru;
         Alcotest.test_case "working set" `Quick
           test_cache_fits_working_set ]);
      ("port",
       [ Alcotest.test_case "width" `Quick test_port_width;
         Alcotest.test_case "occupancy" `Quick test_port_occupancy ]);
    ]
