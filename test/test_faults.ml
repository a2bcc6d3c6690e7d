(* Fault injection, progress watchdog, and graceful degradation: the
   robustness layer.  Covers fault-plan determinism, the memory write
   journal, watchdog hang diagnostics, checkpoint/restore with
   traditional fallback, and the 25-kernel differential sweep. *)

open Xloops_isa
module B = Xloops_asm.Builder
module Memory = Xloops_mem.Memory
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Fault = Xloops_sim.Fault
module Differential = Xloops.Differential

(* -- fault plans ---------------------------------------------------- *)

let plan_str ~seed ~events =
  Fmt.str "%a" Fault.pp_plan (Fault.plan ~seed ~events ())

let test_plan_deterministic () =
  Alcotest.(check string) "same seed, same plan"
    (plan_str ~seed:7 ~events:16) (plan_str ~seed:7 ~events:16);
  Alcotest.(check bool) "different seed, different plan" true
    (plan_str ~seed:7 ~events:16 <> plan_str ~seed:8 ~events:16);
  Alcotest.(check int) "all events pending" 16
    (Fault.pending (Fault.plan ~seed:7 ~events:16 ()))

let test_plan_covers_kinds () =
  (* A seeded plan rotates through every fault kind. *)
  let p = Fault.plan ~seed:3 ~events:(List.length Fault.all_kinds) () in
  let fired = ref [] in
  let rec drain rel =
    if Fault.pending p > 0 && rel <= 10_000 then begin
      Fault.fire p ~rel (fun e -> fired := e :: !fired; true);
      drain (rel + 1)
    end
  in
  drain 0;
  let kinds =
    List.map (fun e -> e.Fault.ev_kind) !fired |> List.sort_uniq compare
  in
  Alcotest.(check int) "every kind scheduled once"
    (List.length Fault.all_kinds) (List.length kinds)

let test_fire () =
  let ev k after = { Fault.ev_after = after; ev_lane = 0; ev_kind = k } in
  let p =
    Fault.explicit
      [ ev Fault.Cib_drop 5; ev Fault.Lane_freeze 5; ev Fault.Port_stall 9 ]
  in
  let offered = ref [] in
  let fire ~rel accept =
    offered := [];
    Fault.fire p ~rel (fun e ->
        offered := e.Fault.ev_kind :: !offered;
        accept e.Fault.ev_kind)
  in
  let kinds = Alcotest.list (Alcotest.of_pp Fault.pp_kind) in
  fire ~rel:4 (fun _ -> true);
  Alcotest.(check kinds) "nothing offered before its cycle" [] !offered;
  Alcotest.(check int) "next due at 5" 5 (Fault.next_due p ~rel:4);
  (* Two declined events are offered in plan order on every call and
     keep their places. *)
  fire ~rel:5 (fun _ -> false);
  Alcotest.(check kinds) "both offered, in plan order"
    [ Fault.Cib_drop; Fault.Lane_freeze ] (List.rev !offered);
  fire ~rel:6 (fun _ -> false);
  Alcotest.(check kinds) "offered again, in plan order"
    [ Fault.Cib_drop; Fault.Lane_freeze ] (List.rev !offered);
  Alcotest.(check int) "declined events stay pending" 3 (Fault.pending p);
  Alcotest.(check int) "nothing injected yet" 0 (Fault.injected p);
  Alcotest.(check int) "next not yet due is 9" 9 (Fault.next_due p ~rel:6);
  fire ~rel:7 (fun k -> k = Fault.Lane_freeze);
  Alcotest.(check int) "one injection" 1 (Fault.injected p);
  Alcotest.(check int) "the declined one still pending" 2 (Fault.pending p);
  fire ~rel:9 (fun _ -> true);
  Alcotest.(check kinds) "the rest offered in plan order"
    [ Fault.Cib_drop; Fault.Port_stall ] (List.rev !offered);
  Alcotest.(check int) "plan drained" 0 (Fault.pending p);
  Alcotest.(check int) "none left to fall due" max_int
    (Fault.next_due p ~rel:9);
  Alcotest.(check int) "applied events recorded" 3 (Fault.injected p);
  Alcotest.(check kinds) "recorded kinds"
    [ Fault.Cib_drop; Fault.Port_stall; Fault.Lane_freeze ]
    (Fault.injected_kinds p)

(* -- memory write journal ------------------------------------------- *)

let test_journal_abort_restores () =
  let mem = Memory.create () in
  Memory.set_int mem 0x100 41;
  Memory.set_u8 mem 0x104 7;
  Memory.journal_begin mem;
  Memory.set_int mem 0x100 999;
  Memory.set_u8 mem 0x104 0xff;
  Memory.set_u16 mem 0x200 0xbeef;   (* untouched before the journal *)
  Alcotest.(check bool) "journal active" true (Memory.journal_active mem);
  Alcotest.(check bool) "journal non-empty" true (Memory.journal_size mem > 0);
  Memory.journal_abort mem;
  Alcotest.(check int) "word restored" 41 (Memory.get_int mem 0x100);
  Alcotest.(check int) "byte restored" 7 (Memory.get_u8 mem 0x104);
  Alcotest.(check int) "fresh write rolled back" 0 (Memory.get_u16 mem 0x200);
  Alcotest.(check bool) "journal closed" false (Memory.journal_active mem)

let test_journal_commit_keeps () =
  let mem = Memory.create () in
  Memory.set_int mem 0x100 41;
  Memory.journal_begin mem;
  Memory.set_int mem 0x100 999;
  Memory.journal_commit mem;
  Alcotest.(check int) "write kept" 999 (Memory.get_int mem 0x100);
  Alcotest.(check bool) "journal closed" false (Memory.journal_active mem)

(* Overlapping writes of every width to the same bytes: rollback must
   restore the pre-image exactly, and the journal still counts distinct
   bytes, not writes. *)
let test_journal_rewrites () =
  let mem = Memory.create () in
  Memory.set_i32 mem 0x300 0x11223344l;
  Memory.set_i32 mem 0x304 0x55667788l;
  let before = Memory.read_bytes mem ~addr:0x2F8 ~n:24 in
  Memory.journal_begin mem;
  Memory.set_u8 mem 0x301 0xAA;
  Memory.set_u16 mem 0x300 0xBEEF;
  Memory.set_i32 mem 0x300 0x0BADF00Dl;
  ignore (Memory.amo mem Xloops_isa.Insn.Amo_add 0x300 5l);
  ignore (Memory.amo_int mem Xloops_isa.Insn.Amo_xchg 0x304 (-1));
  Memory.set_u8 mem 0x302 0x01;
  Alcotest.(check int) "distinct bytes" 8 (Memory.journal_size mem);
  Memory.journal_abort mem;
  Alcotest.(check (array int)) "pre-image restored" before
    (Memory.read_bytes mem ~addr:0x2F8 ~n:24);
  Alcotest.(check int) "closed journal is empty" 0 (Memory.journal_size mem)

let test_journal_no_nesting () =
  let mem = Memory.create () in
  Memory.journal_begin mem;
  Alcotest.(check bool) "double begin rejected" true
    (try Memory.journal_begin mem; false
     with Invalid_argument _ -> true);
  Memory.journal_abort mem

(* -- watchdog and degradation on a hand-assembled kernel ------------ *)

(* Same vector-add xloop.uc as test_lpsu: a[i] = b[i] + c[i]. *)

let t0 = Reg.t0 and t1 = Reg.t1 and t2 = Reg.t2 and t3 = Reg.t3
let t4 = Reg.t4 and t5 = Reg.t5 and t6 = Reg.t6 and t7 = Reg.t7
let base_b = 0x1000 and base_c = 0x2000 and base_a = 0x3000

let vector_add_prog n =
  let uc = { Insn.dp = Uc; cp = Fixed } in
  let b = B.create () in
  B.li b t0 base_b;
  B.li b t1 base_c;
  B.li b t2 base_a;
  B.li b t3 (n * 4);
  B.li b t4 0;
  B.label b "body";
  B.add b t5 t0 t4;
  B.lw b t6 t5 0;
  B.add b t5 t1 t4;
  B.lw b t7 t5 0;
  B.add b t6 t6 t7;
  B.add b t5 t2 t4;
  B.sw b t6 t5 0;
  B.xi_addi b t4 t4 4;
  B.xloop b uc t4 t3 "body";
  B.halt b;
  B.assemble b

let setup_vectors n =
  let mem = Memory.create () in
  for i = 0 to n - 1 do
    Memory.set_int mem (base_b + 4 * i) (i * 3);
    Memory.set_int mem (base_c + 4 * i) (i * 5 + 1)
  done;
  mem

let check_vector_add n mem =
  for i = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "a[%d]" i)
      ((i * 3) + (i * 5 + 1))
      (Memory.get_int mem (base_a + 4 * i))
  done

let freeze_plan () =
  Fault.explicit
    [ { Fault.ev_after = 12; ev_lane = 0; ev_kind = Fault.Lane_freeze } ]

(* The acceptance criterion: an injected lane freeze must surface as a
   named hang diagnostic from the watchdog, not as fuel exhaustion. *)
let test_watchdog_names_frozen_lane () =
  let n = 256 in
  let prog = vector_add_prog n in
  let mem = setup_vectors n in
  match
    Machine.simulate ~faults:(freeze_plan ()) ~watchdog:400 ~degrade:false
      ~cfg:Config.io_x ~mode:Machine.Specialized prog mem
  with
  | Ok _ -> Alcotest.fail "frozen lane went unnoticed"
  | Error (Machine.Out_of_fuel _) ->
    Alcotest.fail "watchdog should trip long before fuel runs out"
  | Error (Machine.Lpsu_hang h) ->
    Alcotest.(check string) "blamed resource" "frozen lane"
      (Fault.resource_name h.Fault.h_resource);
    Alcotest.(check bool) "made some progress first" true
      (h.Fault.h_committed > 0);
    Alcotest.(check bool) "detail names a lane" true
      (String.length h.Fault.h_detail > 0)

(* With the safety net on, the same freeze rolls back to the loop-entry
   checkpoint and re-executes traditionally: correct result, degradation
   counted, hang diagnostic retained. *)
let test_degrade_recovers () =
  let n = 256 in
  let prog = vector_add_prog n in
  let mem = setup_vectors n in
  let m =
    Machine.create ~faults:(freeze_plan ()) ~watchdog:400 ~degrade:true
      ~cfg:Config.io_x ~mode:Machine.Specialized ~prog ~mem ()
  in
  (match Machine.run m with
   | Error f -> Alcotest.failf "degraded run failed: %a" Machine.pp_failure f
   | Ok r ->
     check_vector_add n mem;
     Alcotest.(check bool) "degradation counted" true
       (r.stats.degradations >= 1);
     Alcotest.(check bool) "hang counted" true (r.stats.watchdog_hangs >= 1);
     Alcotest.(check bool) "fell back to traditional" true
       (r.stats.xloops_traditional >= 1));
  match Machine.hangs m with
  | [] -> Alcotest.fail "hang diagnostic not retained"
  | h :: _ ->
    Alcotest.(check string) "retained diagnostic blames the lane"
      "frozen lane" (Fault.resource_name h.Fault.h_resource)

(* A run that completes under silently injected corruption must also be
   rolled back — Ok-with-faults is not trustworthy. *)
let test_silent_corruption_degrades () =
  let n = 128 in
  let prog = vector_add_prog n in
  let mem = setup_vectors n in
  let faults =
    Fault.explicit
      [ { Fault.ev_after = 8; ev_lane = 1; ev_kind = Fault.Idq_corrupt } ]
  in
  let m =
    Machine.create ~faults ~watchdog:10_000 ~cfg:Config.io_x
      ~mode:Machine.Specialized ~prog ~mem ()
  in
  match Machine.run m with
  | Error f -> Alcotest.failf "run failed: %a" Machine.pp_failure f
  | Ok r ->
    check_vector_add n mem;
    Alcotest.(check bool) "fault recorded" true (r.stats.faults_injected >= 1);
    Alcotest.(check bool) "run degraded" true (r.stats.degradations >= 1)

(* -- the 25-kernel differential sweep ------------------------------- *)

let test_table2_differential () =
  let outcomes, kinds = Differential.check_table2 ~seed:2014 () in
  Alcotest.(check int) "all Table II kernels swept" 25
    (List.length outcomes);
  List.iter
    (fun o ->
       if not (Differential.ok o) then
         Alcotest.failf "degraded run diverged: %a" Differential.pp_outcome o)
    outcomes;
  (* Every fault kind must actually fire somewhere in the sweep. *)
  let missing =
    List.filter (fun k -> not (List.mem k kinds)) Fault.all_kinds in
  if missing <> [] then
    Alcotest.failf "fault kinds never injected: %a"
      Fmt.(list ~sep:comma Fault.pp_kind) missing

let () =
  Alcotest.run "faults"
    [ ("plan",
       [ Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
         Alcotest.test_case "covers kinds" `Quick test_plan_covers_kinds;
         Alcotest.test_case "fire" `Quick test_fire ]);
      ("journal",
       [ Alcotest.test_case "abort restores" `Quick
           test_journal_abort_restores;
         Alcotest.test_case "commit keeps" `Quick test_journal_commit_keeps;
         Alcotest.test_case "rewrites restore" `Quick test_journal_rewrites;
         Alcotest.test_case "no nesting" `Quick test_journal_no_nesting ]);
      ("watchdog",
       [ Alcotest.test_case "names frozen lane" `Quick
           test_watchdog_names_frozen_lane;
         Alcotest.test_case "degrade recovers" `Quick test_degrade_recovers;
         Alcotest.test_case "silent corruption degrades" `Quick
           test_silent_corruption_degrades ]);
      ("differential",
       [ Alcotest.test_case "table2 sweep" `Quick test_table2_differential ]);
    ]
