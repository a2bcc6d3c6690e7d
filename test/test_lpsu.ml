(* Specialized-execution correctness and performance sanity checks, using
   small hand-assembled xloop kernels for each dependence pattern. *)

open Xloops_isa
module B = Xloops_asm.Builder
module Memory = Xloops_mem.Memory
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config

let uc = { Insn.dp = Uc; cp = Fixed }
let or_ = { Insn.dp = Or; cp = Fixed }
let om = { Insn.dp = Om; cp = Fixed }
let ua = { Insn.dp = Ua; cp = Fixed }
let uc_db = { Insn.dp = Uc; cp = Dyn }

let t0 = Reg.t0 and t1 = Reg.t1 and t2 = Reg.t2 and t3 = Reg.t3
let t4 = Reg.t4 and t5 = Reg.t5 and t6 = Reg.t6 and t7 = Reg.t7
let s0 = 16 and s1 = 17 and s2 = 18

(* -- vector add: a[i] = b[i] + c[i] with xloop.uc ------------------- *)

let base_b = 0x1000 and base_c = 0x2000 and base_a = 0x3000

let vector_add_prog n =
  let b = B.create () in
  B.li b t0 base_b;
  B.li b t1 base_c;
  B.li b t2 base_a;
  B.li b t3 (n * 4);  (* bound, in byte offsets *)
  B.li b t4 0;        (* index *)
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

let run ~cfg ~mode prog mem =
  Machine.ok_exn (Machine.simulate ~cfg ~mode prog mem)

let test_uc_traditional () =
  let n = 64 in
  let prog = vector_add_prog n in
  let mem = setup_vectors n in
  let r = run ~cfg:Config.io ~mode:Traditional prog mem in
  check_vector_add n mem;
  Alcotest.(check bool) "ran some cycles" true (r.cycles > n)

let test_uc_specialized_correct () =
  let n = 64 in
  let prog = vector_add_prog n in
  let mem = setup_vectors n in
  let r = run ~cfg:Config.io_x ~mode:Specialized prog mem in
  check_vector_add n mem;
  Alcotest.(check bool) "specialized xloops > 0" true
    (r.stats.xloops_specialized > 0)

let test_uc_speedup () =
  let n = 256 in
  let prog = vector_add_prog n in
  let m1 = setup_vectors n in
  let t = run ~cfg:Config.io ~mode:Traditional prog m1 in
  let m2 = setup_vectors n in
  let s = run ~cfg:Config.io_x ~mode:Specialized prog m2 in
  check_vector_add n m2;
  let speedup = float_of_int t.cycles /. float_of_int s.cycles in
  Alcotest.(check bool)
    (Printf.sprintf "uc speedup %.2f > 1.5" speedup)
    true (speedup > 1.5)

(* -- prefix sum with xloop.or --------------------------------------- *)
(* out[i] = out[i-1] + in[i], carried in register s0 (the CIR). *)

let prefix_prog n =
  let b = B.create () in
  B.li b t0 base_b;   (* in *)
  B.li b t2 base_a;   (* out *)
  B.li b t3 (n * 4);
  B.li b t4 0;
  B.li b s0 0;        (* running sum: CIR *)
  B.label b "body";
  B.add b t5 t0 t4;
  B.lw b t6 t5 0;
  B.add b s0 s0 t6;   (* read + write CIR *)
  B.add b t5 t2 t4;
  B.sw b s0 t5 0;
  B.xi_addi b t4 t4 4;
  B.xloop b or_ t4 t3 "body";
  B.halt b;
  (* store final CIR after the loop: defined for xloop.or *)
  b

let prefix_finish b =
  (* overwrite the trailing halt: assemble adds nothing, so rebuild *)
  B.assemble b

let test_or_correct () =
  let n = 100 in
  let b = prefix_prog n in
  let prog = prefix_finish b in
  let mem = Memory.create () in
  for i = 0 to n - 1 do Memory.set_int mem (base_b + 4 * i) (i + 1) done;
  let r = run ~cfg:Config.io_x ~mode:Specialized prog mem in
  let expect = ref 0 in
  for i = 0 to n - 1 do
    expect := !expect + (i + 1);
    Alcotest.(check int) (Printf.sprintf "prefix[%d]" i) !expect
      (Memory.get_int mem (base_a + 4 * i))
  done;
  Alcotest.(check bool) "used cib" true (r.stats.cib_reads > 0)

(* -- ordered-through-memory: recurrence a[i] = a[i-1] + b[i] -------- *)

let om_prog n =
  let b = B.create () in
  B.li b t0 base_b;
  B.li b t2 base_a;
  B.li b t3 (n * 4);
  B.li b t4 4;        (* start at i = 1 *)
  B.label b "body";
  B.add b t5 t2 t4;
  B.lw b t6 t5 (-4);  (* a[i-1]: depends on the previous iteration *)
  B.add b t7 t0 t4;
  B.lw b t7 t7 0;
  B.add b t6 t6 t7;
  B.sw b t6 t5 0;
  B.xi_addi b t4 t4 4;
  B.xloop b om t4 t3 "body";
  B.halt b;
  B.assemble b

let test_om_correct () =
  let n = 64 in
  let prog = om_prog n in
  let mem = Memory.create () in
  Memory.set_int mem base_a 10;   (* a[0] *)
  for i = 0 to n - 1 do Memory.set_int mem (base_b + 4 * i) i done;
  let r = run ~cfg:Config.io_x ~mode:Specialized prog mem in
  let expect = ref 10 in
  for i = 1 to n - 1 do
    expect := !expect + i;
    Alcotest.(check int) (Printf.sprintf "a[%d]" i) !expect
      (Memory.get_int mem (base_a + 4 * i))
  done;
  (* A serial memory recurrence must trigger violations/squashes. *)
  Alcotest.(check bool) "squashes happened" true (r.stats.violations > 0)

(* -- unordered atomic: histogram via buffered read-modify-write ------ *)

let ua_prog n =
  let b = B.create () in
  B.li b t0 base_b;   (* input values *)
  B.li b t2 base_a;   (* 16-bucket histogram *)
  B.li b t3 (n * 4);
  B.li b t4 0;
  B.label b "body";
  B.add b t5 t0 t4;
  B.lw b t6 t5 0;     (* v *)
  B.andi b t6 t6 15;
  B.sll b t6 t6 2;
  B.add b t6 t2 t6;   (* &hist[v & 15] *)
  B.lw b t7 t6 0;
  B.addi b t7 t7 1;
  B.sw b t7 t6 0;     (* hist[..]++ : must appear atomic *)
  B.xi_addi b t4 t4 4;
  B.xloop b ua t4 t3 "body";
  B.halt b;
  B.assemble b

let test_ua_correct () =
  let n = 128 in
  let prog = ua_prog n in
  let mem = Memory.create () in
  let expect = Array.make 16 0 in
  for i = 0 to n - 1 do
    let v = (i * 7 + 3) mod 31 in
    Memory.set_int mem (base_b + 4 * i) v;
    expect.(v land 15) <- expect.(v land 15) + 1
  done;
  ignore (run ~cfg:Config.io_x ~mode:Specialized prog mem);
  for k = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "hist[%d]" k) expect.(k)
      (Memory.get_int mem (base_a + 4 * k))
  done

(* -- dynamic bound: worklist that doubles itself ---------------------- *)
(* Each iteration i < n0 appends a new work item (value i + n0) by
   amo-incrementing the tail; the loop bound register is reloaded from the
   tail each iteration.  Total iterations = 2 * n0. *)

let tail_addr = 0x4000
let done_addr = 0x5000

let db_prog () =
  let b = B.create () in
  B.li b t0 base_b;      (* worklist *)
  B.li b t1 tail_addr;
  B.li b s1 done_addr;
  B.li b t4 0;           (* index (byte offset) *)
  B.lw b t3 t1 0;        (* bound = tail *)
  B.label b "body";
  B.add b t5 t0 t4;
  B.lw b t6 t5 0;        (* item *)
  (* record processing: done[item] = 1 *)
  B.sll b t7 t6 2;
  B.add b t7 s1 t7;
  B.li b s2 1;
  B.sw b s2 t7 0;
  (* if item < n0 (encoded: item < 8) then push item + 8 *)
  B.li b s2 8;
  B.bge b t6 s2 "skip";
  B.li b s2 4;
  B.amo b Amo_add t7 t1 s2;   (* t7 = old tail; tail += 4 *)
  B.add b t5 t0 t7;
  B.addi b t6 t6 8;
  B.sw b t6 t5 0;             (* worklist[old tail] = item + 8 *)
  B.label b "skip";
  B.lw b t3 t1 0;             (* reload bound from tail *)
  B.xi_addi b t4 t4 4;
  B.xloop b uc_db t4 t3 "body";
  B.halt b;
  B.assemble b

let test_db_correct () =
  let prog = db_prog () in
  let mem = Memory.create () in
  let n0 = 8 in
  for i = 0 to n0 - 1 do Memory.set_int mem (base_b + 4 * i) i done;
  Memory.set_int mem tail_addr (n0 * 4);
  let r = run ~cfg:Config.io_x ~mode:Specialized prog mem in
  for i = 0 to (2 * n0) - 1 do
    Alcotest.(check int) (Printf.sprintf "done[%d]" i) 1
      (Memory.get_int mem (done_addr + 4 * i))
  done;
  Alcotest.(check int) "final tail" (2 * n0 * 4)
    (Memory.get_int mem tail_addr);
  Alcotest.(check bool) "iterations = 16" true (r.stats.iterations >= 15)

(* -- cross-checks: specialized memory result == traditional ----------- *)

let test_equivalence () =
  List.iter
    (fun (name, prog, mk_mem, out_base, out_len) ->
       let m1 = mk_mem () in
       ignore (run ~cfg:Config.io ~mode:Traditional prog m1);
       let m2 = mk_mem () in
       ignore (run ~cfg:Config.ooo2_x ~mode:Specialized prog m2);
       let a1 = Memory.read_int_array m1 ~addr:out_base ~n:out_len in
       let a2 = Memory.read_int_array m2 ~addr:out_base ~n:out_len in
       Alcotest.(check (array int)) name a1 a2)
    [ ("vadd", vector_add_prog 50,
       (fun () -> setup_vectors 50), base_a, 50);
      ("om-recurrence", om_prog 40,
       (fun () ->
          let m = Memory.create () in
          Memory.set_int m base_a 7;
          for i = 0 to 39 do Memory.set_int m (base_b + 4 * i) (i * i) done;
          m),
       base_a, 40) ]


(* -- extended microarchitecture coverage ------------------------------- *)

module Registry = Xloops_kernels.Registry
module Kernel = Xloops_kernels.Kernel

let kernel_run name cfg =
  let k = Registry.find name in
  let r = Kernel.run ~cfg ~mode:Machine.Specialized k in
  (match r.Kernel.check_result with
   | Ok () -> ()
   | Error m ->
     Alcotest.failf "%s on %s: %s" name cfg.Xloops_sim.Config.name m);
  r.result

let test_inter_lane_forwarding_correct_and_counted () =
  (* om/ua kernels must stay correct with forwarding on, and actually
     forward. *)
  let total = ref 0 in
  List.iter
    (fun name ->
       let r = kernel_run name Config.io_x_fwd in
       total := !total + r.Machine.stats.lsq_forwards)
    [ "ksack-sm-om"; "dynprog-om"; "btree-ua"; "hsort-ua" ];
  Alcotest.(check bool) "forwards happened" true (!total > 0)

let test_inter_lane_forwarding_helps_war () =
  (* war-om's occasional cross-row conflicts forward cleanly: confirmed
     forwards replace violations.  (On tight serial chains like dynprog,
     aggressive forwarding instead amplifies squash cascades — which is
     why the paper leaves it as an "aggressive implementation" option;
     the ablation bench quantifies both.) *)
  let base = kernel_run "war-om" Config.io_x in
  let fwd = kernel_run "war-om" Config.io_x_fwd in
  Alcotest.(check bool)
    (Printf.sprintf "violations %d < %d" fwd.Machine.stats.violations
       base.Machine.stats.violations)
    true
    (fwd.Machine.stats.violations < base.Machine.stats.violations
     && fwd.Machine.stats.lsq_forwards > 0)

let test_multithreading_only_for_uc () =
  let mt = Config.with_lpsu Config.io "+mt"
      ~lpsu:{ Config.default_lpsu with threads_per_lane = 2 } in
  let s_uc = kernel_run "sgemm-uc" Config.io_x in
  let m_uc = kernel_run "sgemm-uc" mt in
  Alcotest.(check bool) "sgemm faster with MT" true
    (m_uc.Machine.cycles < s_uc.Machine.cycles);
  (* MT is disabled for ordered patterns: identical timing. *)
  let s_or = kernel_run "adpcm-or" Config.io_x in
  let m_or = kernel_run "adpcm-or" mt in
  Alcotest.(check int) "or unaffected" s_or.Machine.cycles
    m_or.Machine.cycles

let test_more_lanes_help () =
  let l8 = Config.with_lpsu Config.io "+l8"
      ~lpsu:{ Config.default_lpsu with lanes = 8 } in
  let c4 = kernel_run "kmeans-or" Config.io_x in
  let c8 = kernel_run "kmeans-or" l8 in
  Alcotest.(check bool) "8 lanes faster" true
    (c8.Machine.cycles < c4.Machine.cycles)

let test_bigger_lsq_helps_btree () =
  let big = Config.with_lpsu Config.io "+lsq16"
      ~lpsu:{ Config.default_lpsu with lsq_loads = 16; lsq_stores = 16 } in
  let small = kernel_run "btree-ua" Config.io_x in
  let large = kernel_run "btree-ua" big in
  Alcotest.(check bool) "16+16 LSQ faster" true
    (large.Machine.cycles < small.Machine.cycles)

let test_zero_trip_loop () =
  (* bound <= start: the guard skips the loop entirely. *)
  let b = B.create () in
  B.li b t0 0;          (* idx *)
  B.li b t1 0;          (* bound: zero iterations *)
  B.bge b t0 t1 "done";
  B.label b "body";
  B.addi b t2 t2 1;
  B.xi_addi b t0 t0 1;
  B.xloop b uc t0 t1 "body";
  B.label b "done";
  B.halt b;
  let prog = B.assemble b in
  let mem = Memory.create () in
  let r = run ~cfg:Config.io_x ~mode:Specialized prog mem in
  Alcotest.(check int) "no iterations" 0 r.stats.iterations;
  Alcotest.(check int) "no specialization" 0 r.stats.xloops_specialized

let test_single_iteration_loop () =
  (* One iteration runs on the GPP (fall-through); the xloop is never
     taken, so the LPSU never engages. *)
  let b = B.create () in
  B.li b t0 0;
  B.li b t1 1;
  B.li b t2 0;
  B.bge b t0 t1 "done";
  B.label b "body";
  B.addi b t2 t2 5;
  B.xi_addi b t0 t0 1;
  B.xloop b uc t0 t1 "body";
  B.label b "done";
  B.li b t3 0x200;
  B.sw b t2 t3 0;
  B.halt b;
  let prog = B.assemble b in
  let mem = Memory.create () in
  let r = run ~cfg:Config.io_x ~mode:Specialized prog mem in
  Alcotest.(check int) "body ran once" 5 (Memory.get_int mem 0x200);
  Alcotest.(check int) "no specialization" 0 r.stats.xloops_specialized

let test_nested_xloop_inner_as_branch () =
  (* war-om: outer om xloop whose body contains an inner uc xloop; the
     outer specializes once per outer-loop instance and the inner runs as
     a plain branch inside the lanes. *)
  let r = kernel_run "war-om" Config.io_x in
  Alcotest.(check bool) "one specialization per outer instance" true
    (r.Machine.stats.xloops_specialized >= 10)

let test_runaway_db_loop_traps () =
  (* A dynamic-bound loop that always raises its own bound never
     terminates; the LPSU's fuel guard must trap instead of hanging. *)
  let b = B.create () in
  B.li b t0 0x4000;     (* tail address *)
  B.li b s2 1;
  B.sw b s2 t0 0;       (* tail = 1 *)
  B.li b t4 0;
  B.lw b t3 t0 0;
  B.label b "body";
  B.amo b Amo_add t5 t0 s2;   (* tail++ every iteration: unbounded *)
  B.lw b t3 t0 0;
  B.xi_addi b t4 t4 1;
  B.xloop b uc_db t4 t3 "body";
  B.halt b;
  let prog = B.assemble b in
  let mem = Memory.create () in
  (* The LPSU exhausts its cycle budget (a structured Fuel hang), the
     safety net rolls the loop back to its entry checkpoint, and the
     traditional re-execution then runs the GPP out of fuel: the runaway
     is reported, not raised. *)
  match Machine.simulate ~fuel:200_000 ~lpsu_fuel:100_000
          ~cfg:Config.io_x ~mode:Specialized prog mem with
  | Ok _ -> Alcotest.fail "runaway loop completed?"
  | Error (Machine.Lpsu_hang h) ->
    Alcotest.failf "hang escaped degradation: %a" Xloops_sim.Fault.pp_hang h
  | Error (Machine.Out_of_fuel _) -> ()

let test_machine_fuel () =
  let b = B.create () in
  B.label b "spin";
  B.jump b "spin";
  let prog = B.assemble b in
  match Machine.simulate ~fuel:5000 ~cfg:Config.io
          ~mode:Traditional prog (Memory.create ()) with
  | Ok _ -> Alcotest.fail "expected Out_of_fuel"
  | Error (Machine.Lpsu_hang _) -> Alcotest.fail "expected Out_of_fuel"
  | Error (Machine.Out_of_fuel { pc; insns; cycle = _ }) ->
    Alcotest.(check int) "pc at the spin" 0 pc;
    Alcotest.(check bool) "burned the budget" true (insns > 5000)

let test_superscalar_lanes_help_or () =
  (* Dual-issue lanes attack exactly what limits the or kernels: the
     intra-iteration ILP between CIR stalls (the paper's "superscalar
     lane microarchitectures" future work). *)
  List.iter
    (fun name ->
       let base = kernel_run name Config.io_x in
       let ss2 = kernel_run name Config.io_x_ss2 in
       Alcotest.(check bool)
         (Printf.sprintf "%s: ss2 %d < %d" name ss2.Machine.cycles
            base.Machine.cycles)
         true (ss2.Machine.cycles < base.Machine.cycles))
    [ "covar-or"; "adpcm-or"; "sgemm-uc" ]

let test_lane_pc_escape_traps () =
  (* A body whose control flow jumps past its own xloop is malformed;
     the lane must trap rather than wander off. *)
  let b = B.create () in
  B.li b t0 0;
  B.li b t1 8;
  B.li b t2 3;
  B.label b "body";
  B.beq b t0 t2 "outside";   (* iteration 3 jumps past its own xloop *)
  B.xi_addi b t0 t0 1;
  B.xloop b uc t0 t1 "body";
  B.label b "outside";
  B.halt b;
  let prog = B.assemble b in
  let mem = Memory.create () in
  Alcotest.(check bool) "lane trap" true
    (try
       ignore (Machine.ok_exn
                 (Machine.simulate ~cfg:Config.io_x ~mode:Specialized
                    prog mem));
       false
     with Xloops_sim.Lpsu.Lane_trap _ -> true)

(* -- unobserved lanes: fast path and quiet-cycle jump are invisible ---- *)

(* With no trace attached, lanes run plain instructions through the
   per-pc closures of Lane_ops, and a cycle in which every context
   sleeps jumps to the next wake, fault plan or not.  Both must be
   invisible: the same architectural result, cycle count, hang list and
   full statistics — violations, squashes, lane-cycle breakdown,
   injected faults — as the Exec.step path that steps every cycle,
   which a discarding trace sink forces.  [fault_seed] attaches a fresh
   12-event plan (the CLI's default) to each run. *)
let differential ?watchdog ?fault_seed ~cfg name =
  let discard () = Xloops_sim.Trace.create (fun _ -> ()) in
  let k = Registry.find name in
  let run trace =
    let faults =
      Option.map (fun seed -> Xloops_sim.Fault.plan ~seed ~events:12 ())
        fault_seed in
    Kernel.run ~cfg ~mode:Machine.Specialized ?faults ?watchdog ?trace k in
  let fast = run None and slow = run (Some (discard ())) in
  let what = Printf.sprintf "%s %s%s%s" name cfg.Config.name
      (match watchdog with
       | Some w -> Printf.sprintf " watchdog %d" w
       | None -> "")
      (match fault_seed with
       | Some s -> Printf.sprintf " fault-seed %d" s
       | None -> "") in
  (* An injected fault may corrupt the output; both runs must agree. *)
  (match fast.Kernel.check_result, slow.Kernel.check_result with
   | Ok (), Ok () -> ()
   | f, s when fault_seed <> None && f = s -> ()
   | _ -> Alcotest.failf "%s: result check failed" what);
  let f = fast.Kernel.result and s = slow.Kernel.result in
  f.Machine.stats.wall_ns <- 0;
  s.Machine.stats.wall_ns <- 0;
  (what, s.Machine.cycles, f.Machine.cycles, s.Machine.stats, f.Machine.stats,
   slow.Kernel.hangs = fast.Kernel.hangs)

let check_differential runs =
  List.iter
    (fun (what, sc, fc, (ss : Xloops_sim.Stats.t), (fs : Xloops_sim.Stats.t),
          same_hangs) ->
       Alcotest.(check int) (what ^ ": cycles") sc fc;
       Alcotest.(check int) (what ^ ": violations") ss.violations
         fs.violations;
       Alcotest.(check int) (what ^ ": watchdog hangs") ss.watchdog_hangs
         fs.watchdog_hangs;
       Alcotest.(check int) (what ^ ": degradations") ss.degradations
         fs.degradations;
       Alcotest.(check bool) (what ^ ": hang list identical") true same_hangs;
       Alcotest.(check bool) (what ^ ": stats identical") true (fs = ss))
    runs

let test_unobserved_differential () =
  let cfgs =
    Config.[ io_x; ooo4_x4_t; ooo4_x8_r_m; io_x_ss2; io_x_fwd ] in
  let cases =
    List.concat_map
      (fun cfg -> List.map (fun name -> (cfg, name)) Registry.names)
      cfgs
  in
  check_differential
    (Xloops.Pool.map ~jobs:(Xloops.Pool.available_cores ())
       (fun (cfg, name) -> differential ~cfg name) cases)

(* A tiny watchdog trips inside stalls the jump would cross: the jump
   is capped at the trip cycle, so each hang is caught on the same
   cycle, diagnosed the same way and degraded the same way. *)
let test_watchdog_capped_differential () =
  let runs =
    Xloops.Pool.map ~jobs:(Xloops.Pool.available_cores ())
      (fun name -> differential ~watchdog:8 ~cfg:Config.io_x name)
      Registry.names
  in
  check_differential runs;
  Alcotest.(check bool) "the watchdog trips" true
    (List.exists (fun (_, _, _, _, (fs : Xloops_sim.Stats.t), _) ->
         fs.watchdog_hangs > 0) runs)

(* Fault plans take the fast path and the jump as well: the jump stops
   where the plan's next event falls due, and frozen lanes sleep, so a
   frozen-lane hang jumps to its watchdog trip. *)
let test_faulted_differential () =
  let cases =
    List.concat_map
      (fun cfg ->
         List.concat_map
           (fun name -> List.map (fun seed -> (cfg, name, seed)) [ 1; 7 ])
           Registry.names)
      Config.[ io_x; ooo4_x4_t; io_x_fwd ]
  in
  let runs =
    Xloops.Pool.map ~jobs:(Xloops.Pool.available_cores ())
      (fun (cfg, name, seed) ->
         differential ~watchdog:500 ~fault_seed:seed ~cfg name)
      cases
  in
  check_differential runs;
  Alcotest.(check bool) "some run hangs" true
    (List.exists (fun (_, _, _, _, (fs : Xloops_sim.Stats.t), _) ->
         fs.watchdog_hangs > 0) runs)

let test_stats_merge_doubles () =
  (* Stats.merge must cover every counter: merging the same record twice
     doubles a sampled set of fields (one from each group). *)
  let k = Registry.find "ksack-sm-om" in
  let r = Kernel.run ~cfg:Config.io_x ~mode:Machine.Specialized k in
  let s = r.result.stats in
  let acc = Xloops_sim.Stats.create () in
  Xloops_sim.Stats.merge ~into:acc s;
  Xloops_sim.Stats.merge ~into:acc s;
  let open Xloops_sim.Stats in
  List.iter
    (fun (name, a, b) ->
       Alcotest.(check int) name (2 * a) b)
    [ ("committed", s.committed_insns, acc.committed_insns);
      ("squashed", s.squashed_insns, acc.squashed_insns);
      ("ib", s.ib_fetches, acc.ib_fetches);
      ("rf reads", s.rf_reads, acc.rf_reads);
      ("violations", s.violations, acc.violations);
      ("lsq searches", s.lsq_searches, acc.lsq_searches);
      ("forwards", s.lsq_forwards, acc.lsq_forwards);
      ("cyc exec", s.cyc_exec, acc.cyc_exec);
      ("cyc lsq", s.cyc_stall_lsq, acc.cyc_stall_lsq);
      ("idq", s.idq_ops, acc.idq_ops) ]

(* -- configured miss penalty ------------------------------------------ *)

(* The lanes share the GPP's L1D, so an LPSU miss costs the GPP's
   configured penalty.  Runs the vector-add loop on the LPSU alone (cold
   L1D, every iteration specialized) so the GPP's own misses cannot
   account for the difference. *)
let test_lpsu_miss_penalty_configured () =
  let n = 256 in
  let prog = vector_add_prog n in
  let xloop_pc =
    let rec find pc =
      match prog.Xloops_asm.Program.insns.(pc) with
      | Insn.Xloop _ -> pc
      | _ -> find (pc + 1)
    in
    find 0
  in
  let lpsu_run (cfg : Config.t) =
    let regs = Array.make Reg.num_regs 0 in
    regs.(t0) <- base_b; regs.(t1) <- base_c; regs.(t2) <- base_a;
    regs.(t3) <- n * 4;
    let lpsu = Option.get cfg.lpsu in
    let info =
      match Xloops_sim.Scan.analyze prog ~xloop_pc ~regs ~lpsu with
      | Ok info -> info
      | Error _ -> Alcotest.fail "vector add does not specialize"
    in
    let stats = Xloops_sim.Stats.create () in
    let lpsu =
      Xloops_sim.Lpsu.create ~pre:(Xloops_asm.Program.predecode prog)
        ~mem:(setup_vectors n) ~dcache:(Xloops_mem.Cache.create ()) ~cfg
        ~stats ()
    in
    match Xloops_sim.Lpsu.run lpsu ~info ~regs ~start_cycle:0 () with
    | Ok r -> r.cycles, stats.dcache_misses
    | Error _ -> Alcotest.fail "LPSU hang"
  in
  let slow =
    { Config.io_x with
      name = "io+x/miss40";
      gpp = { Config.io_x.gpp with miss_penalty = 40 } }
  in
  let c20, misses = lpsu_run Config.io_x in
  let c40, _ = lpsu_run slow in
  Alcotest.(check bool) "LPSU misses" true (misses > 0);
  Alcotest.(check bool)
    (Printf.sprintf "miss penalty 40 (%d cycles) slower than 20 (%d)" c40 c20)
    true (c40 > c20)

let () =
  Alcotest.run "lpsu"
    [ ("uc",
       [ Alcotest.test_case "traditional correct" `Quick test_uc_traditional;
         Alcotest.test_case "specialized correct" `Quick
           test_uc_specialized_correct;
         Alcotest.test_case "speedup vs io" `Quick test_uc_speedup ]);
      ("or", [ Alcotest.test_case "prefix sum" `Quick test_or_correct ]);
      ("om", [ Alcotest.test_case "recurrence" `Quick test_om_correct ]);
      ("ua", [ Alcotest.test_case "histogram" `Quick test_ua_correct ]);
      ("db", [ Alcotest.test_case "worklist" `Quick test_db_correct ]);
      ("equiv", [ Alcotest.test_case "spec == trad" `Quick test_equivalence ]);
      ("forwarding",
       [ Alcotest.test_case "correct + counted" `Quick
           test_inter_lane_forwarding_correct_and_counted;
         Alcotest.test_case "helps war-om" `Quick
           test_inter_lane_forwarding_helps_war ]);
      ("design-space",
       [ Alcotest.test_case "MT only for uc" `Quick
           test_multithreading_only_for_uc;
         Alcotest.test_case "more lanes" `Quick test_more_lanes_help;
         Alcotest.test_case "bigger LSQ" `Quick test_bigger_lsq_helps_btree ]);
      ("edges",
       [ Alcotest.test_case "zero-trip" `Quick test_zero_trip_loop;
         Alcotest.test_case "single iteration" `Quick
           test_single_iteration_loop;
         Alcotest.test_case "nested xloop" `Quick
           test_nested_xloop_inner_as_branch ]);
      ("fuel",
       [ Alcotest.test_case "runaway db loop" `Quick
           test_runaway_db_loop_traps;
         Alcotest.test_case "machine spin" `Quick test_machine_fuel ]);
      ("safety",
       [ Alcotest.test_case "lane pc escape" `Quick
           test_lane_pc_escape_traps;
         Alcotest.test_case "superscalar lanes" `Quick
           test_superscalar_lanes_help_or;
         Alcotest.test_case "stats merge" `Quick
           test_stats_merge_doubles ]);
      ("fast-path",
       [ Alcotest.test_case "compiled lanes invisible" `Quick
           test_unobserved_differential;
         Alcotest.test_case "watchdog-capped jump invisible" `Quick
           test_watchdog_capped_differential;
         Alcotest.test_case "faulted jump invisible" `Quick
           test_faulted_differential ]);
      ("memory",
       [ Alcotest.test_case "configured miss penalty" `Quick
           test_lpsu_miss_penalty_configured ]);
    ]

