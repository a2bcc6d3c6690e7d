(* Machine-level tests: timing models, execution modes, fallback paths and
   adaptive execution. *)

open Xloops_isa
module B = Xloops_asm.Builder
module Memory = Xloops_mem.Memory
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Scan = Xloops_sim.Scan

let uc = { Insn.dp = Uc; cp = Fixed }
let orm = { Insn.dp = Orm; cp = Fixed }

let base_in = 0x1000 and base_out = 0x2000

(* n iterations; [ilp] independent adds per iteration so out-of-order cores
   have work to overlap. *)
let ilp_kernel ~n ~ilp =
  let b = B.create () in
  B.li b 8 base_in;
  B.li b 9 base_out;
  B.li b 10 (n * 4);
  B.li b 11 0;
  B.label b "body";
  B.add b 12 8 11;
  B.lw b 13 12 0;
  for k = 0 to ilp - 1 do
    let rd = 16 + (k mod 8) in
    B.addi b rd 13 k
  done;
  B.add b 12 9 11;
  B.sw b 13 12 0;
  B.xi_addi b 11 11 4;
  B.xloop b uc 11 10 "body";
  B.halt b;
  B.assemble b

let fresh_mem n =
  let m = Memory.create () in
  for i = 0 to n - 1 do Memory.set_int m (base_in + 4 * i) (i * 2) done;
  m

let simulate ~cfg ~mode prog mem =
  Machine.ok_exn (Machine.simulate ~cfg ~mode prog mem)

let cycles ~cfg ~mode prog mem = (simulate ~cfg ~mode prog mem).Machine.cycles

let test_ooo_faster_than_io () =
  let n = 128 in
  let prog = ilp_kernel ~n ~ilp:8 in
  let c_io = cycles ~cfg:Config.io ~mode:Traditional prog (fresh_mem n) in
  let c_o2 = cycles ~cfg:Config.ooo2 ~mode:Traditional prog (fresh_mem n) in
  let c_o4 = cycles ~cfg:Config.ooo4 ~mode:Traditional prog (fresh_mem n) in
  Alcotest.(check bool)
    (Printf.sprintf "ooo2 (%d) < io (%d)" c_o2 c_io) true (c_o2 < c_io);
  Alcotest.(check bool)
    (Printf.sprintf "ooo4 (%d) <= ooo2 (%d)" c_o4 c_o2) true (c_o4 <= c_o2)

let test_traditional_on_lpsu_config_matches () =
  (* Traditional execution on io+x must cost the same as on io: the LPSU
     is idle and the binary identical. *)
  let n = 64 in
  let prog = ilp_kernel ~n ~ilp:2 in
  let c1 = cycles ~cfg:Config.io ~mode:Traditional prog (fresh_mem n) in
  let c2 = cycles ~cfg:Config.io_x ~mode:Traditional prog (fresh_mem n) in
  Alcotest.(check int) "identical" c1 c2

let test_specialized_requires_lpsu () =
  let prog = ilp_kernel ~n:4 ~ilp:1 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (simulate ~cfg:Config.io ~mode:Specialized prog
                 (fresh_mem 4));
       false
     with Invalid_argument _ -> true)

let test_fallback_unsupported_pattern () =
  (* An LPSU that only supports uc executes an orm loop traditionally. *)
  let n = 32 in
  let b = B.create () in
  B.li b 8 base_in;
  B.li b 10 (n * 4);
  B.li b 11 0;
  B.li b 16 0;
  B.label b "body";
  B.add b 12 8 11;
  B.lw b 13 12 0;
  B.add b 16 16 13;     (* CIR *)
  B.sw b 16 12 0;
  B.xi_addi b 11 11 4;
  B.xloop b orm 11 10 "body";
  B.halt b;
  let prog = B.assemble b in
  let lpsu = { Config.default_lpsu with supported = [ Insn.Uc ] } in
  let cfg = Config.with_lpsu Config.io "+uconly" ~lpsu in
  let r = simulate ~cfg ~mode:Specialized prog (fresh_mem n) in
  Alcotest.(check int) "nothing specialized" 0
    r.Machine.stats.xloops_specialized;
  (* And the result is still correct. *)
  let m2 = fresh_mem n in
  ignore (simulate ~cfg:Config.io ~mode:Traditional prog m2)

let test_fallback_body_too_large () =
  let n = 16 in
  let b = B.create () in
  B.li b 8 base_in;
  B.li b 10 (n * 4);
  B.li b 11 0;
  B.label b "body";
  for _ = 1 to 40 do B.addi b 16 16 1 done;
  B.xi_addi b 11 11 4;
  B.xloop b uc 11 10 "body";
  B.halt b;
  let prog = B.assemble b in
  let lpsu = { Config.default_lpsu with ib_entries = 16 } in
  let cfg = Config.with_lpsu Config.io "+tiny" ~lpsu in
  let r = simulate ~cfg ~mode:Specialized prog (fresh_mem n) in
  Alcotest.(check int) "fell back" 0 r.Machine.stats.xloops_specialized

let test_scan_analysis () =
  let n = 8 in
  let prog = ilp_kernel ~n ~ilp:1 in
  (* Find the xloop. *)
  let xloop_pc = ref (-1) in
  Array.iteri
    (fun pc i -> if Insn.is_xloop i then xloop_pc := pc)
    prog.Xloops_asm.Program.insns;
  let regs = Array.make 32 0 in
  regs.(11) <- 4;   (* idx after iteration 0 *)
  regs.(10) <- n * 4;
  match Scan.analyze prog ~xloop_pc:!xloop_pc ~regs
          ~lpsu:Config.default_lpsu with
  | Error e -> Alcotest.failf "analysis failed: %a" Scan.pp_fallback e
  | Ok info ->
    Alcotest.(check int) "idx reg" 11 info.r_idx;
    Alcotest.(check int) "bound reg" 10 info.r_bound;
    Alcotest.(check int32) "step" 4l info.idx_step;
    Alcotest.(check int) "no cirs for uc" 0 (List.length info.cirs)

let test_adaptive_finishes_and_is_sane () =
  let n = 600 in  (* enough iterations to trip the 256-iteration profile *)
  let prog = ilp_kernel ~n ~ilp:2 in
  let m = fresh_mem n in
  let r = simulate ~cfg:Config.io_x ~mode:Adaptive prog m in
  (* Results correct. *)
  for i = 0 to n - 1 do
    Alcotest.(check int) "out" (i * 2) (Memory.get_int m (base_out + 4 * i))
  done;
  (* Adaptive must be within the envelope of pure modes (with slack for
     profiling overhead). *)
  let c_t = cycles ~cfg:Config.io_x ~mode:Traditional prog (fresh_mem n) in
  let c_s = cycles ~cfg:Config.io_x ~mode:Specialized prog (fresh_mem n) in
  let lo = min c_t c_s and hi = max c_t c_s in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive %d within [%d, %d+25%%]" r.Machine.cycles lo hi)
    true
    (r.Machine.cycles <= hi * 5 / 4 && r.Machine.cycles >= lo / 2)

let test_adaptive_short_loop_keeps_profiling () =
  (* A loop with fewer total iterations than the profiling threshold never
     triggers specialized execution, but still completes correctly. *)
  let n = 50 in
  let prog = ilp_kernel ~n ~ilp:1 in
  let m = fresh_mem n in
  let r = simulate ~cfg:Config.io_x ~mode:Adaptive prog m in
  Alcotest.(check int) "no specialization" 0
    r.Machine.stats.xloops_specialized;
  for i = 0 to n - 1 do
    Alcotest.(check int) "out" (i * 2) (Memory.get_int m (base_out + 4 * i))
  done

let test_insn_counts_match_modes () =
  (* Committed instruction counts should be equal between traditional and
     specialized execution of the same binary (same architectural work). *)
  let n = 100 in
  let prog = ilp_kernel ~n ~ilp:3 in
  let rt = simulate ~cfg:Config.io_x ~mode:Traditional prog
      (fresh_mem n) in
  let rs = simulate ~cfg:Config.io_x ~mode:Specialized prog
      (fresh_mem n) in
  Alcotest.(check int) "committed insns equal" rt.Machine.insns
    rs.Machine.insns

(* -- GPP timing-model properties ---------------------------------------- *)

module Gpp_timing = Xloops_sim.Gpp_timing
module Stats = Xloops_sim.Stats
module Exec = Xloops_sim.Exec

(* Drive a timing model over a program's committed event stream. *)
let time_program cfg prog =
  let stats = Stats.create () in
  let timing = Gpp_timing.create cfg stats in
  let mem = Memory.create () in
  let h = Exec.create_hart () in
  let pre = Xloops_asm.Program.predecode prog in
  let iface = Exec.direct_mem mem in
  let ev = Exec.create_event () in
  (try
     while true do
       Exec.step pre h iface ev;
       Gpp_timing.consume timing ev
     done
   with Exec.Halted -> ());
  Gpp_timing.barrier timing;
  Gpp_timing.fold_events timing;
  (Gpp_timing.now timing, stats)

let straightline ~iters ~dep =
  (* A hot loop of 8 adds per iteration: [dep] chains them (serial
     dataflow), otherwise they are independent. *)
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 iters;
  B.label b "top";
  for k = 0 to 7 do
    if dep then B.add b 10 10 8
    else B.add b (10 + k) 8 8
  done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  B.assemble b

let test_ooo_exploits_independence () =
  let serial, _ = time_program Config.ooo4.gpp
      (straightline ~iters:100 ~dep:true) in
  let parallel, _ =
    time_program Config.ooo4.gpp (straightline ~iters:100 ~dep:false) in
  Alcotest.(check bool)
    (Printf.sprintf "parallel %d << serial %d" parallel serial)
    true (parallel * 2 < serial)

let test_inorder_indifferent_to_independence () =
  (* A scoreboarded single-issue core runs 1-cycle adds back to back
     either way. *)
  let serial, _ = time_program Config.io.gpp
      (straightline ~iters:100 ~dep:true) in
  let parallel, _ =
    time_program Config.io.gpp (straightline ~iters:100 ~dep:false) in
  Alcotest.(check bool)
    (Printf.sprintf "|%d - %d| small" serial parallel)
    true (abs (serial - parallel) <= 8)

let test_taken_branches_cost_io () =
  let loopy n =
    let b = B.create () in
    B.li b 8 n;
    B.label b "top";
    B.addi b 8 8 (-1);
    B.bne b 8 0 "top";
    B.halt b;
    B.assemble b
  in
  let c, stats = time_program Config.io.gpp (loopy 100) in
  (* 2 insns + 2 bubble cycles per iteration, roughly. *)
  Alcotest.(check bool) (Printf.sprintf "%d cycles for 100 iters" c) true
    (c >= 390 && c <= 440);
  Alcotest.(check int) "100 branches" 100 stats.branches

let test_predictor_learns_loop () =
  (* On the OOO model the bimodal predictor mispredicts only the final
     not-taken branch (plus cold effects). *)
  let loopy n =
    let b = B.create () in
    B.li b 8 n;
    B.label b "top";
    B.addi b 8 8 (-1);
    B.bne b 8 0 "top";
    B.halt b;
    B.assemble b
  in
  let _, stats = time_program Config.ooo2.gpp (loopy 200) in
  Alcotest.(check bool)
    (Printf.sprintf "%d mispredicts" stats.mispredicts) true
    (stats.mispredicts <= 2)

let test_cache_miss_costs () =
  (* Streaming over 32 KB (2x the L1) repeatedly must be slower per
     access than re-reading one hot line. *)
  let stream ~stride ~accesses =
    let b = B.create () in
    B.li b 8 0;                     (* addr *)
    B.li b 9 accesses;
    B.label b "top";
    B.lw b 10 8 0;
    B.addi b 8 8 stride;
    B.andi b 8 8 0x7FFF;            (* wrap at 32 KB *)
    B.addi b 9 9 (-1);
    B.bne b 9 0 "top";
    B.halt b;
    B.assemble b
  in
  let cold, s1 = time_program Config.io.gpp (stream ~stride:32 ~accesses:800)
  in
  let hot, s2 = time_program Config.io.gpp (stream ~stride:0 ~accesses:800)
  in
  Alcotest.(check bool) (Printf.sprintf "cold %d > hot %d" cold hot) true
    (cold > hot + 800 * 5);
  Alcotest.(check bool) "misses counted" true
    (s1.dcache_misses > 700 && s2.dcache_misses < 10)

let test_window_monotone () =
  let prog = straightline ~iters:50 ~dep:false in
  let cycles window =
    let gpp = { Config.ooo4.gpp with kind = Ooo { width = 4; window } } in
    fst (time_program gpp prog)
  in
  let c8 = cycles 8 and c32 = cycles 32 and c128 = cycles 128 in
  Alcotest.(check bool)
    (Printf.sprintf "window 8 %d >= 32 %d >= 128 %d" c8 c32 c128)
    true (c8 >= c32 && c32 >= c128)

let test_scan_cost_model () =
  let stats = Stats.create () in
  let t_io = Gpp_timing.create Config.io.gpp stats in
  let t_ooo = Gpp_timing.create Config.ooo4.gpp stats in
  let l = Config.default_lpsu in
  Alcotest.(check int) "io scan" (l.scan_fixed + 50)
    (Gpp_timing.scan_cycles t_io l ~body_insns:50);
  Alcotest.(check bool) "ooo overlaps the fixed part" true
    (Gpp_timing.scan_cycles t_ooo l ~body_insns:50
     < Gpp_timing.scan_cycles t_io l ~body_insns:50)

let test_skip_to_advances_clock () =
  let stats = Stats.create () in
  let t = Gpp_timing.create Config.io.gpp stats in
  Gpp_timing.skip_to t 12345;
  Alcotest.(check bool) "clock advanced" true (Gpp_timing.now t >= 12345)


(* -- APT behaviour and encoded-binary execution -------------------------- *)

module Registry = Xloops_kernels.Registry
module Kernel = Xloops_kernels.Kernel

let test_apt_decision_sticks () =
  (* war-uc runs its inner uc xloop once per (k, i) pair — hundreds of
     dynamic instances of one static loop.  The APT profiles across
     instances, decides once, and never flip-flops: at most one
     migration, and the later instances follow the cached decision. *)
  let k = Registry.find "war-uc" in
  let r = Kernel.run ~cfg:Config.ooo4_x ~mode:Machine.Adaptive k in
  (match r.Kernel.check_result with Ok () -> () | Error m -> Alcotest.fail m);
  Alcotest.(check bool)
    (Printf.sprintf "migrations %d <= 1" r.result.stats.migrations)
    true (r.result.stats.migrations <= 1);
  (* The decision applies: either everything specialized after the
     profile, or nothing more did. *)
  Alcotest.(check bool) "ran to completion" true (r.result.cycles > 0)

let test_apt_profiles_across_instances () =
  (* An inner xloop with only 40 iterations per instance: a single
     instance never reaches the 256-iteration profile threshold, but ten
     instances do — so specialization (or an explicit decision) must
     eventually kick in on a winning kernel. *)
  let b = B.create () in
  let n = 40 and outer = 12 in
  B.li b 20 outer;
  B.label b "outer";
  B.li b 8 base_in;
  B.li b 10 (n * 4);
  B.li b 11 0;
  B.label b "body";
  B.add b 12 8 11;
  B.lw b 13 12 0;
  B.add b 13 13 13;
  B.add b 12 9 11;
  B.sw b 13 12 0;
  B.xi_addi b 11 11 4;
  B.xloop b uc 11 10 "body";
  B.addi b 20 20 (-1);
  B.bne b 20 0 "outer";
  B.halt b;
  let prog = B.assemble b in
  let m = fresh_mem n in
  let r = simulate ~cfg:Config.io_x ~mode:Adaptive prog m in
  (* 12 instances x 39 back-edges = 468 > 256: the profile completes in
     the 7th instance and the remaining instances run specialized. *)
  Alcotest.(check bool)
    (Printf.sprintf "specialized %d instances" r.stats.xloops_specialized)
    true (r.stats.xloops_specialized >= 1)

let test_encoded_binary_runs_identically () =
  (* Encode a real kernel to machine words, decode it back, and run it:
     identical cycles and identical memory. *)
  let k = Registry.find "dither-or" in
  let c = Xloops_compiler.Compile.compile k.kernel in
  let words = Xloops_asm.Program.encode c.program in
  let decoded = Xloops_asm.Program.decode words in
  let run prog =
    let mem = Memory.create () in
    k.init c.array_base mem;
    let r = simulate ~cfg:Config.io_x ~mode:Specialized prog mem in
    (r.Machine.cycles, Memory.read_bytes mem ~addr:(c.array_base "bw")
       ~n:(24 * 64))
  in
  let c1, m1 = run c.program in
  let c2, m2 = run decoded in
  Alcotest.(check int) "cycles identical" c1 c2;
  Alcotest.(check (array int)) "memory identical" m1 m2


(* -- Allocation budgets of the timing models ----------------------------- *)

(* Bytes [Machine.simulate] allocates per committed instruction on one
   kernel.  The minor heap is emptied before and after the run: OCaml 5.1
   under-counts [Gc.allocated_bytes] for words still in it.  Each run
   decodes the program afresh (predecode, timing metadata, lane ops);
   a first, discarded run warms the host's GC state. *)
let bytes_per_insn ~cfg ~mode name =
  let k = Registry.find name in
  let c = Xloops_compiler.Compile.compile k.kernel in
  let run () =
    let mem = Memory.create () in
    k.init c.array_base mem;
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    let r = simulate ~cfg ~mode c.program mem in
    Gc.minor ();
    (Gc.allocated_bytes () -. a0) /. float_of_int r.Machine.insns
  in
  ignore (run ());
  run ()

let check_budget ~cfg ~mode name budget =
  let b = bytes_per_insn ~cfg ~mode name in
  Alcotest.(check bool)
    (Printf.sprintf "%s %s/%s: %.2f B/insn <= %.2f" name cfg.Config.name
       (Machine.mode_name mode) b budget)
    true (b <= budget)

(* The GPP path allocates nothing per instruction; what remains is the
   machine's set-up (caches, predictor, register scoreboards, the
   program's decode). *)
let test_gpp_allocation_free () =
  List.iter
    (fun name ->
       check_budget ~cfg:Config.io ~mode:Traditional name 1.0;
       check_budget ~cfg:Config.ooo4 ~mode:Traditional name 1.0)
    [ "adpcm-or"; "war-uc" ]

(* The LPSU allocates per specialized loop instance (the GPP register
   checkpoint, the loop's result), not per lane cycle; its contexts,
   metadata, lane ops and each xloop's scan are built once per
   machine.  Budgets are about twice the values measured when they
   were set (1.82 and 6.60 B/insn). *)
let test_lpsu_allocation_budget () =
  check_budget ~cfg:Config.io_x ~mode:Specialized "adpcm-or" 3.6;
  check_budget ~cfg:Config.io_x ~mode:Specialized "war-om" 13.0


(* -- Every machine field is live ----------------------------------------- *)

(* A [Config] field that no simulated number depends on is a knob that
   changes nothing.  Each field of [Config.gpp], [Config.lpsu] and
   [Config.adaptive] gets one perturbation and one witness run, and the
   perturbed run must differ from the default one in [cycles] or in
   some [Stats] counter.  The default records are destructured by full
   record patterns, and each bound value feeds its perturbation, so a
   new field is a compile error here (warnings 9 and 27 in the dev
   profile) until it has a witness. *)

(* The GPP witness: per iteration, a load from a 2 KiB sequential
   stream and its use, a load from four lines [l1_size / l1_ways] apart
   (one set, more lines than the default ways), a dependent mul, div
   and fadd, and a taken branch. *)
let live_gpp_prog = lazy (
  let conflict = Config.io.gpp.l1_size / Config.io.gpp.l1_ways in
  let b = B.create () in
  B.li b 8 0;                              (* stream address *)
  B.li b 9 200;                            (* iterations left *)
  B.li b 20 0;                             (* conflict offset *)
  B.li b 21 0x1900;                        (* conflict base *)
  B.label b "top";
  B.lw b 10 8 0;
  B.add b 11 10 10;
  B.add b 22 21 20;
  B.lw b 12 22 0;
  B.mul b 13 11 9;
  B.add b 14 13 13;
  B.div b 15 14 9;
  B.add b 16 15 15;
  B.fadd b 17 16 16;
  B.add b 18 17 17;
  B.addi b 8 8 32;
  B.andi b 8 8 0x7FF;
  B.addi b 20 20 conflict;
  B.andi b 20 20 (4 * conflict - 1);
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  B.assemble b)

let observe_gpp gpp =
  let r = simulate ~cfg:{ Config.io with gpp } ~mode:Traditional
      (Lazy.force live_gpp_prog) (Memory.create ~size:0x8000 ()) in
  (r.Machine.cycles, r.stats)

let observe_kernel ?adaptive ~cfg ~mode name =
  let r = Kernel.run ?adaptive ~cfg ~mode (Registry.find name) in
  (match r.Kernel.check_result with
   | Ok () -> ()
   | Error m -> Alcotest.failf "%s: %s" name m);
  (r.result.cycles, r.result.stats)

let liveness_cases () =
  let g = Config.io.gpp and l = Config.default_lpsu
  and a = Config.default_adaptive in
  let { Config.kind; l1_size; l1_ways; l1_line; load_use_latency;
        miss_penalty; branch_penalty; mul_latency; div_latency;
        fpu_latency } = g in
  let { Config.lanes; ib_entries; lsq_loads; lsq_stores; mem_ports;
        llfu_ports; threads_per_lane; lane_issue_width; inter_lane_fwd;
        scan_fixed; scan_per_insn; supported; squash_penalty } = l in
  let { Config.profile_iters; profile_cycles } = a in
  let gpp field g' = (field, fun () -> (observe_gpp g, observe_gpp g')) in
  let lpsu field name l' =
    let run lpsu =
      observe_kernel ~cfg:(Config.with_lpsu Config.io "+x" ~lpsu)
        ~mode:Specialized name in
    (field, fun () -> (run l, run l')) in
  let adaptive field name a' =
    let run adaptive =
      observe_kernel ~adaptive ~cfg:Config.io_x ~mode:Adaptive name in
    (field, fun () -> (run a, run a')) in
  [ gpp "kind"
      { g with kind = (match kind with
            | Config.Inorder -> Ooo { width = 2; window = 32 }
            | Ooo _ -> Inorder) };
    gpp "l1_size" { g with l1_size = l1_size / 16 };
    gpp "l1_ways" { g with l1_ways = l1_ways * 2 };
    gpp "l1_line" { g with l1_line = l1_line * 2 };
    gpp "load_use_latency"
      { g with load_use_latency = load_use_latency + 2 };
    gpp "miss_penalty" { g with miss_penalty = miss_penalty * 2 };
    gpp "branch_penalty" { g with branch_penalty = branch_penalty + 2 };
    gpp "mul_latency" { g with mul_latency = mul_latency + 2 };
    gpp "div_latency" { g with div_latency = div_latency + 2 };
    gpp "fpu_latency" { g with fpu_latency = fpu_latency + 2 };
    lpsu "lanes" "war-uc" { l with lanes = lanes / 2 };
    lpsu "ib_entries" "war-uc" { l with ib_entries = ib_entries / 32 };
    lpsu "lsq_loads" "war-om" { l with lsq_loads = lsq_loads / 8 };
    lpsu "lsq_stores" "war-om" { l with lsq_stores = lsq_stores / 8 };
    lpsu "mem_ports" "war-uc" { l with mem_ports = mem_ports * 2 };
    lpsu "llfu_ports" "sgemm-uc" { l with llfu_ports = llfu_ports * 2 };
    lpsu "threads_per_lane" "war-uc"
      { l with threads_per_lane = threads_per_lane * 2 };
    lpsu "lane_issue_width" "war-uc"
      { l with lane_issue_width = lane_issue_width * 2 };
    lpsu "inter_lane_fwd" "war-om"
      { l with inter_lane_fwd = not inter_lane_fwd };
    lpsu "scan_fixed" "war-uc" { l with scan_fixed = scan_fixed * 2 };
    lpsu "scan_per_insn" "war-uc"
      { l with scan_per_insn = scan_per_insn * 2 };
    lpsu "supported" "war-om"
      { l with supported = List.filter (( <> ) Insn.Om) supported };
    lpsu "squash_penalty" "war-om"
      { l with squash_penalty = squash_penalty * 4 };
    adaptive "profile_iters" "war-uc"
      { a with profile_iters = profile_iters / 16 };
    adaptive "profile_cycles" "war-uc"
      { a with profile_cycles = profile_cycles / 16 } ]

let test_every_field_is_live () =
  List.iter
    (fun (field, runs) ->
       let base, perturbed = runs () in
       Alcotest.(check bool) (field ^ " changes a simulated number") true
         (base <> perturbed))
    (liveness_cases ())

let () =
  Alcotest.run "machine"
    [ ("timing",
       [ Alcotest.test_case "ooo beats io on ILP" `Quick
           test_ooo_faster_than_io;
         Alcotest.test_case "traditional ignores LPSU" `Quick
           test_traditional_on_lpsu_config_matches ]);
      ("modes",
       [ Alcotest.test_case "specialized needs LPSU" `Quick
           test_specialized_requires_lpsu;
         Alcotest.test_case "insn counts match" `Quick
           test_insn_counts_match_modes ]);
      ("fallback",
       [ Alcotest.test_case "unsupported pattern" `Quick
           test_fallback_unsupported_pattern;
         Alcotest.test_case "body too large" `Quick
           test_fallback_body_too_large ]);
      ("scan", [ Alcotest.test_case "analysis" `Quick test_scan_analysis ]);
      ("adaptive",
       [ Alcotest.test_case "sane envelope" `Quick
           test_adaptive_finishes_and_is_sane;
         Alcotest.test_case "short loop" `Quick
           test_adaptive_short_loop_keeps_profiling ]);
      ("apt",
       [ Alcotest.test_case "decision sticks" `Quick
           test_apt_decision_sticks;
         Alcotest.test_case "profiles across instances" `Quick
           test_apt_profiles_across_instances ]);
      ("binary",
       [ Alcotest.test_case "encoded binary runs" `Quick
           test_encoded_binary_runs_identically ]);
      ("gpp-timing",
       [ Alcotest.test_case "ooo exploits ILP" `Quick
           test_ooo_exploits_independence;
         Alcotest.test_case "io indifferent to ILP" `Quick
           test_inorder_indifferent_to_independence;
         Alcotest.test_case "taken-branch cost" `Quick
           test_taken_branches_cost_io;
         Alcotest.test_case "predictor learns" `Quick
           test_predictor_learns_loop;
         Alcotest.test_case "cache misses" `Quick test_cache_miss_costs;
         Alcotest.test_case "window monotone" `Quick test_window_monotone;
         Alcotest.test_case "scan cost" `Quick test_scan_cost_model;
         Alcotest.test_case "skip_to" `Quick test_skip_to_advances_clock ]);
      ("liveness",
       [ Alcotest.test_case "every field is live" `Quick
           test_every_field_is_live ]);
      ("allocation",
       [ Alcotest.test_case "GPP path" `Quick test_gpp_allocation_free;
         Alcotest.test_case "LPSU budget" `Quick test_lpsu_allocation_budget ]);
    ]


