(* Trace infrastructure: levels, line limits, zero-interference with
   timing, and the content of the loop-level event stream. *)

module Trace = Xloops_sim.Trace
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Kernel = Xloops_kernels.Kernel
module Registry = Xloops_kernels.Registry
module Compile = Xloops_compiler.Compile
module Memory = Xloops_mem.Memory

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  go 0

let traced_run ?level ?limit ?(cfg = Config.io_x) name mode =
  let k = Registry.find name in
  let c = Compile.compile k.Kernel.kernel in
  let mem = Memory.create () in
  k.init c.array_base mem;
  let buf = Buffer.create 4096 in
  let trace = Trace.to_buffer ?level ?limit buf in
  let r = Machine.ok_exn (Machine.simulate ~trace ~cfg ~mode c.program mem) in
  (r, Buffer.contents buf)

let test_decisions_content () =
  let _, log = traced_run "war-uc" Machine.Specialized in
  Alcotest.(check bool) "mentions scan" true (contains log "scan xloop@");
  Alcotest.(check bool) "mentions lpsu start" true
    (contains log "lpsu start: xloop.uc");
  Alcotest.(check bool) "mentions completion" true
    (contains log "lpsu done:");
  (* Decisions level excludes lane noise. *)
  Alcotest.(check bool) "no dispatch lines" false (contains log "dispatch")

let test_lanes_content () =
  let _, log = traced_run ~level:Trace.Lanes "ksack-sm-om"
      Machine.Specialized in
  Alcotest.(check bool) "dispatches" true (contains log "dispatch iter=");
  Alcotest.(check bool) "commits" true (contains log "commit iter=");
  Alcotest.(check bool) "squashes" true (contains log "SQUASH")

let test_insns_content () =
  let _, log = traced_run ~level:Trace.Insns ~limit:4000 "war-uc"
      Machine.Specialized in
  Alcotest.(check bool) "gpp instructions" true (contains log "gpp");
  Alcotest.(check bool) "lane instructions" true (contains log "lane");
  Alcotest.(check bool) "disassembly" true (contains log "addiu.xi")

let test_db_bound_events () =
  let _, log = traced_run ~level:Trace.Lanes "bfs-uc-db"
      Machine.Specialized in
  Alcotest.(check bool) "bound raised" true (contains log "bound raised")

let test_de_exit_event () =
  let _, log = traced_run "find-de" Machine.Specialized in
  Alcotest.(check bool) "exit taken" true
    (contains log "data-dependent exit taken")

let test_adaptive_migration_event () =
  (* On the 4-way out-of-order host, adpcm's long register-carried
     critical path makes specialized execution lose, so adaptive
     execution migrates the loop back. *)
  let _, log = traced_run ~cfg:Config.ooo4_x "adpcm-or" Machine.Adaptive in
  Alcotest.(check bool) "profile verdict" true
    (contains log "GPP profile done");
  Alcotest.(check bool) "migration" true (contains log "migrating back")

let test_fallback_event () =
  let k = Registry.find "war-uc" in
  let c = Compile.compile k.kernel in
  let mem = Memory.create () in
  k.init c.array_base mem;
  let buf = Buffer.create 256 in
  let trace = Trace.to_buffer buf in
  let lpsu = { Config.default_lpsu with ib_entries = 4 } in
  let cfg = Config.with_lpsu Config.io "+tiny" ~lpsu in
  ignore (Machine.ok_exn
            (Machine.simulate ~trace ~cfg ~mode:Machine.Specialized
               c.program mem));
  Alcotest.(check bool) "fallback reason" true
    (contains (Buffer.contents buf) "falls back to traditional")

let test_limit_respected () =
  let buf = Buffer.create 256 in
  let trace = Trace.to_buffer ~level:Trace.Insns ~limit:10 buf in
  let k = Registry.find "war-uc" in
  let c = Compile.compile k.Kernel.kernel in
  let mem = Memory.create () in
  k.init c.array_base mem;
  ignore (Machine.ok_exn
            (Machine.simulate ~trace ~cfg:Config.io_x
               ~mode:Machine.Specialized c.program mem));
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check bool) "at most 10 lines" true
    (List.length (List.filter (fun l -> l <> "") lines) <= 10);
  Alcotest.(check bool) "exhausted" true (Trace.exhausted (Some trace))

let test_tracing_does_not_change_timing () =
  let run trace =
    let k = Registry.find "kmeans-or" in
    let c = Compile.compile k.Kernel.kernel in
    let mem = Memory.create () in
    k.init c.array_base mem;
    (Machine.ok_exn
       (Machine.simulate ?trace ~cfg:Config.io_x ~mode:Machine.Specialized
          c.program mem)).Machine.cycles
  in
  let plain = run None in
  let buf = Buffer.create 65536 in
  let traced = run (Some (Trace.to_buffer ~level:Trace.Insns buf)) in
  Alcotest.(check int) "identical cycles" plain traced

(* [xloops_trace]'s whole stdout for two fixed runs, produced by a dune
   rule beside this test: every lane event of a speculative loop with
   squashes, and the fault, hang and degradation decisions of a
   fault-injected run.  Pins the trace text itself, which the checks
   above only sample. *)
let test_golden_stdout () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let lines s = String.split_on_char '\n' s in
  let want = lines (read "golden/trace_stdout.txt")
  and got = lines (read "trace_stdout.out") in
  let rec first_diff n = function
    | w :: ws, g :: gs -> if w = g then first_diff (n + 1) (ws, gs)
      else Some (n, w, g)
    | [], [] -> None
    | w :: _, [] -> Some (n, w, "<end of output>")
    | [], g :: _ -> Some (n, "<end of golden>", g)
  in
  match first_diff 1 (want, got) with
  | None -> ()
  | Some (n, w, g) ->
    Alcotest.failf "trace_stdout line %d:\n  golden: %s\n  actual: %s" n w g

let () =
  Alcotest.run "trace"
    [ ("levels",
       [ Alcotest.test_case "decisions" `Quick test_decisions_content;
         Alcotest.test_case "lanes" `Quick test_lanes_content;
         Alcotest.test_case "insns" `Quick test_insns_content ]);
      ("events",
       [ Alcotest.test_case "db bound" `Quick test_db_bound_events;
         Alcotest.test_case "de exit" `Quick test_de_exit_event;
         Alcotest.test_case "adaptive migration" `Quick
           test_adaptive_migration_event;
         Alcotest.test_case "fallback" `Quick test_fallback_event ]);
      ("mechanics",
       [ Alcotest.test_case "line limit" `Quick test_limit_respected;
         Alcotest.test_case "no timing interference" `Quick
           test_tracing_does_not_change_timing ]);
      ("golden",
       [ Alcotest.test_case "xloops_trace stdout" `Quick
           test_golden_stdout ]);
    ]
