(* The repository benchmark.  One workload per invocation:

     perfbench.exe --workload sweep-cold|sweep-warm|serve-warm
                   --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics untraced; --trace 1 runs
   untraced and traced passes and reports the per-layer metrics.  Every
   result is checked: a failed spec, or a result digest that differs
   from the reference, exits 1 without printing metrics.  The last line
   of stdout is one JSON object.  README.md explains the workloads and
   every metric. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Journal = Xloops.Journal
module Pool = Xloops.Pool
module Registry = Xloops.Kernels.Registry
module Client = Xloops_service.Client
module P = Xloops_service.Protocol

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let serve_exe = ref "_build/default/bin/xloops_serve.exe"
let work_root = ref "_perfbench"
let prefill_dir = ref ""

let fail fmt =
  Fmt.kstr (fun m -> Fmt.epr "perfbench: %s@." m; exit 1) fmt

let now = Spans.now_ns
let ms ns = float_of_int ns /. 1e6

(* -- Files and processes ------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let rec tree_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc n -> acc + tree_bytes (Filename.concat path n))
      0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

(* Daemons still running; killed and reaped at exit whatever happens. *)
let live = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  ignore (Unix.waitpid [] pid)

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
           (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> fail "cannot read %s" path
  | text ->
    match
      List.find_map
        (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
        (String.split_on_char '\n' text)
    with
    | Some kb -> float_of_int kb /. 1024.
    | None -> fail "no VmHWM in %s" path

(* -- Summaries ----------------------------------------------------------- *)

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

(* The highest percentile on a fixed ladder with at least ten samples
   beyond it.  The ladder stops at p95 so that the reported percentile
   does not move when a faster program fits more samples in a run, and
   because p99 swings by two to three times when a shared host is
   contended, which no regression bound can absorb. *)
let tail_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 95.; 90.; 75. ]
  |> Option.value ~default:50.

(* -- Reference digests --------------------------------------------------- *)

(* Every invocation of one build must produce the same result digest,
   whatever the workload or seed: the first one records it here, the
   others compare. *)
let check_recorded digest =
  let path = Filename.concat !work_root "digests" in
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let known =
    if Sys.file_exists path then
      In_channel.with_open_text path In_channel.input_lines
      |> List.filter_map (fun l ->
          match String.split_on_char ' ' l with
          | [ b; d ] -> Some (b, d)
          | _ -> None)
    else []
  in
  match List.assoc_opt build known with
  | Some d when d <> digest ->
    fail "result digest %s differs from %s recorded by an earlier run of \
          this build" digest d
  | Some _ -> ()
  | None ->
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path
      (fun oc -> Printf.fprintf oc "%s %s\n" build digest)

let check_digest ~what ~expected digest =
  if digest <> expected then
    fail "%s: result digest %s, expected %s" what digest expected

(* -- Sweeps -------------------------------------------------------------- *)

(* Set-up of a sweep: build, dedupe and order the plan, open the cache
   (with its start-up reaps) and start the journal. *)
let sweep_setup ~dir =
  let plan = Plan.build ~seed:!seed in
  let cache = Run_cache.create ~dir () in
  ignore (Run_cache.reap_tmp cache);
  ignore (Run_cache.reap_over_limit cache);
  let journal = Journal.start (Filename.concat dir Journal.default_name) in
  (plan, cache, journal)

(* What an untraced pass leaves behind: its timings and the digests of
   what it produced, not the results themselves, so that the heap and
   the peak RSS do not grow from pass to pass. *)
type pass = {
  setup_ns : int;
  work_ns : int;                    (* sweep + table assembly, or batches *)
  digest : string;                  (* [Plan.digest] of the results *)
  tables : string;                  (* MD5 of the assembled tables *)
  specs : int;
  insns : int;
  latencies : int list;             (* ns, one per request, in order *)
}

let summarize ~setup_ns ~work_ns ~text ~latencies results =
  { setup_ns; work_ns; digest = Plan.digest results;
    tables = Digest.to_hex (Digest.string text);
    specs = List.length results;
    insns =
      List.fold_left (fun acc (_, (rd : E.run_data)) -> acc + rd.insns) 0
        results;
    latencies }

let results_of (report : E.sweep_report) =
  if report.sr_failures <> [] then begin
    List.iter (fun f -> Fmt.epr "FAILED %a@." E.pp_sweep_failure f)
      report.sr_failures;
    fail "%d spec(s) failed" (List.length report.sr_failures)
  end;
  List.filter_map
    (fun (so : E.sweep_outcome) ->
       match so.so_result with
       | Some (Ok rd) -> Some (so.so_spec, rd)
       | Some (Error _) | None -> None)
    report.sr_outcomes

(* One untraced pass through the library's own engine and sweep, as
   `bench/main.exe --jobs 1` runs it.  A request is one spec's engine
   call in the sweep. *)
let sweep_pass ~dir =
  let latencies = ref [] in
  let t0 = now () in
  let plan, cache, journal = sweep_setup ~dir in
  let t1 = now () in
  let engine = E.caching_engine ~cache () in
  let timed =
    { engine with
      run = (fun spec ->
          let a = now () in
          let rd = engine.run spec in
          latencies := (now () - a) :: !latencies;
          rd) }
  in
  let report = E.sweep ~jobs:1 ~policy:Pool.default_policy ~journal timed plan in
  let text = Plan.assemble engine in
  let t2 = now () in
  Journal.close journal;
  summarize ~setup_ns:(t1 - t0) ~work_ns:(t2 - t1) ~text
    ~latencies:(List.rev !latencies) (results_of report)

(* The same pass through the traced engine. *)
let traced_pass ~dir =
  let t0 = now () in
  let plan =
    Spans.span "experiments.plan" (fun () -> Plan.build ~seed:!seed) in
  let cache =
    Spans.span "run_cache.open" (fun () ->
        let c = Run_cache.create ~dir () in
        ignore (Run_cache.reap_tmp c);
        ignore (Run_cache.reap_over_limit c);
        c)
  in
  let journal =
    Spans.span "journal.start" (fun () ->
        Journal.start (Filename.concat dir Journal.default_name)) in
  let engine = Traced.engine cache in
  let results = Traced.sweep engine journal plan in
  let text =
    Spans.span "experiments.assemble" (fun () -> Plan.assemble engine) in
  let t1 = now () in
  Journal.close journal;
  (results, text, cache, t1 - t0)

(* Prefill a cache directory with a cold sweep, in a child process so
   the parent's peak RSS covers only the workload itself.  Returns the
   child's result digest and assembled-table digest. *)
let prefill dir =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--prefill"; dir |] in
  let line = In_channel.input_line ic in
  match Unix.close_process_in ic, line with
  | Unix.WEXITED 0, Some l ->
    (match String.split_on_char ' ' l with
     | [ d; t ] -> (d, t)
     | _ -> fail "prefill: unexpected output %S" l)
  | _ -> fail "prefill of %s failed" dir

let run_prefill dir =
  mkdir_p dir;
  let p = sweep_pass ~dir in
  print_endline (p.digest ^ " " ^ p.tables)

(* -- The service --------------------------------------------------------- *)

let spawn_daemon ~dir ~sock =
  let exe = !serve_exe in
  let pid =
    Unix.create_process exe
      [| exe; "--listen"; "unix:" ^ sock; "--jobs"; "1"; "--cache-dir"; dir;
         "--quiet" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  pid

(* Dial until the daemon answers PING on a connected session. *)
let connect_when_ready ~pid sock =
  let addr = P.Unix_path sock in
  let give_up = now () + 30_000_000_000 in
  let rec go () =
    if now () > give_up then fail "daemon did not answer within 30 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
     | 0, _ -> ()
     | _ -> live := List.filter (( <> ) pid) !live; fail "daemon exited");
    match Client.connect addr with
    | Ok s ->
      (match Client.ping s with
       | Ok () -> s
       | Error _ -> Client.close s; Unix.sleepf 0.0005; go ())
    | Error _ -> Unix.sleepf 0.0005; go ()
  in
  go ()

let stop_daemon pid session =
  ignore (Client.shutdown session);
  Client.close session;
  reap pid

(* One batch: submit, wait for Batch_done.  Returns the results in
   batch order. *)
let submit session specs =
  let out = Array.make (List.length specs) None in
  (match
     Client.submit session specs ~on_result:(fun ~index ~digest:_ r ->
         out.(index) <- Some r)
   with
   | Ok _ -> ()
   | Error (Client.Submit_rejected e) -> fail "batch rejected: %a" P.pp_error e
   | Error (Client.Submit_conn m) -> fail "connection lost: %s" m);
  List.mapi
    (fun i spec ->
       match out.(i) with
       | Some (Ok rd) -> (spec, rd)
       | Some (Error e) ->
         fail "%a: %a" Run_spec.pp spec P.pp_error e
       | None -> fail "%a: no result" Run_spec.pp spec)
    specs

(* Kernels in seed-shuffled order: one batch of twelve Table II specs
   each. *)
let serve_order () = Plan.shuffle ~seed:!seed Registry.table2

(* The plan's specs no Table II batch covers, fetched once for the
   digest. *)
let rest_of_plan () =
  let table2 =
    List.map Run_spec.digest (List.concat_map E.specs_for Registry.table2) in
  List.filter (fun s -> not (List.mem (Run_spec.digest s) table2))
    (Plan.build ~seed:!seed)

let worker_busy_ms (st : P.stats) =
  List.fold_left (fun acc w -> acc + w.P.w_busy_ms) 0 st.per_worker

let stats_of session =
  match Client.stats session with
  | Ok st -> st
  | Error _ -> fail "STATS failed"

(* -- Reporting ----------------------------------------------------------- *)

type value = Int of int | Float of float

let json_number = function
  | Int n -> string_of_int n
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "0"

(* Human-readable lines, then the JSON object as the last line. *)
let report ~attempted ~failed ~notes metrics =
  List.iter (fun l -> print_endline l) notes;
  List.iter
    (fun (name, unit, v) ->
       Printf.printf "%-34s %16s %s\n" name (json_number v) unit)
    metrics;
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
             Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
               (json_number v) unit)
          metrics))

let sorted_ms samples =
  let a = Array.of_list (List.map ms samples) in
  Array.sort compare a;
  a

(* The fewest requests a window holds: the p95 of 200 has ten samples
   beyond it. *)
let window = 200

(* The run's best window, assembled request by request.  Consecutive
   passes are grouped into windows of as few whole passes as hold at
   least [window] requests; passes left over at the end join no window,
   and a run too short for one window is one window.  Every window sends
   the same requests in the same order, so the best window takes, for
   each request position, its fastest time in any window.  A host that is
   busy elsewhere for a stretch of a run slows only some samples of each
   position, so the best window moves far less from run to run than any
   window that really ran.  Returns its latencies (ns), the passes in a
   window and the number of windows. *)
let best_window passes =
  let per = List.length (List.hd passes).latencies in
  if List.exists (fun p -> List.length p.latencies <> per) passes then
    fail "passes made different numbers of requests";
  let k = max 1 ((window + per - 1) / per) in
  let rec windows acc cur = function
    | [] -> List.rev acc
    | p :: ps ->
      let cur = p :: cur in
      if List.length cur = k then windows (List.rev cur :: acc) [] ps
      else windows acc cur ps
  in
  let ws = match windows [] [] passes with [] -> [ passes ] | ws -> ws in
  let rows =
    List.map
      (fun w -> Array.of_list (List.concat_map (fun p -> p.latencies) w)) ws
  in
  ( Array.init (Array.length (List.hd rows)) (fun i ->
        List.fold_left (fun m r -> min m r.(i)) max_int rows),
    List.length (List.hd ws), List.length ws )

(* Median and tail of a set of latencies, ms, with the tail's
   percentile. *)
let p50_tail samples =
  let s = sorted_ms samples in
  let p = tail_percentile (Array.length s) in
  (percentile s 50., percentile s p, p)

(* Every host time comes from the best window: throughput is one pass's
   work over the best window's time per pass, plus the fastest time any
   pass spent outside its requests; the latency metrics are the median
   and tail of the best window's requests. *)
let end_to_end ~what ~setups ~rss passes =
  let first = List.hd passes in
  let best, k, n_windows = best_window passes in
  let outside =
    List.fold_left min max_int
      (List.map (fun p -> p.work_ns - sum_by Fun.id p.latencies) passes) in
  let best_s =
    ((float_of_int (Array.fold_left ( + ) 0 best) /. float_of_int k)
     +. float_of_int outside) /. 1e9
  in
  let p50, tail, p = p50_tail (Array.to_list best) in
  let all50, all_tail, all_p =
    p50_tail (List.concat_map (fun p -> p.latencies) passes) in
  ( [ ("specs_per_s", "specs/s", Float (float_of_int first.specs /. best_s));
      ("sim_mips", "MIPS", Float (float_of_int first.insns /. best_s /. 1e6));
      ("latency_p50_ms", "ms", Float p50);
      ("latency_tail_ms", "ms", Float tail);
      ("setup_s", "s",
       Float (median (List.map (fun ns -> float_of_int ns /. 1e9) setups)));
      ("peak_rss_mb", "MB", Float rss) ],
    [ Printf.sprintf
        "best window: each of its %d requests (%d pass(es)) at its fastest \
         over %d windows; latency tail = p%g" (Array.length best) k n_windows
        p;
      Printf.sprintf "latency: %s; all %d requests pooled: p50 %.3f ms, \
                      p%g %.3f ms" what (List.length passes * List.length
                                            first.latencies) all50 all_p
        all_tail;
      Printf.sprintf
        "throughput: best window %.3f s per pass; whole passes took %.3f s \
         (median of %d)" best_s
        (median (List.map (fun p -> float_of_int p.work_ns /. 1e9) passes))
        (List.length passes) ] )

(* All passes must agree with the first, and with the reference. *)
let check_passes ~what ?reference passes =
  let first = List.hd passes in
  List.iter
    (fun p ->
       check_digest ~what ~expected:first.digest p.digest;
       if p.tables <> first.tables then
         fail "%s: assembled tables differ between passes" what)
    passes;
  Option.iter
    (fun (d, t) ->
       check_digest ~what:(what ^ " vs cold prefill") ~expected:d first.digest;
       if t <> first.tables then
         fail "%s: assembled tables differ from the prefill's" what)
    reference

(* Keep running whole passes until [budget_s] seconds of them have run. *)
let passes ~budget_s f =
  let t0 = now () in
  let rec go acc =
    let acc = f () :: acc in
    if float_of_int (now () - t0) /. 1e9 >= budget_s then List.rev acc
    else go acc
  in
  go []

(* -- Workloads, untraced ------------------------------------------------- *)

let min_setups = 9

let run_sweep ~cold ~dir ~reference =
  let ps =
    passes ~budget_s:(float_of_int !seconds) (fun () ->
        if cold then (rm_rf dir; mkdir_p dir);
        sweep_pass ~dir)
  in
  check_passes ~what:"sweep" ?reference ps;
  (* More set-ups, alone, until there are enough for a steady median. *)
  let extra =
    List.init (max 0 (min_setups - List.length ps)) (fun _ ->
        if cold then (rm_rf dir; mkdir_p dir);
        let t0 = now () in
        let _, _, journal = sweep_setup ~dir in
        let t = now () - t0 in
        Journal.close journal;
        t)
  in
  let first = List.hd ps in
  let metrics, notes =
    end_to_end ~what:"one spec's engine call in the sweep"
      ~setups:(List.map (fun p -> p.setup_ns) ps @ extra)
      ~rss:(peak_rss_mb "self") ps
  in
  (first.digest, first.specs * List.length ps, metrics,
   notes @ [ Printf.sprintf "passes: %d x %d specs; tables md5 %s"
               (List.length ps) first.specs first.tables ])

(* Spawn a daemon on socket [d<i>.sock] and time it until it answers.
   Returns (pid, session, sock, set-up time). *)
let start_daemon ~dir i =
  let sock = Filename.concat !work_root (Printf.sprintf "d%d.sock" i) in
  let t0 = now () in
  let pid = spawn_daemon ~dir ~sock in
  let session = connect_when_ready ~pid sock in
  (pid, session, sock, now () - t0)

(* One more set-up: a daemon spawned, timed until it answers, stopped. *)
let time_setup ~dir i =
  let pid, session, _, t = start_daemon ~dir i in
  stop_daemon pid session;
  t

let min_spawns = 7

(* The kept daemon and the first set-up times: enough that a run of any
   length reports the median of at least [min_spawns]. *)
let start_daemons ~dir =
  let pid, session, sock, t = start_daemon ~dir 0 in
  (pid, session, sock,
   t :: List.init (min_spawns - 1) (fun i -> time_setup ~dir (i + 1)))

let serve_digest session served =
  Plan.digest (served @ submit session (rest_of_plan ()))

(* One pass of batches: each kernel's twelve Table II specs, in the
   seeded order.  A request is one batch. *)
let serve_pass ?(traced = false) session order =
  let latencies = ref [] in
  let t0 = now () in
  let results =
    List.concat
      (List.mapi
         (fun i k ->
            let a = now () in
            let r =
              if traced then
                Spans.span ~req:i "service.submit" (fun () ->
                    submit session (E.specs_for k))
              else submit session (E.specs_for k)
            in
            latencies := (now () - a) :: !latencies;
            r)
         order)
  in
  (results, summarize ~setup_ns:0 ~work_ns:(now () - t0) ~text:""
     ~latencies:(List.rev !latencies) results)

let run_serve ~dir ~reference =
  let pid, session, _, setups = start_daemons ~dir in
  let order = serve_order () in
  let served, first = serve_pass session order in
  (* A set-up between passes once a second, so that the median covers
     the whole run and not only its first moments. *)
  let setups = ref setups and last = ref (now ()) in
  let ps =
    first
    :: passes ~budget_s:(float_of_int !seconds) (fun () ->
        let p = snd (serve_pass session order) in
        if now () - !last >= 1_000_000_000 then begin
          setups := time_setup ~dir (List.length !setups) :: !setups;
          last := now ()
        end;
        p)
  in
  let setups = !setups in
  check_passes ~what:"serve" ps;
  let digest = serve_digest session served in
  check_digest ~what:"served results vs cold prefill" ~expected:reference
    digest;
  let rss = peak_rss_mb (string_of_int pid) in
  stop_daemon pid session;
  let metrics, notes =
    end_to_end ~what:"one batch of 12 specs, submit to Batch_done" ~setups
      ~rss ps
  in
  (digest, first.specs * List.length ps, metrics,
   notes @ [ Printf.sprintf "passes: %d x %d batches; set-ups: %d daemon \
                             spawns" (List.length ps) (List.length order)
               (List.length setups) ])

(* -- Workloads, traced --------------------------------------------------- *)

(* The layers whose self time the traced pass reports. *)
let layers =
  [ "compiler"; "mem"; "sim"; "kernels"; "run_spec"; "run_cache"; "journal";
    "experiments"; "service" ]

type layer_inputs = {
  n : int;                          (* traced passes *)
  wall_ns : int;                    (* all traced passes *)
  untraced_rate : float;            (* specs/s *)
  traced_rate : float;
  gc : float * float * float;       (* minor, major, MB: per untraced pass *)
  hits : int; misses : int;         (* run-cache lookups, all passes *)
  bytes_written : int;
  service : (float * float * float) option; (* connect ms, busy, wire ms *)
  results : (Run_spec.t * E.run_data) list; (* one pass *)
  replays : ((Traced.replay_totals * Traced.replay_totals)
             * (float * float)) option;
}

let per_layer (i : layer_inputs) =
  let per n = float_of_int n /. float_of_int i.n in
  let ms_of name = per (Spans.total_ns name) /. 1e6 in
  let count name = Int (Spans.calls name / i.n) in
  let by_layer, unattributed = Spans.self_by_layer ~wall_ns:i.wall_ns in
  let self l = Option.value (Hashtbl.find_opt by_layer l) ~default:0 in
  let ns_per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let sum f = List.fold_left (fun a (_, rd) -> a + f rd) 0 i.results in
  let sim_total = Array.fold_left ( + ) 0 Traced.sim_ns in
  let (io, ooo), (mem_bytes, machine_bytes) =
    Option.value i.replays
      ~default:((Traced.no_replay (), Traced.no_replay ()), (0., 0.))
  in
  let gpp_ns (t : Traced.replay_totals) =
    ns_per (t.consume_ns - t.step_ns) t.insns in
  let minor, major, alloc_mb = i.gc in
  let connect_ms, busy, wire = Option.value i.service ~default:(0., 0., 0.) in
  let f name unit v = (name, unit, Float v) in
  [ ("compiler.calls", "count", count "compiler.compile");
    f "compiler.ms" "ms" (ms_of "compiler.compile");
    f "mem.init_ms" "ms" (ms_of "mem.init");
    f "mem.init_bytes_per_spec" "B" mem_bytes;
    f "exec.ns_per_insn" "ns"
      (ns_per (io.step_ns + ooo.step_ns) (io.insns + ooo.insns));
    f "gpp_timing.ns_per_insn.io" "ns" (gpp_ns io);
    f "gpp_timing.ns_per_insn.ooo" "ns" (gpp_ns ooo);
    f "gpp_timing.bytes_per_insn" "B"
      (if io.insns + ooo.insns = 0 then 0.
       else (io.consume_bytes +. ooo.consume_bytes -. io.step_bytes
             -. ooo.step_bytes) /. float_of_int (io.insns + ooo.insns));
    f "machine.T.ns_per_insn" "ns" (ns_per Traced.sim_ns.(0) Traced.sim_insns.(0));
    f "machine.S.ns_per_insn" "ns" (ns_per Traced.sim_ns.(1) Traced.sim_insns.(1));
    f "machine.A.ns_per_insn" "ns" (ns_per Traced.sim_ns.(2) Traced.sim_insns.(2));
    f "machine.bytes_per_insn" "B" machine_bytes;
    f "machine.share" "ratio" (ns_per sim_total i.wall_ns);
    ("lpsu.lane_cycles", "count",
     Int (sum (fun rd -> if rd.mode = Traditional then 0
                else Traced.lane_cycles rd.stats)));
    f "lpsu.ns_per_lane_cycle" "ns"
      (ns_per (Traced.sim_ns.(1) + Traced.sim_ns.(2)) !Traced.sim_lane_cycles);
    ("sim.cycles_total", "count", Int (sum (fun rd -> rd.cycles)));
    ("sim.insns_total", "count", Int (sum (fun rd -> rd.insns)));
    ("sim.squashed_insns", "count",
     Int (sum (fun rd -> rd.stats.squashed_insns)));
    f "kernels.check_ms" "ms" (ms_of "kernels.check");
    ("run_spec.cache_key_calls", "count", count "run_spec.cache_key");
    f "run_spec.cache_key_ms" "ms" (ms_of "run_spec.cache_key");
    f "run_cache.find_ms" "ms" (ms_of "run_cache.find_run");
    f "run_cache.store_ms" "ms" (ms_of "run_cache.store_run");
    f "run_cache.hit_ratio" "ratio"
      (ns_per i.hits (i.hits + i.misses));
    ("run_cache.hits", "count", Int (i.hits / i.n));
    ("run_cache.misses", "count", Int (i.misses / i.n));
    ("run_cache.bytes_written", "B", Int (i.bytes_written / i.n));
    ("journal.records", "count", count "journal.record");
    f "journal.record_ms" "ms" (ms_of "journal.record");
    f "experiments.meta_ms" "ms" (ms_of "experiments.meta");
    f "experiments.assemble_ms" "ms" (ms_of "experiments.assemble");
    f "service.connect_ms" "ms" connect_ms;
    f "service.worker_busy_ratio" "ratio" busy;
    f "service.wire_ms_per_batch" "ms" wire;
    f "gc.minor_collections" "count" minor;
    f "gc.major_collections" "count" major;
    f "gc.allocated_mb" "MB" alloc_mb ]
  @ List.map (fun l -> f ("self_ms." ^ l) "ms" (per (self l) /. 1e6)) layers
  @ [ f "trace.unattributed_share" "ratio" (ns_per unattributed i.wall_ns);
      f "trace.wall_ms" "ms" (per i.wall_ns /. 1e6);
      f "trace.overhead" "ratio" (i.traced_rate /. i.untraced_rate) ]

(* GC activity of one untraced pass: minor and major collections and
   allocated bytes.  The minor heap is emptied before and after, so the
   allocation count is complete (see README.md, "Allocation numbers"). *)
let with_gc f =
  Gc.minor ();
  let s0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  let s1 = Gc.quick_stat () and a1 = Gc.allocated_bytes () in
  ( r,
    ( float_of_int (s1.minor_collections - s0.minor_collections - 1),
      float_of_int (s1.major_collections - s0.major_collections),
      (a1 -. a0) /. 1e6 ) )

(* A warm-up untraced pass, then untraced and traced passes in turn
   until the time budget is spent, so both kinds see the same process
   state.  Returns the warm-up, the untraced passes with their GC
   activity, and the traced passes. *)
let alternate ~untraced ~traced =
  let warm = untraced () in
  let t0 = now () in
  let rec go us ts =
    let us = with_gc untraced :: us in
    let ts = traced () :: ts in
    if float_of_int (now () - t0) /. 1e9 >= float_of_int !seconds then
      (warm, List.rev us, List.rev ts)
    else go us ts
  in
  go [] []

let mean_gc us =
  let n = float_of_int (List.length us) in
  List.fold_left
    (fun (a, b, c) (_, (x, y, z)) -> (a +. (x /. n), b +. (y /. n), c +. (z /. n)))
    (0., 0., 0.) us

let rate ~specs ns = float_of_int specs /. (float_of_int ns /. 1e9)

(* The results of one traced pass, for the per-layer counts. *)
let layer_results = ref []

let keep_first results =
  if !layer_results = [] then layer_results := results

let trace_sweep ~cold ~dir ~reference =
  let fresh () = if cold then (rm_rf dir; mkdir_p dir) in
  let plan = Plan.build ~seed:!seed in
  if not (Traced.check_keys plan) then
    fail "replicated cache keys differ from Run_spec's";
  Traced.reset ();
  let hits = ref 0 and misses = ref 0 and written = ref 0 in
  let untraced () = fresh (); sweep_pass ~dir in
  (* bytes under the cache directory, the journal excepted *)
  let blob_bytes () =
    tree_bytes dir - tree_bytes (Filename.concat dir Journal.default_name) in
  let traced () =
    fresh ();
    let before = blob_bytes () in
    let results, text, cache, wall = traced_pass ~dir in
    hits := !hits + Run_cache.hits cache;
    misses := !misses + Run_cache.misses cache;
    written := !written + blob_bytes () - before;
    keep_first results;
    summarize ~setup_ns:0 ~work_ns:wall ~text ~latencies:[] results
  in
  let warm, us, ts = alternate ~untraced ~traced in
  check_passes ~what:"untraced and traced sweeps" ?reference
    ((warm :: List.map fst us) @ ts);
  let n = List.length ts in
  let wall_ns = sum_by (fun p -> p.work_ns) ts in
  let replays =
    if cold then Some (Traced.replay_gpp plan, Traced.alloc_machine plan)
    else None
  in
  Spans.write_chrome
    (Filename.concat !work_root (Printf.sprintf "trace-%s.json" !workload));
  let metrics =
    per_layer
      { n; wall_ns;
        untraced_rate =
          rate ~specs:(warm.specs * List.length us)
            (sum_by (fun (p, _) -> p.work_ns + p.setup_ns) us);
        traced_rate = rate ~specs:(warm.specs * n) wall_ns;
        gc = mean_gc us;
        hits = !hits; misses = !misses; bytes_written = !written;
        service = None;
        results = !layer_results; replays }
  in
  (warm.digest, warm.specs * n, metrics,
   [ Printf.sprintf "traced passes: %d; untraced passes: %d + 1 warm-up" n
       (List.length us) ])

let trace_serve ~dir ~reference =
  let pid, session, sock, _ = start_daemons ~dir in
  let order = serve_order () in
  let served, warm = serve_pass session order in
  let untraced () = snd (serve_pass session order) in
  Traced.reset ();
  (* the traced passes run on a second connection, opened by the first *)
  let traced_session = ref None in
  let busy_ms = ref 0 and hits = ref 0 and misses = ref 0 in
  let traced () =
    let t0 = now () in
    let s =
      match !traced_session with
      | Some s -> s
      | None ->
        Spans.span "service.connect" (fun () ->
            match Client.connect (P.Unix_path sock) with
            | Ok s -> traced_session := Some s; s
            | Error e -> fail "connect: %a" Client.pp_connect_error e)
    in
    let stats () = Spans.span "service.stats" (fun () -> stats_of s) in
    let st0 = stats () in
    let _, p = serve_pass ~traced:true s order in
    let st1 = stats () in
    busy_ms := !busy_ms + worker_busy_ms st1 - worker_busy_ms st0;
    hits := !hits + st1.cache_hits - st0.cache_hits;
    misses := !misses + st1.cache_misses - st0.cache_misses;
    { p with work_ns = now () - t0 }
  in
  let warm2, us, ts = alternate ~untraced ~traced in
  check_passes ~what:"untraced and traced serve passes"
    ((warm :: warm2 :: List.map fst us) @ ts);
  let digest = serve_digest session served in
  check_digest ~what:"served results vs cold prefill" ~expected:reference
    digest;
  Option.iter Client.close !traced_session;
  stop_daemon pid session;
  let n = List.length ts in
  let wall_ns = sum_by (fun p -> p.work_ns) ts in
  let submit_ms = ms (Spans.total_ns "service.submit") in
  Spans.write_chrome
    (Filename.concat !work_root (Printf.sprintf "trace-%s.json" !workload));
  let metrics =
    per_layer
      { n; wall_ns;
        untraced_rate =
          rate ~specs:(warm.specs * List.length us)
            (sum_by (fun (p, _) -> p.work_ns) us);
        traced_rate = rate ~specs:(warm.specs * n) wall_ns;
        gc = mean_gc us;
        hits = !hits; misses = !misses; bytes_written = 0;
        service =
          Some ( ms (Spans.total_ns "service.connect"),
                 float_of_int !busy_ms /. ms wall_ns,
                 (submit_ms -. float_of_int !busy_ms)
                 /. float_of_int (n * List.length order) );
        results = served; replays = None }
  in
  (digest, warm.specs * n, metrics,
   [ Printf.sprintf "traced passes: %d; untraced passes: %d + 1 warm-up" n
       (List.length us) ])

(* -- Driver -------------------------------------------------------------- *)

let () =
  Arg.parse
    [ "--workload", Arg.Set_string workload,
      "W  sweep-cold | sweep-warm | serve-warm";
      "--seed", Arg.Set_int seed, "N  workload seed (spec and request order)";
      "--seconds", Arg.Set_int seconds, "S  measured time per run";
      "--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1)";
      "--serve-exe", Arg.Set_string serve_exe, "PATH  xloops_serve binary";
      "--work-dir", Arg.Set_string work_root, "DIR  scratch directory";
      "--prefill", Arg.Set_string prefill_dir,
      "DIR  (internal) fill a result cache with a cold sweep and exit" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench: the XLOOPS repository benchmark";
  if !prefill_dir <> "" then (run_prefill !prefill_dir; exit 0);
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then fail "bad arguments";
  mkdir_p !work_root;
  let run_dir =
    Filename.concat !work_root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf run_dir;
  mkdir_p run_dir;
  let cache = Filename.concat run_dir "cache" in
  let traced = !trace = 1 in
  let digest, attempted, metrics, notes =
    match !workload with
    | "sweep-cold" ->
      if traced then trace_sweep ~cold:true ~dir:cache ~reference:None
      else run_sweep ~cold:true ~dir:cache ~reference:None
    | "sweep-warm" ->
      let reference = prefill cache in
      if traced then trace_sweep ~cold:false ~dir:cache
          ~reference:(Some reference)
      else run_sweep ~cold:false ~dir:cache ~reference:(Some reference)
    | "serve-warm" ->
      let reference, _ = prefill cache in
      if traced then trace_serve ~dir:cache ~reference
      else run_serve ~dir:cache ~reference
    | w -> fail "unknown workload %S" w
  in
  check_recorded digest;
  rm_rf run_dir;
  report ~attempted ~failed:0
    ~notes:(Printf.sprintf "workload %s, seed %d, trace %d; result digest %s"
              !workload !seed !trace digest :: notes)
    metrics
