(* Fault-tolerant orchestration tests: the failure taxonomy and seeded
   retry/backoff ([Failure]), the crash-safe sweep journal ([Journal]),
   cache integrity (checksums, a one-byte rot at every blob byte,
   quarantine, tmp reaping, the size reaper, torn and interleaved pack
   records), crash isolation in
   [Pool.run_each], and whole sweeps under injected infrastructure
   chaos — including the acceptance scenario (poisoned spec + stalling
   spec + bit-flipped blobs) and the kill-at-a-random-prefix /
   [--resume] property. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Pool = Xloops.Pool
module F = Xloops.Failure
module Journal = Xloops.Journal
module Chaos = Xloops.Chaos
module Registry = Xloops.Kernels.Registry
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine
module Stats = Xloops.Sim.Stats

(* run_data comparison must ignore the wall clock and the cache-origin
   markers — the only fields that depend on how a result was obtained
   rather than on what was simulated. *)
let strip (rd : E.run_data) =
  { rd with
    E.stats =
      { rd.E.stats with Stats.wall_ns = 0; cache_hits = 0;
        cache_misses = 0 } }

let tmp_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xloops_sweep_test_%d_%d" (Unix.getpid ())
       (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))

let tmp_file () = tmp_dir () ^ ".journal"

(* Rot the blob of [key]'s live result record in its pack. *)
let rot kind cache ~key =
  match Run_cache.blob_span cache ~key with
  | Some (pack, pos, len) -> Chaos.corrupt kind pack ~pos ~len
  | None -> Alcotest.fail "no live record to rot"

(* Every regular file under [dir], relative to it, sorted. *)
let rec files dir =
  List.concat_map
    (fun name ->
       let p = Filename.concat dir name in
       if Sys.is_directory p then
         List.map (Filename.concat name) (files p)
       else [ name ])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* -- Failure taxonomy ---------------------------------------------------- *)

let test_classify () =
  let fuel = F.Sim (Machine.Out_of_fuel { pc = 0; insns = 1; cycle = 1 }) in
  Alcotest.(check string) "sim is permanent" "permanent"
    (F.severity_name (F.classify fuel));
  Alcotest.(check string) "check is permanent" "permanent"
    (F.severity_name
       (F.classify (F.Check { kernel = "k"; what = "w"; msg = "m" })));
  Alcotest.(check bool) "timeout is transient" true
    (F.is_transient (F.Timeout { elapsed_ms = 2; deadline_ms = 1 }));
  Alcotest.(check bool) "io is transient" true (F.is_transient (F.Io "x"));
  Alcotest.(check bool) "transient crash is transient" true
    (F.is_transient (F.Crash { exn = "e"; transient = true }));
  Alcotest.(check bool) "other crash is permanent" false
    (F.is_transient (F.Crash { exn = "e"; transient = false }))

let test_of_exn () =
  let roundtrip e = F.of_exn e in
  (match roundtrip (F.Check_failed { kernel = "k"; what = "w"; msg = "m" })
   with
   | F.Check { kernel = "k"; _ } -> ()
   | f -> Alcotest.failf "check_failed misclassified: %a" F.pp f);
  (match
     roundtrip
       (F.Sim_failed (Machine.Out_of_fuel { pc = 8; insns = 3; cycle = 4 }))
   with
   | F.Sim (Machine.Out_of_fuel { pc = 8; insns = 3; cycle = 4 }) -> ()
   | f -> Alcotest.failf "sim_failed misclassified: %a" F.pp f);
  (match roundtrip (F.Transient_crash "boom") with
   | F.Crash { transient = true; _ } -> ()
   | f -> Alcotest.failf "transient_crash misclassified: %a" F.pp f);
  (match roundtrip (Sys_error "disk") with
   | F.Io "disk" -> ()
   | f -> Alcotest.failf "sys_error misclassified: %a" F.pp f);
  (match roundtrip Exit with
   | F.Crash { transient = false; _ } -> ()
   | f -> Alcotest.failf "unknown exn misclassified: %a" F.pp f)

let test_backoff_deterministic () =
  let b attempt = F.backoff_ms ~seed:7 ~salt:"spec-a" ~attempt () in
  Alcotest.(check int) "same inputs same backoff" (b 1) (b 1);
  Alcotest.(check bool) "attempt 3 waits longer than attempt 1" true
    (b 3 > b 1);
  Alcotest.(check bool) "capped" true
    (F.backoff_ms ~cap_ms:100 ~seed:7 ~salt:"spec-a" ~attempt:30 () <= 100);
  let with_seed seed =
    F.backoff_ms ~seed ~salt:"spec-a" ~attempt:1 () in
  Alcotest.(check bool) "seed changes the jitter" true
    (List.exists (fun s -> with_seed s <> with_seed 0) [ 1; 2; 3; 4; 5 ])

let test_with_retries_transient () =
  let calls = ref 0 in
  let o =
    F.with_retries ~max_retries:3 ~backoff_base_ms:1 (fun () ->
        incr calls;
        if !calls < 3 then raise (F.Transient_crash "flaky");
        42)
  in
  Alcotest.(check bool) "eventually ok" true (o.F.result = Ok 42);
  Alcotest.(check int) "attempts counted" 3 o.F.attempts

let test_with_retries_permanent () =
  let calls = ref 0 in
  let o =
    F.with_retries ~max_retries:3 ~backoff_base_ms:1 (fun () ->
        incr calls;
        invalid_arg "always")
  in
  (match o.F.result with
   | Error (F.Crash { transient = false; _ }) -> ()
   | _ -> Alcotest.fail "expected a permanent crash");
  Alcotest.(check int) "no retry of permanent failures" 1 !calls

let test_with_retries_deadline () =
  let o =
    F.with_retries ~deadline_ms:1 (fun () -> Unix.sleepf 0.03; "late") in
  (match o.F.result with
   | Error (F.Timeout { deadline_ms = 1; _ }) -> ()
   | _ -> Alcotest.fail "expected a timeout");
  let o = F.with_retries ~deadline_ms:60_000 (fun () -> "fast") in
  Alcotest.(check bool) "fast run is ok" true (o.F.result = Ok "fast")

let test_with_retries_abort_escapes () =
  Alcotest.check_raises "abort propagates" (F.Abort "stop") (fun () ->
      ignore (F.with_retries (fun () -> raise (F.Abort "stop"))))

(* -- Journal ------------------------------------------------------------- *)

let dg s = Xloops.Digest_hex.of_digest (Digest.string s)

let digest =
  Alcotest.testable Xloops.Digest_hex.pp Xloops.Digest_hex.equal

let test_journal_roundtrip () =
  let path = tmp_file () in
  let j = Journal.start path in
  Journal.record j (dg "a");
  Journal.record j (dg "b");
  Journal.record j (dg "a");                     (* idempotent *)
  Alcotest.(check int) "two distinct digests" 2 (Journal.count j);
  Alcotest.(check bool) "member" true (Journal.member j (dg "a"));
  Journal.close j;
  Alcotest.(check (list digest)) "load returns them in order"
    [ dg "a"; dg "b" ] (Journal.load path);
  (* Resume keeps them; a fresh start wipes them. *)
  let j2 = Journal.start ~resume:true path in
  Alcotest.(check int) "resume preloads" 2 (Journal.preloaded j2);
  Journal.close j2;
  let j3 = Journal.start path in
  Alcotest.(check int) "fresh start is empty" 0 (Journal.count j3);
  Journal.close j3;
  Sys.remove path

let test_journal_torn_tail () =
  let path = tmp_file () in
  let j = Journal.start path in
  Journal.record j (dg "a");
  Journal.close j;
  (* Simulate a crash mid-append: a torn, newline-less final line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc (String.sub (Xloops.Digest_hex.to_hex (dg "b")) 0 11);
  close_out oc;
  Alcotest.(check (list digest)) "torn tail skipped on load" [ dg "a" ]
    (Journal.load path);
  let j2 = Journal.start ~resume:true path in
  Alcotest.(check int) "torn tail dropped on resume" 1
    (Journal.preloaded j2);
  Journal.record j2 (dg "c");
  Journal.close j2;
  Alcotest.(check (list digest)) "appends after repair parse clean"
    [ dg "a"; dg "c" ] (Journal.load path);
  Sys.remove path

(* A sweep killed with SIGKILL never reaches [close]: every record it
   made must already be in the file.  The writer is a separate process
   (journal_kill.exe), which records three digests and kills itself. *)
let test_journal_survives_sigkill () =
  let path = tmp_file () in
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "journal_kill.exe"
  in
  let pid =
    Unix.create_process exe [| exe; path |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  (match snd (Unix.waitpid [] pid) with
   | Unix.WSIGNALED s when s = Sys.sigkill -> ()
   | _ -> Alcotest.fail "journal_kill.exe was not killed by SIGKILL");
  Alcotest.(check (list digest)) "load returns the three records"
    [ dg "a"; dg "b"; dg "c" ] (Journal.load path);
  let j = Journal.start ~resume:true path in
  Alcotest.(check int) "resume preloads 3" 3 (Journal.preloaded j);
  Journal.close j;
  Sys.remove path

let test_journal_rejects_garbage () =
  (* Garbage can no longer reach [Journal.record] — it takes an abstract
     [Digest_hex.t] — so the validation now lives in [Digest_hex.of_hex]
     (the only way wire/journal strings become digests) and in [load],
     which skips undecodable lines instead of resurrecting them. *)
  Alcotest.(check bool) "of_hex rejects garbage" true
    (Result.is_error (Xloops.Digest_hex.of_hex "nope"));
  Alcotest.(check bool) "of_hex rejects uppercase hex" true
    (Result.is_error
       (Xloops.Digest_hex.of_hex
          (String.uppercase_ascii (Xloops.Digest_hex.to_hex (dg "a")))));
  let path = tmp_file () in
  let j = Journal.start path in
  Journal.record j (dg "a");
  Journal.close j;
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "nope\n";
  close_out oc;
  Alcotest.(check (list digest)) "garbage line skipped on load" [ dg "a" ]
    (Journal.load path);
  Sys.remove path

(* -- Cache integrity ----------------------------------------------------- *)

let war_spec =
  Run_spec.make ~cfg:Config.io_x ~mode:Machine.Specialized "war-uc"

let test_cache_detects_corruption corrupt_kind () =
  let dir = tmp_dir () in
  let rd = Run_spec.execute war_spec in
  let key = Run_spec.cache_key war_spec in
  let c1 = Run_cache.create ~dir () in
  Run_cache.store_run c1 ~key rd;
  Alcotest.(check bool) "fixture corrupted" true (rot corrupt_kind c1 ~key);
  let c2 = Run_cache.create ~dir () in
  Alcotest.(check bool) "corrupt blob reads as absent" true
    (Run_cache.find_run c2 ~key = None);
  Alcotest.(check int) "corruption counted" 1 (Run_cache.corrupt c2);
  Alcotest.(check int) "not a plain miss" 0 (Run_cache.misses c2);
  Alcotest.(check int) "blob quarantined" 1 (Run_cache.quarantined c2);
  Alcotest.(check bool) "quarantined as <key>.run" true
    (Sys.file_exists
       (Filename.concat (Filename.concat dir Run_cache.quarantine_subdir)
          (Xloops.Digest_hex.to_hex key ^ ".run")));
  Alcotest.(check bool) "blob removed from the live tree" true
    (Run_cache.blob_span (Run_cache.create ~dir ()) ~key = None);
  (* The slot is reusable: store again, read back clean. *)
  Run_cache.store_run c2 ~key rd;
  let c3 = Run_cache.create ~dir () in
  Alcotest.(check bool) "restored blob round-trips" true
    (Run_cache.find_run c3 ~key = Some rd)

let test_cache_reaps_tmp () =
  let dir = tmp_dir () in
  let rd = Run_spec.execute war_spec in
  let key = Run_spec.cache_key war_spec in
  let c = Run_cache.create ~dir () in
  Run_cache.store_run c ~key rd;
  (* A limit reap killed mid-rewrite leaves its temp file behind... *)
  let pack, _, _ = Option.get (Run_cache.blob_span c ~key) in
  let orphan = pack ^ ".tmp.1234" in
  let oc = open_out orphan in
  output_string oc "partial write";
  close_out oc;
  Alcotest.(check int) "one orphan reaped" 1 (Run_cache.reap_tmp c);
  Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
  Alcotest.(check int) "nothing left to reap" 0 (Run_cache.reap_tmp c);
  Alcotest.(check bool) "live blob untouched" true
    (Run_cache.find_run c ~key <> None)

let key_of i = dg (Printf.sprintf "k%d" i)

let sample_rd = lazy (Run_spec.execute war_spec)

(* The size of the pack that holds [key]'s record. *)
let pack_size cache ~key =
  match Run_cache.blob_span cache ~key with
  | Some (pack, _, _) -> (Unix.stat pack).Unix.st_size
  | None -> Alcotest.fail "no pack"

let test_reap_over_limit () =
  let dir = tmp_dir () in
  let seed = Run_cache.create ~dir () in
  let rd = Lazy.force sample_rd in
  let n = 8 in
  for i = 0 to n - 1 do
    Run_cache.store_run seed ~key:(key_of i) rd
  done;
  let limit = pack_size seed ~key:(key_of 0) / 2 in
  let c = Run_cache.create ~dir ~limit_bytes:limit () in
  let removed = Run_cache.reap_over_limit c in
  Alcotest.(check bool) "over-limit blobs reaped" true (removed > 0);
  Alcotest.(check int) "reaps counted as evictions" removed
    (Run_cache.evictions c);
  let fresh = Run_cache.create ~dir () in
  let live = List.filter (fun i -> Run_cache.find_run fresh ~key:(key_of i)
                                   <> None) (List.init n Fun.id) in
  Alcotest.(check int) "removed + surviving = stored" n
    (removed + List.length live);
  Alcotest.(check bool) "the newest survive" true
    (live = List.init (List.length live) (fun i -> n - List.length live + i));
  Alcotest.(check bool) "survivors fit the limit" true
    (pack_size fresh ~key:(key_of (n - 1)) <= limit);
  (* a second reap is a no-op; so is one without a limit *)
  Alcotest.(check int) "reap is idempotent" 0 (Run_cache.reap_over_limit c);
  Alcotest.(check int) "no limit, no reap" 0
    (Run_cache.reap_over_limit (Run_cache.create ~dir ()))

(* Every one-byte rot of a sealed blob is caught before it is
   unmarshalled.  The pack bytes of one stored result and of one stored
   meta record are saved.  Each case resets a case directory to a copy
   of them with one blob byte overwritten and an empty quarantine (no
   mkdir per case: that made the cases nine times slower), and reads it
   back with a fresh handle: a miss, counted corrupt, quarantined,
   never an exception. *)
let test_every_byte_rot_caught () =
  let root = tmp_dir () and key = key_of 9 in
  let store name f =
    let dir = Filename.concat root name in
    f (Run_cache.create ~dir ());
    dir
  in
  let run_dir = store "run" (fun c ->
      Run_cache.store_run c ~key (Lazy.force sample_rd)) in
  let meta_dir = store "meta" (fun c ->
      Run_cache.store_meta c ~key [| 1; 22; 333; 4444; -5 |]) in
  let pack, pos, len =
    Option.get (Run_cache.blob_span (Run_cache.create ~dir:run_dir ()) ~key)
  in
  let rel = String.sub pack (String.length run_dir + 1)
      (String.length pack - String.length run_dir - 1) in
  let saved dir =
    In_channel.with_open_bin (Filename.concat dir rel) In_channel.input_all in
  let run_pack = saved run_dir and meta_pack = saved meta_dir in
  (* Both packs hold one record: the blob sits between the same frame. *)
  let tail = String.length run_pack - pos - len in
  let dir = Filename.concat root "case" in
  let qdir = Filename.concat dir Run_cache.quarantine_subdir in
  Sys.mkdir dir 0o755;
  Sys.mkdir (Filename.concat dir (Filename.dirname rel)) 0o755;
  let n = ref 0 in
  let case what bytes find =
    for i = pos to String.length bytes - tail - 1 do
      List.iter
        (fun v ->
           if Char.code bytes.[i] <> v then begin
             incr n;
             let rotted = Bytes.of_string bytes in
             Bytes.set rotted i (Char.chr v);
             let fd =
               Unix.openfile (Filename.concat dir rel)
                 [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
             ignore (Unix.write fd rotted 0 (Bytes.length rotted));
             Unix.ftruncate fd (Bytes.length rotted);
             Unix.close fd;
             let c = Run_cache.create ~dir () in
             let at = Printf.sprintf "%s byte %d := %#x" what (i - pos) v in
             Alcotest.(check bool) (at ^ ": a miss") true (find c);
             Alcotest.(check int) (at ^ ": corrupt") 1 (Run_cache.corrupt c);
             Alcotest.(check int) (at ^ ": quarantined") 1
               (Run_cache.quarantined c);
             Array.iter (fun f -> Sys.remove (Filename.concat qdir f))
               (Sys.readdir qdir)
           end)
        [ 0x00; 0x7f; 0x80; 0xff ]
    done
  in
  case "result" run_pack (fun c -> Run_cache.find_run c ~key = None);
  case "meta" meta_pack (fun c -> Run_cache.find_meta c ~key = None);
  Alcotest.(check bool) "every blob byte rotted" true (!n > 3 * len)

(* A writer killed mid-record leaves a torn tail; the next append lands
   after it.  The records on both sides read back, the torn one is a
   plain miss, and nothing counts as corrupt. *)
let test_torn_record_skipped () =
  let dir = tmp_dir () in
  let rd = Lazy.force sample_rd in
  let c = Run_cache.create ~dir () in
  Run_cache.store_run c ~key:(key_of 0) rd;
  Run_cache.store_run c ~key:(key_of 1) rd;
  let pack, pos, len = Option.get (Run_cache.blob_span c ~key:(key_of 1)) in
  Unix.truncate pack (pos + len / 2);
  Run_cache.store_run (Run_cache.create ~dir ()) ~key:(key_of 2) rd;
  let fresh = Run_cache.create ~dir () in
  Alcotest.(check bool) "record before the tear" true
    (Run_cache.find_run fresh ~key:(key_of 0) = Some rd);
  Alcotest.(check bool) "record after the tear" true
    (Run_cache.find_run fresh ~key:(key_of 2) = Some rd);
  Alcotest.(check bool) "torn record absent" true
    (Run_cache.find_run fresh ~key:(key_of 1) = None);
  Alcotest.(check (pair int int)) "two hits, one miss" (2, 1)
    (Run_cache.hits fresh, Run_cache.misses fresh);
  Alcotest.(check int) "nothing corrupt" 0 (Run_cache.corrupt fresh)

(* Two handles on one directory, stores interleaved: each finds the
   other's records from the pack's tail. *)
let test_two_handles_interleave () =
  let dir = tmp_dir () in
  let rd = Lazy.force sample_rd in
  let a = Run_cache.create ~dir () and b = Run_cache.create ~dir () in
  List.iter (fun i -> Run_cache.store_run (if i mod 2 = 0 then a else b)
                ~key:(key_of i) rd) [ 0; 1; 2; 3 ];
  List.iter
    (fun (name, h) ->
       List.iter
         (fun i ->
            Alcotest.(check bool) (Printf.sprintf "%s finds k%d" name i) true
              (Run_cache.find_run h ~key:(key_of i) = Some rd))
         [ 0; 1; 2; 3 ])
    [ ("a", a); ("b", b) ];
  Alcotest.(check (pair int int)) "every lookup hit" (8, 0)
    (Run_cache.hits a + Run_cache.hits b,
     Run_cache.misses a + Run_cache.misses b)

(* A cold journaled sweep of the quick plan, tables included, creates
   the pack and the journal and nothing else. *)
let test_cold_sweep_two_files () =
  let dir = tmp_dir () in
  let journal = Journal.start (Filename.concat dir Journal.default_name) in
  let engine = E.caching_engine ~cache:(Run_cache.create ~dir ()) () in
  let report = E.sweep ~jobs:1 ~journal engine (E.quick_plan ()) in
  Journal.close journal;
  Alcotest.(check int) "clean sweep" 0 (List.length report.E.sr_failures);
  List.iter (fun k -> ignore (E.evaluate ~engine (Registry.find k)))
    E.quick_kernels;
  Alcotest.(check (list string)) "only the pack and the journal"
    [ Journal.default_name;
      Filename.concat ("v" ^ string_of_int Run_cache.current_version)
        ("pack-" ^ Sys.ocaml_version) ]
    (files dir)

(* -- Pool.run_each ------------------------------------------------------- *)

let test_run_each_isolates_crashes () =
  let outcomes =
    Pool.run_each ~jobs:4
      ~policy:{ Pool.default_policy with max_retries = 0 }
      (fun x -> if x = 3 then invalid_arg "poisoned" else x * x)
      [ 1; 2; 3; 4; 5 ]
  in
  let oks =
    List.filter_map
      (fun (o : int Pool.outcome) -> Result.to_option o.Pool.result)
      outcomes
  in
  Alcotest.(check (list int)) "healthy items survive, in order"
    [ 1; 4; 16; 25 ] oks;
  match (List.nth outcomes 2).Pool.result with
  | Error (F.Crash { transient = false; _ }) -> ()
  | _ -> Alcotest.fail "poisoned item should fail permanently"

let test_run_each_abort_propagates () =
  Alcotest.check_raises "abort escapes run_each" (F.Abort "injected")
    (fun () ->
       ignore
         (Pool.run_each ~jobs:2
            (fun x -> if x = 2 then raise (F.Abort "injected") else x)
            [ 1; 2; 3 ]))

(* -- The acceptance sweep ------------------------------------------------ *)

let kernels = [ "war-uc"; "kmeans-or" ]

let good_specs =
  List.concat_map
    (fun name ->
       [ Run_spec.make ~cfg:Config.io_x ~mode:Machine.Specialized name;
         Run_spec.make ~cfg:Config.io_x ~mode:Machine.Adaptive name ])
    kernels

(* A sweep containing one poisoned spec (unknown kernel — permanent),
   one stalling spec (blows the per-item deadline — transient, retried,
   still times out) and three bit-flipped cache blobs must complete,
   report exactly those two per-item failures, quarantine the corrupt
   blobs and reproduce the healthy results byte-identically. *)
let test_acceptance_sweep () =
  let serial = List.map (fun s -> strip (Run_spec.execute s)) good_specs in
  let dir = tmp_dir () in
  (* Cold sweep fills the cache with the healthy results... *)
  let cold = Run_cache.create ~dir () in
  let r0 =
    E.sweep ~jobs:1 (E.caching_engine ~cache:cold ()) good_specs in
  Alcotest.(check int) "cold sweep clean" 0 (List.length r0.E.sr_failures);
  (* ...then three of the four blobs rot on disk. *)
  let keys = List.map Run_spec.cache_key good_specs in
  Alcotest.(check int) "four blobs stored" 4
    (List.length (List.filter_map
                    (fun key -> Run_cache.blob_span cold ~key) keys));
  List.iteri
    (fun i key ->
       if i < 3 then
         Alcotest.(check bool) "blob corrupted" true
           (rot Chaos.Blob_bitflip cold ~key))
    keys;
  (* The dirty sweep: healthy plan + poisoned spec + stalling spec. *)
  let poisoned =
    Run_spec.make ~cfg:Config.io_x ~mode:Machine.Specialized
      "no-such-kernel" in
  let stalling =
    Run_spec.make ~cfg:Config.io_x ~mode:Machine.Traditional "war-uc" in
  let plan = good_specs @ [ poisoned; stalling ] in
  let cache = Run_cache.create ~dir () in
  let inner = E.caching_engine ~cache () in
  let engine =
    { inner with
      E.run =
        (fun spec ->
           if spec.Run_spec.mode = Machine.Traditional then
             Unix.sleepf 0.08;
           inner.E.run spec) }
  in
  let policy =
    { Pool.default_policy with deadline_ms = Some 40; max_retries = 1 } in
  let report = E.sweep ~jobs:1 ~policy engine plan in
  Alcotest.(check int) "everything executed" (List.length plan)
    report.E.sr_executed;
  Alcotest.(check int) "exactly two failures" 2
    (List.length report.E.sr_failures);
  (* The poisoned spec fails permanently on the first attempt. *)
  (match
     List.find
       (fun o -> o.E.so_spec == poisoned)
       report.E.sr_outcomes
   with
   | { E.so_result = Some (Error f); so_attempts = 1; _ } ->
     Alcotest.(check string) "poisoned is permanent" "permanent"
       (F.severity_name (F.classify f))
   | _ -> Alcotest.fail "poisoned spec should fail once, permanently");
  (* The stalling spec times out, gets one retry, times out again. *)
  (match
     List.find
       (fun o -> o.E.so_spec == stalling)
       report.E.sr_outcomes
   with
   | { E.so_result = Some (Error (F.Timeout _)); so_attempts = 2; _ } -> ()
   | _ -> Alcotest.fail "stalling spec should time out twice");
  (* Corruption was detected and quarantined, and the healthy results
     are byte-identical to the serial reference. *)
  Alcotest.(check int) "three corrupt blobs detected" 3
    (Run_cache.corrupt cache);
  Alcotest.(check int) "three blobs quarantined" 3
    (Run_cache.quarantined cache);
  let healthy =
    List.filter_map
      (fun o ->
         match o.E.so_result with
         | Some (Ok rd) -> Some (strip rd)
         | _ -> None)
      report.E.sr_outcomes
  in
  Alcotest.(check bool) "healthy results byte-identical" true
    (healthy = serial)

(* A sweep under a seeded recoverable chaos plan (read errors, blob
   corruption, stalls, transient worker crashes — everything except the
   sweep abort) must still complete with zero failures and byte-identical
   results: stalls just wait, crashes retry, corrupt blobs re-simulate. *)
let test_chaos_sweep_byte_identical () =
  let serial = List.map (fun s -> strip (Run_spec.execute s)) good_specs in
  let dir = tmp_dir () in
  let chaos = Chaos.plan ~stall_ms:5 ~seed:2026 ~events:8 () in
  let cache = Run_cache.create ~dir ~chaos () in
  let engine = E.caching_engine ~cache () in
  let policy = { Pool.default_policy with backoff_base_ms = 1 } in
  let report = E.sweep ~jobs:1 ~policy ~chaos engine good_specs in
  Alcotest.(check int) "no failures under recoverable chaos" 0
    (List.length report.E.sr_failures);
  Alcotest.(check bool) "chaos actually injected" true
    (Chaos.injected_count chaos > 0);
  let got =
    List.filter_map
      (fun o ->
         match o.E.so_result with
         | Some (Ok rd) -> Some (strip rd)
         | _ -> None)
      report.E.sr_outcomes
  in
  Alcotest.(check bool) "results byte-identical under chaos" true
    (got = serial)

(* -- Kill + resume property ---------------------------------------------- *)

(* Kill a sweep after a chaos-chosen prefix, resume it, and the union of
   journal-skipped and re-executed work must equal the uninterrupted
   serial sweep — byte-identically, with only the unjournaled remainder
   re-executed. *)
let prop_interrupted_sweep_resumes =
  let n = List.length good_specs in
  QCheck.Test.make ~name:"killed sweep resumes byte-identically" ~count:8
    QCheck.(int_range 1 n)
    (fun kill_at ->
       let serial =
         List.map (fun s -> strip (Run_spec.execute s)) good_specs in
       let dir = tmp_dir () in
       let jpath = Filename.concat dir Journal.default_name in
       (* Phase 1: the sweep dies at the [kill_at]-th item. *)
       (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
       let j1 = Journal.start jpath in
       let cache1 = Run_cache.create ~dir () in
       let chaos = Chaos.explicit [ (kill_at, Chaos.Sweep_abort) ] in
       (try
          ignore
            (E.sweep ~jobs:1 ~journal:j1 ~chaos
               (E.caching_engine ~cache:cache1 ()) good_specs);
          QCheck.Test.fail_report "sweep should have aborted"
        with F.Abort _ -> ());
       Journal.close j1;
       let completed = Journal.load jpath in
       if List.length completed <> kill_at - 1 then
         QCheck.Test.fail_reportf
           "expected %d journaled completions, found %d" (kill_at - 1)
           (List.length completed);
       (* Phase 2: resume.  Only the remainder executes; results served
          from journal + cache equal the serial reference. *)
       let j2 = Journal.start ~resume:true jpath in
       let cache2 = Run_cache.create ~dir () in
       let engine = E.caching_engine ~cache:cache2 () in
       let report = E.sweep ~jobs:1 ~journal:j2 engine good_specs in
       Journal.close j2;
       if report.E.sr_skipped <> kill_at - 1 then
         QCheck.Test.fail_reportf "expected %d skipped, got %d"
           (kill_at - 1) report.E.sr_skipped;
       if report.E.sr_executed <> n - (kill_at - 1) then
         QCheck.Test.fail_reportf "expected %d executed, got %d"
           (n - (kill_at - 1)) report.E.sr_executed;
       if report.E.sr_failures <> [] then
         QCheck.Test.fail_report "resumed sweep should be clean";
       (* Assembly path: every spec resolves through the engine (memo
          for re-executed items, disk cache for journal-skipped ones). *)
       let final =
         List.map (fun s -> strip (engine.E.run s)) good_specs in
       final = serial)

let () =
  Alcotest.run "sweep"
    [ ("failure",
       [ Alcotest.test_case "classification" `Quick test_classify;
         Alcotest.test_case "of_exn" `Quick test_of_exn;
         Alcotest.test_case "backoff determinism" `Quick
           test_backoff_deterministic;
         Alcotest.test_case "retries transient" `Quick
           test_with_retries_transient;
         Alcotest.test_case "no retry of permanent" `Quick
           test_with_retries_permanent;
         Alcotest.test_case "deadline" `Quick test_with_retries_deadline;
         Alcotest.test_case "abort escapes" `Quick
           test_with_retries_abort_escapes ]);
      ("journal",
       [ Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
         Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
         Alcotest.test_case "rejects garbage" `Quick
           test_journal_rejects_garbage;
         Alcotest.test_case "records survive SIGKILL" `Quick
           test_journal_survives_sigkill ]);
      ("cache-integrity",
       [ Alcotest.test_case "bit flip quarantined" `Quick
           (test_cache_detects_corruption Chaos.Blob_bitflip);
         Alcotest.test_case "truncation quarantined" `Quick
           (test_cache_detects_corruption Chaos.Blob_truncate);
         Alcotest.test_case "tmp reaping" `Quick test_cache_reaps_tmp;
         Alcotest.test_case "reap_over_limit" `Quick test_reap_over_limit;
         Alcotest.test_case "every byte rot caught" `Quick
           test_every_byte_rot_caught;
         Alcotest.test_case "torn record skipped" `Quick
           test_torn_record_skipped;
         Alcotest.test_case "two handles interleave" `Quick
           test_two_handles_interleave;
         Alcotest.test_case "cold sweep: two files" `Quick
           test_cold_sweep_two_files ]);
      ("run-each",
       [ Alcotest.test_case "crash isolation" `Quick
           test_run_each_isolates_crashes;
         Alcotest.test_case "abort propagates" `Quick
           test_run_each_abort_propagates ]);
      ("sweep",
       [ Alcotest.test_case "acceptance: poisoned + stall + rot" `Quick
           test_acceptance_sweep;
         Alcotest.test_case "recoverable chaos is byte-identical" `Quick
           test_chaos_sweep_byte_identical;
         QCheck_alcotest.to_alcotest prop_interrupted_sweep_resumes ]);
    ]
