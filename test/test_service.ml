(* Service-tier tests: the address parsers (protocol and CLI), the
   shared CLI engine flags (range checks, a flag beating its variable), the
   wire protocol codec (round-trip and mutation fuzz), the
   Failure-taxonomy → error-code mapping, [write_result] against the
   frame [encode_response] builds, a stored cache blob against the
   [Result] payload of the same result, and the daemon end-to-end over a
   loopback socket — handshake version rejection (any version but the
   one this build speaks), in-flight dedupe, whole-batch admission
   control (OVERLOADED), failure streaming, warm-cache hits (and
   repeated warm batches answered from the daemon's answer table at
   admission, alone or beside a new spec, under the same admission
   rules, and through the workers under chaos), the cache flags each
   result origin sets, results streaming under the flush rule, a
   malformed spelling rejecting its batch, [stop] delivering what was
   admitted before it, and result equality between a remote plan and
   in-process execution.  What the answer table may hold, and the
   minor words a warm spec costs the daemon, are tested in
   test_answer_table.ml; the daemon and raw-session helpers both use
   are in service_fixture.ml. *)

module P = Xloops_service.Protocol
module Client = Xloops_service.Client
module Server = Xloops_service.Server
module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module F = Xloops.Failure
module Digest_hex = Xloops.Digest_hex
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine
module Stats = Xloops.Sim.Stats

open Service_fixture

(* run_data comparison must ignore the wall clock and the cache-origin
   markers — the only fields that depend on how a result was obtained
   rather than on what was simulated. *)
let strip (rd : Run_spec.run_data) =
  { rd with
    Run_spec.stats =
      { rd.Run_spec.stats with Stats.wall_ns = 0; cache_hits = 0;
        cache_misses = 0 } }

let spec_pool =
  [ spec "war-uc";
    spec ~mode:Machine.Traditional "war-uc";
    spec ~cfg:Config.ooo2_x ~mode:Machine.Adaptive "war-uc";
    spec ~fuel:123_456 ~cfg:Config.io ~mode:Machine.Traditional "kmeans-or" ]

(* -- Addresses ----------------------------------------------------------- *)

let test_parse_addr () =
  let ok s = match P.parse_addr s with
    | Ok a -> Fmt.str "%a" P.pp_addr a
    | Error e -> Alcotest.failf "parse_addr %S: %s" s e
  in
  Alcotest.(check string) "unix" "unix:/tmp/x.sock" (ok "unix:/tmp/x.sock");
  Alcotest.(check string) "tcp" "tcp:127.0.0.1:7440" (ok "tcp:127.0.0.1:7440");
  Alcotest.(check string) "bare host:port" "tcp:localhost:0" (ok "localhost:0");
  List.iter
    (fun s ->
       Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true
         (Result.is_error (P.parse_addr s)))
    [ ""; "tcp:host"; "tcp:host:notaport"; "host:-1"; "host:70000" ]

(* The CLI-side parser every tool shares: the full accept/reject
   matrix, printed back through [Cli_common.pp_addr]. *)
let test_cli_parse_addr () =
  let ok s exp =
    match Cli_common.parse_addr s with
    | Ok a -> Alcotest.(check string) s exp (Fmt.str "%a" Cli_common.pp_addr a)
    | Error e -> Alcotest.failf "parse_addr %S: %s" s e
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:10.0.0.1:7501" "tcp:10.0.0.1:7501";
  ok "localhost:0" "tcp:localhost:0";
  ok "tcp:host:65535" "tcp:host:65535";
  List.iter
    (fun s ->
       match Cli_common.parse_addr s with
       | Error _ -> ()
       | Ok a ->
         Alcotest.failf "%S accepted as %s" s (Fmt.str "%a" Cli_common.pp_addr a))
    [ ""; "noport"; "unix:"; "tcp:"; "tcp:host"; "tcp:host:notaport";
      "tcp::7501"; "host:-1"; "host:65536"; "host:"; ":7501" ]

(* The shared engine flags, parsed the way every tool parses them:
   values below the floors the XLOOPS_* variables already have are
   usage errors, and a flag beats its variable. *)
let eval_engine args =
  let open Cmdliner in
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  let cmd = Cmd.v (Cmd.info "t") (Cli_common.engine_term ~pool:true ()) in
  match
    Cmd.eval_value ~help:null ~err:null
      ~argv:(Array.of_list ("t" :: args)) cmd
  with
  | Ok (`Ok e) -> Some e
  | Ok (`Help | `Version) | Error _ -> None

let test_cli_engine_ranges () =
  List.iter
    (fun a ->
       if eval_engine [ a ] = None then Alcotest.failf "%s rejected" a)
    [ "--fuel=1"; "--fuel=500000000"; "--jobs=1"; "--jobs=8";
      "--cache-limit-mb=1"; "--watchdog-cycles=0"; "--watchdog-cycles=500";
      "--deadline-ms=0"; "--deadline-ms=60000"; "--max-retries=0";
      "--max-retries=4" ];
  List.iter
    (fun a ->
       if eval_engine [ a ] <> None then Alcotest.failf "%s accepted" a)
    [ "--fuel=0"; "--fuel=-1"; "--jobs=0"; "--jobs=-2";
      "--cache-limit-mb=0"; "--watchdog-cycles=-1"; "--deadline-ms=-5";
      "--max-retries=-3"; "--fuel=x"; "--jobs=1.5" ];
  let get args =
    match eval_engine args with
    | Some e -> e
    | None -> Alcotest.failf "%s rejected" (String.concat " " args)
  in
  let e = get [ "--fuel=7"; "--deadline-ms=0"; "--jobs=3" ] in
  Alcotest.(check (option int)) "fuel" (Some 7) e.Cli_common.ea_fuel;
  Alcotest.(check (option int)) "deadline 0 = none" None e.ea_deadline_ms;
  Alcotest.(check int) "jobs" 3 e.ea_jobs;
  List.iter
    (fun args ->
       Alcotest.(check (option string)) "--no-cache wins" None
         (get args).ea_cache_dir)
    [ [ "--no-cache"; "--cache-dir=d" ]; [ "--cache-dir=d"; "--no-cache" ] ]

let test_cli_flag_beats_env () =
  let vars = [ ("XLOOPS_FUEL", "77"); ("XLOOPS_MAX_RETRIES", "5") ] in
  let saved = List.map (fun (v, _) -> (v, Sys.getenv_opt v)) vars in
  List.iter (fun (v, x) -> Unix.putenv v x) vars;
  Fun.protect
    ~finally:(fun () ->
        List.iter (fun (v, x) -> Unix.putenv v (Option.value x ~default:""))
          saved)
    (fun () ->
       let get args = Option.get (eval_engine args) in
       let env = get [] and flags = get [ "--fuel=3"; "--max-retries=0" ] in
       Alcotest.(check (option int)) "env fuel" (Some 77)
         env.Cli_common.ea_fuel;
       Alcotest.(check int) "env retries" 5 env.ea_max_retries;
       Alcotest.(check (option int)) "flag fuel" (Some 3) flags.ea_fuel;
       Alcotest.(check int) "flag retries" 0 flags.ea_max_retries)

(* -- Message encoding: round-trip and fuzz ----------------------------- *)

(* Equality via the canonical encoding: the codec is deterministic, so
   re-encoding the decoded value must reproduce the input bytes. *)
let roundtrip_request r =
  match P.decode_request (P.encode_request r) with
  | Error e -> QCheck.Test.fail_reportf "decode_request: %s" e
  | Ok r' -> String.equal (P.encode_request r) (P.encode_request r')

let roundtrip_response r =
  match P.decode_response (P.encode_response r) with
  | Error e -> QCheck.Test.fail_reportf "decode_response: %s" e
  | Ok r' -> String.equal (P.encode_response r) (P.encode_response r')

let gen_error =
  QCheck.Gen.(
    map3
      (fun f transient message -> { P.code = f; transient; message })
      (oneofl
         [ P.Version_mismatch; P.Malformed; P.Overloaded; P.Shutting_down;
           P.Sim_error; P.Check_error; P.Timeout_error; P.Crash_error;
           P.Io_error ])
      bool (string_size (int_bound 20)))

let gen_specs =
  QCheck.Gen.(
    list_size (int_bound 4)
      (map Run_spec.encode (oneofl spec_pool)))

let gen_request =
  QCheck.Gen.(
    oneof
      [ map2 (fun version ocaml -> P.Hello { version; ocaml })
          (int_bound 1000) (string_size (int_bound 12));
        map3
          (fun deadline_ms max_retries specs ->
             P.Submit { deadline_ms; max_retries; specs })
          (opt (int_bound 100_000)) (int_bound 9) gen_specs;
        return P.Stats; return P.Ping; return P.Shutdown ])

(* One executed result is enough to exercise the run_data blob path —
   its encoding is a checksummed [Marshal], not field-by-field. *)
let sample_rd = lazy (Run_spec.execute (List.hd spec_pool))

(* A hit as a daemon sends it: the bytes a cache returns for the
   stored sample. *)
let sample_hit =
  lazy
    (let cache = Run_cache.create ~dir:(tmp_dir ()) () in
     let key = Run_spec.cache_key (List.hd spec_pool) in
     Run_cache.store_run cache ~key (Lazy.force sample_rd);
     match Run_cache.find_run_bytes cache ~key with
     | Some blob -> { P.origin = P.Hit; blob }
     | None -> Alcotest.fail "stored sample reads back as a miss")

(* One sealed format: the blob a store leaves in the pack is the
   payload a freshly simulated result travels as. *)
let test_pack_blob_is_wire_blob () =
  let rd = Lazy.force sample_rd in
  let cache = Run_cache.create ~dir:(tmp_dir ()) () in
  let key = Run_spec.cache_key (List.hd spec_pool) in
  Run_cache.store_run cache ~key rd;
  let pack, pos, len = Option.get (Run_cache.blob_span cache ~key) in
  let stored =
    In_channel.with_open_bin pack (fun ic ->
        In_channel.seek ic (Int64.of_int pos);
        really_input_string ic len)
  in
  Alcotest.(check bool) "pack blob = Result payload" true
    (stored = (P.run_of_data P.Miss rd).blob)

let gen_run =
  QCheck.Gen.(
    oneof
      [ map (fun () -> Lazy.force sample_hit) unit;
        map (fun origin -> P.run_of_data origin (Lazy.force sample_rd))
          (oneofl [ P.Hit; P.Miss; P.Uncached ]) ])

let gen_response =
  QCheck.Gen.(
    oneof
      [ map3
          (fun version ocaml banner -> P.Welcome { version; ocaml; banner })
          (int_bound 1000) (string_size (int_bound 12))
          (string_size (int_bound 12));
        map3
          (fun index sp outcome ->
             P.Result { index; digest = Run_spec.digest sp; outcome })
          (int_bound 500) (oneofl spec_pool)
          (oneof
             [ map (fun e -> Error e) gen_error;
               map (fun run -> Ok run) gen_run ]);
        map (fun delivered -> P.Batch_done { delivered }) (int_bound 500);
        map
          (fun l ->
             P.Stats_reply
               { P.uptime_ms = 1; workers = List.length l; queue_depth = 0;
                 queue_limit = 4; in_flight = 1; accepted = 9;
                 rejected_batches = 2; dedup_hits = 3; completed = 5;
                 failed = 1; cache_hits = 2; cache_misses = 3;
                 cache_stores = 3; per_worker = l })
          (list_size (int_bound 4)
             (map2 (fun w_jobs w_busy_ms -> { P.w_jobs; w_busy_ms })
                (int_bound 100) (int_bound 10_000)));
        return P.Pong;
        map (fun e -> P.Rejected e) gen_error;
        return P.Bye ])

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request codec round-trips" ~count:200
    (QCheck.make gen_request) roundtrip_request

let prop_response_roundtrip =
  QCheck.Test.make ~name:"response codec round-trips" ~count:200
    (QCheck.make gen_response) roundtrip_response

let hit_frame index =
  P.encode_response
    (P.Result { index; digest = Run_spec.digest (List.hd spec_pool);
                outcome = Ok (Lazy.force sample_hit) })

(* A [Result] frame as a compressing peer would have sent it: the
   blob re-tagged ['z'] and wrapped in a literal-only LZSS stream (a
   4-byte big-endian length, then groups of one all-literal flag byte
   and up to eight bytes).  The only outcome tags are ['k'] and ['e'],
   so it must decode to [Error]. *)
let z_tagged_result index =
  let s = hit_frame index in
  let k = String.index s 'k' in
  let rest = String.sub s (k + 1) (String.length s - k - 1) in
  let semi = String.index rest ';' in
  let blob = String.sub rest (semi + 1) (String.length rest - semi - 1) in
  let n = String.length blob in
  let z = Buffer.create (n + n / 8 + 8) in
  Buffer.add_int32_be z (Int32.of_int n);
  String.iteri
    (fun i ch -> if i mod 8 = 0 then Buffer.add_char z '\000';
      Buffer.add_char z ch)
    blob;
  let z = Buffer.contents z in
  String.sub s 0 k ^ "z" ^ string_of_int (String.length z) ^ ";" ^ z

(* A tampered payload must decode to [Error] (or to some valid message,
   for byte flips the codec cannot distinguish) — never raise. *)
let prop_decode_total =
  QCheck.Test.make ~name:"decoders never raise on tampered payloads"
    ~count:300
    QCheck.(triple (make gen_request) small_nat small_nat)
    (fun (r, pos, byte) ->
       let s = Bytes.of_string (P.encode_request r) in
       if Bytes.length s > 0 then
         Bytes.set s (pos mod Bytes.length s) (Char.chr (byte land 0xFF));
       let s = Bytes.to_string s in
       (match P.decode_request s with Ok _ | Error _ -> ());
       (match P.decode_response s with Ok _ | Error _ -> ());
       Result.is_error (P.decode_response (z_tagged_result pos)))

(* The blob ends the frame; flipping any bit of its body (past the
   16-byte checksum) must fail the checksum. *)
let prop_flipped_hit_rejected =
  QCheck.Test.make ~name:"a hit frame with a flipped body bit is an Error"
    ~count:200 QCheck.(pair small_nat small_nat)
    (fun (pos, bit) ->
       let s = Bytes.of_string (hit_frame 3) in
       let body = Bytes.length s - String.length (Lazy.force sample_hit).blob
                  + 16 in
       let i = body + (pos mod (Bytes.length s - body)) in
       Bytes.set s i
         (Char.chr (Char.code (Bytes.get s i) lxor (1 lsl (bit mod 8))));
       Result.is_error (P.decode_response (Bytes.to_string s)))

(* The bytes a writer puts into a channel, read back from its file. *)
let channel_bytes write =
  let path = tmp_dir () ^ ".chan" in
  let oc = open_out_bin path in
  write oc;
  close_out oc;
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  s

(* Blobs of every size class: empty, small, and longer than a
   channel's 64 KiB buffer. *)
let gen_result_frame =
  QCheck.Gen.(
    let* index = oneof [ small_nat; int ] in
    let* digest =
      map (fun s -> Digest_hex.of_digest (Digest.string s)) string in
    let* origin = oneofl [ P.Hit; P.Miss; P.Uncached ] in
    let* n = oneof [ return 0; int_bound 600; int_range 65_537 70_000 ] in
    let+ blob = string_size ~gen:char (return n) in
    (index, digest, { P.origin; blob }))

let prop_write_result =
  QCheck.Test.make ~name:"write_result writes encode_response's frame"
    ~count:100 (QCheck.make gen_result_frame)
    (fun (index, digest, run) ->
       String.equal
         (channel_bytes (fun oc -> P.write_result oc ~index ~digest run))
         (channel_bytes (fun oc ->
              P.write_frame oc
                (P.encode_response
                   (P.Result { index; digest; outcome = Ok run })))))

let test_framing () =
  let path = tmp_dir () ^ ".frames" in
  let oc = open_out_bin path in
  P.write_frame oc "alpha";
  P.write_frame oc "";
  output_string oc "\x00\x00\x00\x10tr";   (* truncated final frame *)
  close_out oc;
  let ic = open_in_bin path in
  Alcotest.(check bool) "first frame" true (P.read_frame ic = `Frame "alpha");
  Alcotest.(check bool) "empty frame" true (P.read_frame ic = `Frame "");
  (match P.read_frame ic with
   | `Error _ -> ()
   | `Frame _ | `Eof -> Alcotest.fail "truncated frame must be `Error");
  close_in ic;
  let ic = open_in_bin "/dev/null" in
  Alcotest.(check bool) "eof" true (P.read_frame ic = `Eof);
  close_in ic;
  Sys.remove path

(* -- Failure taxonomy mapping -------------------------------------------- *)

let test_error_of_failure () =
  let check name f code transient =
    let e = P.error_of_failure f in
    Alcotest.(check string) (name ^ " code") (P.error_code_name code)
      (P.error_code_name e.P.code);
    Alcotest.(check bool) (name ^ " transient") transient e.P.transient
  in
  check "sim" (F.Sim (Machine.Out_of_fuel { pc = 0; insns = 1; cycle = 1 }))
    P.Sim_error false;
  check "check" (F.Check { kernel = "k"; what = "w"; msg = "m" })
    P.Check_error false;
  check "timeout" (F.Timeout { elapsed_ms = 7; deadline_ms = 5 })
    P.Timeout_error true;
  check "crash/transient" (F.Crash { exn = "boom"; transient = true })
    P.Crash_error true;
  check "crash/permanent" (F.Crash { exn = "boom"; transient = false })
    P.Crash_error false;
  check "io" (F.Io "disk on fire") P.Io_error true

(* -- The daemon, end to end ---------------------------------------------- *)

let connect addr =
  match Client.connect addr with
  | Ok s -> s
  | Error e -> Alcotest.failf "connect: %a" Client.pp_connect_error e

let submit_all s specs =
  let results = Array.make (List.length specs) None in
  match
    Client.submit s
      ~on_result:(fun ~index ~digest:_ r -> results.(index) <- Some r)
      specs
  with
  | Ok delivered -> (delivered, results)
  | Error (Client.Submit_rejected e) ->
    Alcotest.failf "batch rejected: %a" P.pp_error e
  | Error (Client.Submit_conn m) -> Alcotest.failf "connection died: %s" m

let test_version_mismatch () =
  with_server @@ fun _t addr ->
  List.iter
    (fun version ->
       match Client.connect ~version addr with
       | Error (Client.Refused e) ->
         Alcotest.(check string) "code" "version-mismatch"
           (P.error_code_name e.P.code);
         Alcotest.(check bool) "permanent" false e.P.transient
       | Error (Client.Conn m) -> Alcotest.failf "wrong error: %s" m
       | Ok _ ->
         Alcotest.failf "handshake offering v%d should have been rejected"
           version)
    [ P.version - 1; P.version + 1; P.version + 99 ];
  (* The rejection must not poison the listener for the next client. *)
  let s = connect addr in
  Alcotest.(check string) "banner still served" "test" (Client.banner s);
  Client.close s

(* A client built with another OCaml could not read the daemon's
   [Marshal]led results, so the handshake refuses it. *)
let test_ocaml_mismatch () =
  with_server @@ fun _t addr ->
  with_conn addr @@ fun r ->
  r.send [ P.Hello { version = P.version; ocaml = "0.0.0" } ];
  match r.recv () with
  | P.Rejected e ->
    Alcotest.(check string) "code" "version-mismatch"
      (P.error_code_name e.P.code);
    Alcotest.(check bool) "permanent" false e.P.transient
  | _ -> Alcotest.fail "expected REJECTED"

(* Jobs that each simulate in well under a millisecond still add up in
   STATS: a worker's busy time is at least the simulations it ran. *)
let test_busy_time () =
  with_server ~workers:1 @@ fun _t addr ->
  with_raw addr @@ fun r ->
  let batch =
    List.init 40 (fun i ->
        Run_spec.encode
          (spec ~fuel:(1_000_000 + i) ~cfg:Config.io
             ~mode:Machine.Traditional "ksack-sm-om"))
  in
  let runs = submit_raw r batch in
  let wall_ns =
    Array.fold_left
      (fun n run ->
         match P.data_of_run run with
         | Ok rd -> n + rd.Run_spec.stats.wall_ns
         | Error m -> Alcotest.failf "bad blob: %s" m)
      0 runs
  in
  let busy_ms =
    List.fold_left (fun n w -> n + w.P.w_busy_ms) 0 (raw_stats r).P.per_worker
  in
  if busy_ms < wall_ns / 1_000_000 then
    Alcotest.failf "busy %d ms < %d ns simulated" busy_ms wall_ns

let test_dedupe_and_equality () =
  with_server ~workers:2 @@ fun t addr ->
  let a = List.nth spec_pool 0 and b = List.nth spec_pool 1 in
  let s = connect addr in
  let delivered, results = submit_all s [ a; b; a ] in
  Client.close s;
  Alcotest.(check int) "every waiter gets a result" 3 delivered;
  let rd i =
    match results.(i) with
    | Some (Ok rd) -> strip rd
    | Some (Error e) -> Alcotest.failf "spec %d failed: %a" i P.pp_error e
    | None -> Alcotest.failf "spec %d never answered" i
  in
  Alcotest.(check bool) "duplicate indexes agree" true (rd 0 = rd 2);
  Alcotest.(check bool) "remote equals local (a)" true
    (rd 0 = strip (Run_spec.execute a));
  Alcotest.(check bool) "remote equals local (b)" true
    (rd 1 = strip (Run_spec.execute b));
  let st = Server.stats t in
  Alcotest.(check int) "one simulation per distinct spec" 2 st.P.completed;
  Alcotest.(check int) "third spec coalesced in flight" 1 st.P.dedup_hits;
  Alcotest.(check int) "admission counted all three" 3 st.P.accepted;
  Alcotest.(check int) "per-worker jobs sum to completed" 2
    (List.fold_left (fun n w -> n + w.P.w_jobs) 0 st.P.per_worker)

let test_backpressure () =
  with_server ~max_queue:2 @@ fun _t addr ->
  let s = connect addr in
  let batch =
    [ spec "war-uc"; spec ~cfg:Config.ooo2_x "war-uc";
      spec ~cfg:Config.ooo4_x "war-uc";
      spec ~cfg:Config.io ~mode:Machine.Traditional "war-uc" ]
  in
  (* 4 fresh specs against a queue bound of 2: rejected whole, before
     any of them simulates. *)
  (match Client.submit s ~on_result:(fun ~index:_ ~digest:_ _ -> ()) batch with
   | Error (Client.Submit_rejected e) ->
     Alcotest.(check string) "code" "overloaded" (P.error_code_name e.P.code);
     Alcotest.(check bool) "transient" true e.P.transient
   | Error (Client.Submit_conn m) -> Alcotest.failf "connection died: %s" m
   | Ok _ -> Alcotest.fail "batch should have been rejected");
  (* The same session can immediately submit a batch that fits. *)
  let delivered, _ = submit_all s [ spec "war-uc" ] in
  Alcotest.(check int) "small batch accepted after rejection" 1 delivered;
  (match Client.stats s with
   | Ok st ->
     Alcotest.(check int) "rejection counted" 1 st.P.rejected_batches
   | Error _ -> Alcotest.fail "stats after rejection");
  Client.close s

let test_failure_streams_back () =
  with_server @@ fun _t addr ->
  let s = connect addr in
  let starved = spec ~fuel:1 "war-uc" in
  let delivered, results = submit_all s [ starved; spec "war-uc" ] in
  Client.close s;
  Alcotest.(check int) "both answered" 2 delivered;
  (match results.(0) with
   | Some (Error e) ->
     Alcotest.(check string) "taxonomy code over the wire" "sim"
       (P.error_code_name e.P.code);
     Alcotest.(check bool) "permanent" false e.P.transient
   | Some (Ok _) -> Alcotest.fail "1-instruction fuel must fail"
   | None -> Alcotest.fail "no result for the starved spec");
  match results.(1) with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "healthy spec must still succeed"

(* Keys are taken in the worker, not at admission: a spec naming no
   registry kernel is admitted with its batch, and its cache key fails
   that job alone.  The same batch a second time fails the same job
   again, and its batch-mate's result, now a cache hit, is the first
   round's bytes. *)
let test_unknown_kernel_fails_its_job () =
  let cache = Run_cache.create ~dir:(tmp_dir ()) () in
  with_server ~cache @@ fun _t addr ->
  let s = connect addr in
  let round () =
    let delivered, results =
      submit_all s [ spec "no-such-kernel"; spec "war-uc" ] in
    Alcotest.(check int) "both answered" 2 delivered;
    (match results.(0) with
     | Some (Error e) ->
       let m = e.P.message and k = "no-such-kernel" in
       let rec has i =
         i + String.length k <= String.length m
         && (String.sub m i (String.length k) = k || has (i + 1))
       in
       Alcotest.(check bool) ("names the kernel: " ^ m) true (has 0)
     | Some (Ok _) -> Alcotest.fail "an unknown kernel must fail"
     | None -> Alcotest.fail "no result for the unknown kernel");
    match results.(1) with
    | Some (Ok (rd : Run_spec.run_data)) ->
      (* The origin flags are the client's; the rest is the daemon's. *)
      Marshal.to_string
        { rd with
          Run_spec.stats =
            { rd.Run_spec.stats with Stats.cache_hits = 0; cache_misses = 0 } }
        []
    | _ -> Alcotest.fail "its batch-mate must still succeed"
  in
  let first = round () in
  let second = round () in
  Client.close s;
  Alcotest.(check bool) "round two's result is round one's bytes" true
    (String.equal first second)

let test_warm_cache_hits () =
  let dir = tmp_dir () in
  let cache = Run_cache.create ~dir () in
  with_server ~cache @@ fun t addr ->
  let s = connect addr in
  let batch = [ spec "war-uc"; spec ~mode:Machine.Traditional "war-uc" ] in
  let _, cold = submit_all s batch in
  let _, warm = submit_all s batch in
  Client.close s;
  let st = Server.stats t in
  Alcotest.(check int) "cold batch missed" 2 st.P.cache_misses;
  Alcotest.(check int) "warm batch hit" 2 st.P.cache_hits;
  Alcotest.(check int) "stored once per spec" 2 st.P.cache_stores;
  let rd = function
    | Some (Ok rd) -> strip rd
    | _ -> Alcotest.fail "expected a success"
  in
  Alcotest.(check bool) "cache round-trip preserves results" true
    (rd cold.(0) = rd warm.(0) && rd cold.(1) = rd warm.(1))

(* One Table II kernel's 12 specs, sent three times over one raw session
   to a one-worker daemon: the first batch fills the cache, the second
   reads it, and the third is answered with the cache directory moved
   away, so from the answer table, at admission: no worker job.  Every
   answer after the fill is a hit with the same bytes, and only hits
   move in STATS. *)
let test_warm_batches_from_memory () =
  let dir = tmp_dir () in
  let batch = table2 "war-uc" in
  let n = List.length batch in
  Alcotest.(check int) "a Table II request" 12 n;
  with_server ~workers:1 ~cache:(Run_cache.create ~dir ()) @@ fun _t addr ->
  with_raw addr @@ fun r ->
  let stats () =
    let st = raw_stats r in
    (st.P.cache_hits, st.P.cache_misses)
  in
  let fill = submit_raw r batch in
  Alcotest.(check (pair int int)) "the fill misses" (0, n) (stats ());
  let from_disk = submit_raw r batch in
  all_hits "second batch" from_disk;
  Alcotest.(check (array string)) "hits forward the stored bytes"
    (blobs fill) (blobs from_disk);
  Alcotest.(check (pair int int)) "second batch: 12 more hits" (n, n)
    (stats ());
  let jobs_before = jobs (raw_stats r) in
  Sys.rename dir (dir ^ ".gone");
  let from_memory = submit_raw r batch in
  all_hits "third batch" from_memory;
  Alcotest.(check (array string)) "the table returns the same bytes"
    (blobs from_disk) (blobs from_memory);
  Alcotest.(check (pair int int)) "third batch: 12 more hits" (2 * n, n)
    (stats ());
  Alcotest.(check int) "table hits run no worker job" jobs_before
    (jobs (raw_stats r));
  check_quiet r

(* Table hits and a spec never seen before, in one batch: the hits are
   answered at admission and the new spec by a worker, each index
   exactly once, and the batch ends in one [Batch_done]. *)
let test_mixed_batch () =
  let batch = table2 "war-uc" in
  let n = List.length batch in
  with_server ~workers:1 ~cache:(Run_cache.create ~dir:(tmp_dir ()) ())
  @@ fun _t addr ->
  with_raw addr @@ fun r ->
  ignore (submit_raw r batch);
  let warm = submit_raw r batch in
  let jobs0 = jobs (raw_stats r) in
  let fresh = Run_spec.encode (spec ~fuel:9_999_999 "war-uc") in
  let mixed = submit_raw r (batch @ [ fresh ]) in
  check_quiet r;
  all_hits "table part" (Array.sub mixed 0 n);
  Alcotest.(check (array string)) "table part: the same bytes" (blobs warm)
    (blobs (Array.sub mixed 0 n));
  Alcotest.(check bool) "the new spec simulated" true
    (mixed.(n).P.origin = P.Miss);
  Alcotest.(check int) "one worker job: the new spec" (jobs0 + 1)
    (jobs (raw_stats r))

(* Answering at admission keeps admission's rules.  A batch of table
   hits pipelined behind a batch that is still simulating is refused as
   [Malformed] (one batch per connection): both requests leave in one
   write, so the reader reads the second while the worker is still on
   the first batch's twelve simulations.  Once a client has asked the
   daemon to shut down, the batch is refused as [Shutting_down]. *)
let test_memo_hits_admission_rules () =
  let warm = table2 "war-uc" and slow = table2 "sgemm-uc" in
  with_server ~workers:1 ~cache:(Run_cache.create ~dir:(tmp_dir ()) ())
  @@ fun _t addr ->
  with_raw addr @@ fun r ->
  ignore (submit_raw r warm);
  ignore (submit_raw r warm);
  r.send [ submit_req slow; submit_req warm ];
  let _, rejected = collect r (List.length slow) in
  let e =
    match rejected with
    | [ e ] -> e
    | [] ->
      (match r.recv () with
       | P.Rejected e -> e
       | _ -> Alcotest.fail "the pipelined batch was not refused")
    | _ -> Alcotest.fail "more than one refusal"
  in
  Alcotest.(check string) "pipelined batch" "malformed"
    (P.error_code_name e.P.code);
  check_quiet r;
  all_hits "after the refusal" (submit_raw r warm);
  let s = connect addr in
  (match Client.shutdown s with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "shutdown not acknowledged");
  Client.close s;
  r.send [ submit_req warm ];
  match r.recv () with
  | P.Rejected e ->
    Alcotest.(check string) "after SHUTDOWN" "shutting-down"
      (P.error_code_name e.P.code);
    Alcotest.(check bool) "transient" true e.P.transient
  | _ -> Alcotest.fail "a draining daemon answered a batch"

(* Under a chaos plan, on the daemon or on its cache handle, no spec is
   answered at admission: a batch read from disk before still runs one
   worker job per spec, inside the plan's draws. *)
let test_chaos_hits_use_workers () =
  let batch = table2 "war-uc" in
  let n = List.length batch in
  let check what ?chaos cache =
    with_server ~workers:1 ~cache ?chaos @@ fun _t addr ->
    with_raw addr @@ fun r ->
    ignore (submit_raw r batch);
    ignore (submit_raw r batch);
    let jobs0 = jobs (raw_stats r) in
    all_hits what (submit_raw r batch);
    Alcotest.(check int) (what ^ ": one job per spec") (jobs0 + n)
      (jobs (raw_stats r))
  in
  check "daemon plan" ~chaos:(Xloops.Chaos.none ())
    (Run_cache.create ~dir:(tmp_dir ()) ());
  check "cache plan"
    (Run_cache.create ~dir:(tmp_dir ()) ~chaos:(Xloops.Chaos.none ()) ())

(* One malformed spelling rejects its whole batch [Malformed] and closes
   the connection, even beside spellings the table answers: no frame of
   the batch is written. *)
let test_malformed_spelling () =
  let batch = table2 "war-uc" in
  with_server ~workers:1 ~cache:(Run_cache.create ~dir:(tmp_dir ()) ())
  @@ fun t addr ->
  with_raw addr @@ fun r ->
  ignore (submit_raw r batch);
  ignore (submit_raw r batch);
  let jobs0 = jobs (raw_stats r) in
  r.send [ submit_req (batch @ [ "XRS-not-a-spec" ]) ];
  (match r.recv () with
   | P.Rejected e ->
     Alcotest.(check string) "code" "malformed" (P.error_code_name e.P.code)
   | _ -> Alcotest.fail "a malformed batch was answered");
  (match P.read_frame (Unix.in_channel_of_descr r.fd) with
   | `Eof -> ()
   | `Frame _ | `Error _ -> Alcotest.fail "the connection stayed open");
  let st = Server.stats t in
  Alcotest.(check int) "nothing admitted" (2 * List.length batch)
    st.P.accepted;
  Alcotest.(check int) "no job" jobs0 (jobs st)

(* [stop] lets the workers finish what was admitted before it shuts any
   socket.  The worker stalls before the batch's second spec, after it
   has flushed the first result; [stop] begins during the stall, and the
   client still receives every result and the [Batch_done]. *)
let test_stop_delivers_admitted () =
  let chaos =
    Xloops.Chaos.explicit ~stall_ms:300 [ (2, Xloops.Chaos.Worker_stall) ]
  in
  let batch =
    List.map Run_spec.encode
      [ spec "war-uc"; spec ~cfg:Config.ooo2_x "war-uc";
        spec ~cfg:Config.ooo4_x "war-uc" ]
  in
  with_server ~workers:1 ~chaos @@ fun t addr ->
  with_raw addr @@ fun r ->
  r.send [ submit_req batch ];
  (match r.recv () with
   | P.Result { outcome = Ok _; _ } -> ()
   | _ -> Alcotest.fail "expected the first result");
  let stopper = Thread.create Server.stop t in
  let rec rest k =
    match r.recv () with
    | P.Result { outcome = Ok _; _ } -> rest (k + 1)
    | P.Batch_done { delivered } ->
      Alcotest.(check int) "delivered" (List.length batch) delivered;
      k
    | f -> Alcotest.failf "unexpected frame: %s" (P.encode_response f)
  in
  Alcotest.(check int) "every result" (List.length batch) (rest 1);
  Thread.join stopper;
  Alcotest.(check int) "the stall fired" 1 (Xloops.Chaos.injected_count chaos)

(* The cache flags a client sees are set from the frame's origin tag:
   a cold daemon's results are misses, a warm one's hits, a cacheless
   one's neither.  Beyond the wall clock, each result equals the
   in-process engine's, and a warm hit equals the cache's own record. *)
let test_cache_flags () =
  let dir = tmp_dir () in
  let batch = [ List.nth spec_pool 0; List.nth spec_pool 2 ] in
  let no_wall (rd : Run_spec.run_data) =
    { rd with Run_spec.stats = { rd.Run_spec.stats with Stats.wall_ns = 0 } }
  in
  let served ?cache () =
    with_server ?cache @@ fun _t addr ->
    let s = connect addr in
    let _, results = submit_all s batch in
    Client.close s;
    Array.to_list
      (Array.mapi
         (fun i -> function
            | Some (Ok rd) -> rd
            | Some (Error e) -> Alcotest.failf "spec %d: %a" i P.pp_error e
            | None -> Alcotest.failf "spec %d never answered" i)
         results)
  in
  let check name ~hits ~misses ~engine results =
    List.iteri
      (fun i (sp, (rd : Run_spec.run_data)) ->
         let what = Printf.sprintf "%s spec %d" name i in
         Alcotest.(check int) (what ^ " cache_hits") hits
           rd.stats.Stats.cache_hits;
         Alcotest.(check int) (what ^ " cache_misses") misses
           rd.stats.Stats.cache_misses;
         Alcotest.(check bool) (what ^ " equals in-process") true
           (no_wall rd = no_wall (engine.Xloops.Experiments.run sp)))
      (List.combine batch results)
  in
  let cold = served ~cache:(Run_cache.create ~dir ()) () in
  check "cold" ~hits:0 ~misses:1 cold
    ~engine:(Xloops.Experiments.caching_engine
               ~cache:(Run_cache.create ~dir:(tmp_dir ()) ()) ());
  let warm = served ~cache:(Run_cache.create ~dir ()) () in
  check "warm" ~hits:1 ~misses:0 warm
    ~engine:(Xloops.Experiments.caching_engine
               ~cache:(Run_cache.create ~dir ()) ());
  let local = Run_cache.create ~dir () in
  List.iteri
    (fun i (sp, rd) ->
       match Run_cache.find_run local ~key:(Run_spec.cache_key sp) with
       | Some (stored : Run_spec.run_data) ->
         stored.stats.Stats.cache_hits <- 1;
         Alcotest.(check bool)
           (Printf.sprintf "warm spec %d is the cached record" i) true
           (rd = stored)
       | None -> Alcotest.failf "warm spec %d not in the cache" i)
    (List.combine batch warm);
  (* Without a cache no flag is set, by the daemon or in process. *)
  let cacheless = served () in
  check "cacheless" ~hits:0 ~misses:0 cacheless
    ~engine:Xloops.Experiments.direct_engine;
  check "cacheless engine" ~hits:0 ~misses:0 cacheless
    ~engine:(Xloops.Experiments.caching_engine ())

(* Result frames are buffered, but a worker flushes before it blocks:
   the first spec's result reaches the client while the worker sleeps
   in the chaos hook before the second. *)
let test_results_stream () =
  let chaos =
    Xloops.Chaos.explicit ~stall_ms:1000 [ (2, Xloops.Chaos.Worker_stall) ]
  in
  with_server ~chaos @@ fun _t addr ->
  let s = connect addr in
  let t0 = Unix.gettimeofday () in
  let first = ref None in
  (match
     Client.submit s [ spec "war-uc"; spec ~cfg:Config.io "war-uc" ]
       ~on_result:(fun ~index:_ ~digest:_ _ ->
           if !first = None then first := Some (Unix.gettimeofday () -. t0))
   with
   | Ok n -> Alcotest.(check int) "both answered" 2 n
   | Error _ -> Alcotest.fail "batch failed");
  Client.close s;
  Alcotest.(check int) "the stall fired" 1
    (Xloops.Chaos.injected_count chaos);
  match !first with
  | Some dt when dt < 0.5 -> ()
  | Some dt -> Alcotest.failf "first result arrived after %.3f s" dt
  | None -> Alcotest.fail "no result"

let test_run_plan_matches_local () =
  with_server ~workers:2 @@ fun _t addr ->
  let plan = spec_pool @ [ spec ~fuel:1 "war-uc" ] in
  match Client.run_plan ~chunk:2 addr plan with
  | Error m -> Alcotest.failf "run_plan: %s" m
  | Ok results ->
    Alcotest.(check int) "one slot per spec" (List.length plan)
      (Array.length results);
    List.iteri
      (fun i sp ->
         match results.(i), Run_spec.execute_result sp with
         | Ok rd, Ok local ->
           Alcotest.(check bool)
             (Printf.sprintf "spec %d equals local" i) true
             (strip rd = strip local)
         | Error e, Error f ->
           Alcotest.(check string)
             (Printf.sprintf "spec %d failure code" i)
             (P.error_code_name (P.error_of_failure f).P.code)
             (P.error_code_name e.P.code)
         | Ok _, Error _ | Error _, Ok _ ->
           Alcotest.failf "spec %d: remote and local disagree" i)
      plan

let test_shutdown_request () =
  let cfg =
    Server.config ~addr:(P.Tcp ("127.0.0.1", 0)) ~banner:"test" ()
  in
  let t = Server.start cfg in
  let s = connect (Server.bound_addr t) in
  (match Client.shutdown s with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "shutdown not acknowledged");
  Client.close s;
  Server.wait t;                               (* returns once flagged *)
  Server.stop t;
  Server.stop t                                (* idempotent *)

let () =
  Alcotest.run "service"
    [ ("protocol",
       [ Alcotest.test_case "parse_addr" `Quick test_parse_addr;
         Alcotest.test_case "framing" `Quick test_framing;
         Alcotest.test_case "taxonomy mapping" `Quick test_error_of_failure;
         Alcotest.test_case "pack blob is the wire blob" `Quick
           test_pack_blob_is_wire_blob;
         QCheck_alcotest.to_alcotest prop_request_roundtrip;
         QCheck_alcotest.to_alcotest prop_response_roundtrip;
         QCheck_alcotest.to_alcotest prop_decode_total;
         QCheck_alcotest.to_alcotest prop_flipped_hit_rejected;
         QCheck_alcotest.to_alcotest prop_write_result ]);
      ("daemon",
       [ Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
         Alcotest.test_case "ocaml mismatch" `Quick test_ocaml_mismatch;
         Alcotest.test_case "busy time sums sub-ms jobs" `Quick test_busy_time;
         Alcotest.test_case "in-flight dedupe" `Quick test_dedupe_and_equality;
         Alcotest.test_case "admission control" `Quick test_backpressure;
         Alcotest.test_case "failure streaming" `Quick
           test_failure_streams_back;
         Alcotest.test_case "unknown kernel fails its job" `Quick
           test_unknown_kernel_fails_its_job;
         Alcotest.test_case "warm cache hits" `Quick test_warm_cache_hits;
         Alcotest.test_case "warm batches from memory" `Quick
           test_warm_batches_from_memory;
         Alcotest.test_case "mixed batch" `Quick test_mixed_batch;
         Alcotest.test_case "memo hits keep admission rules" `Quick
           test_memo_hits_admission_rules;
         Alcotest.test_case "chaos: hits use workers" `Quick
           test_chaos_hits_use_workers;
         Alcotest.test_case "malformed spelling rejects its batch" `Quick
           test_malformed_spelling;
         Alcotest.test_case "stop delivers an admitted batch" `Quick
           test_stop_delivers_admitted;
         Alcotest.test_case "cache flags by origin" `Quick test_cache_flags;
         Alcotest.test_case "results stream before a stall" `Quick
           test_results_stream;
         Alcotest.test_case "run_plan vs local" `Quick
           test_run_plan_matches_local;
         Alcotest.test_case "shutdown request" `Quick
           test_shutdown_request ]);
      ("cli",
       [ Alcotest.test_case "parse_addr grammar" `Quick
           test_cli_parse_addr;
         Alcotest.test_case "engine flag ranges" `Quick
           test_cli_engine_ranges;
         Alcotest.test_case "engine flag beats env" `Quick
           test_cli_flag_beats_env ]) ]
