(* Service-tier tests: the address parsers (protocol and CLI), the
   wire protocol codec (round-trip and mutation fuzz), the
   Failure-taxonomy → error-code mapping, and the daemon end-to-end
   over a loopback socket — handshake version rejection (any version
   but the one this build speaks), in-flight dedupe, whole-batch
   admission control (OVERLOADED), failure streaming, warm-cache hits,
   and result equality between a remote plan and in-process
   execution. *)

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

let tmp_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xloops_service_test_%d_%d" (Unix.getpid ())
       (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))

(* run_data comparison must ignore the wall clock and the cache-origin
   markers — the only fields that depend on how a result was obtained
   rather than on what was simulated. *)
let strip (rd : Run_spec.run_data) =
  { rd with
    Run_spec.stats =
      { rd.Run_spec.stats with Stats.wall_ns = 0; cache_hits = 0;
        cache_misses = 0 } }

let spec ?fuel ?(cfg = Config.io_x) ?(mode = Machine.Specialized) name =
  Run_spec.make ?fuel ~cfg ~mode name

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

let gen_specs = QCheck.Gen.(list_size (int_bound 4) (oneofl spec_pool))

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
               return (Ok (Lazy.force sample_rd)) ]);
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

(* A [Result] frame as a compressing peer would have sent it: the
   blob re-tagged ['z'] and wrapped in a literal-only LZSS stream (a
   4-byte big-endian length, then groups of one all-literal flag byte
   and up to eight bytes).  The only outcome tags are ['k'] and ['e'],
   so it must decode to [Error]. *)
let z_tagged_result index =
  let s =
    P.encode_response
      (P.Result { index; digest = Run_spec.digest (List.hd spec_pool);
                  outcome = Ok (Lazy.force sample_rd) })
  in
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

let with_server ?workers ?max_queue ?cache ?chaos ?deadline_ms ?max_retries f =
  let cfg =
    Server.config ~addr:(P.Tcp ("127.0.0.1", 0)) ?workers ?max_queue ?cache
      ?chaos ?deadline_ms ?max_retries ~banner:"test" ()
  in
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t)
    (fun () -> f t (Server.bound_addr t))

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
         QCheck_alcotest.to_alcotest prop_request_roundtrip;
         QCheck_alcotest.to_alcotest prop_response_roundtrip;
         QCheck_alcotest.to_alcotest prop_decode_total ]);
      ("daemon",
       [ Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
         Alcotest.test_case "in-flight dedupe" `Quick test_dedupe_and_equality;
         Alcotest.test_case "admission control" `Quick test_backpressure;
         Alcotest.test_case "failure streaming" `Quick
           test_failure_streams_back;
         Alcotest.test_case "warm cache hits" `Quick test_warm_cache_hits;
         Alcotest.test_case "run_plan vs local" `Quick
           test_run_plan_matches_local;
         Alcotest.test_case "shutdown request" `Quick
           test_shutdown_request ]);
      ("cli",
       [ Alcotest.test_case "parse_addr grammar" `Quick
           test_cli_parse_addr ]) ]
