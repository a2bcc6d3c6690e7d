(* What the daemon tests share: a daemon on a loopback port for the
   length of a test, and raw sessions that see every frame it writes. *)

module P = Xloops_service.Protocol
module Server = Xloops_service.Server
module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine

let tmp_dir () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xloops_service_test_%d_%d" (Unix.getpid ())
       (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))

let spec ?fuel ?(cfg = Config.io_x) ?(mode = Machine.Specialized) name =
  Run_spec.make ?fuel ~cfg ~mode name

let with_server ?workers ?max_queue ?cache ?chaos ?deadline_ms ?max_retries f =
  let cfg =
    Server.config ~addr:(P.Tcp ("127.0.0.1", 0)) ?workers ?max_queue ?cache
      ?chaos ?deadline_ms ?max_retries ~banner:"test" ()
  in
  let t = Server.start cfg in
  Fun.protect ~finally:(fun () -> Server.stop t)
    (fun () -> f t (Server.bound_addr t))

(* -- Raw sessions ------------------------------------------------------- *)

(* A session driven frame by frame: a test can pipeline requests and
   sees every frame the daemon writes, in order. *)
type raw = {
  send : P.request list -> unit;   (* all in one flush *)
  recv : unit -> P.response;
  fd : Unix.file_descr;            (* for a test that reads frames itself *)
}

(* A connection before any handshake. *)
let with_conn addr f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (P.sockaddr_of addr);
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let send rs =
    List.iter (fun r -> P.write_frame oc (P.encode_request r)) rs;
    flush oc
  in
  let recv () =
    match P.read_frame ic with
    | `Frame f ->
      (match P.decode_response f with
       | Ok r -> r
       | Error m -> Alcotest.failf "bad response: %s" m)
    | `Eof -> Alcotest.fail "daemon closed the connection"
    | `Error m -> Alcotest.failf "read: %s" m
  in
  f { send; recv; fd }

let with_raw addr f =
  with_conn addr @@ fun r ->
  r.send [ P.Hello { version = P.version; ocaml = Sys.ocaml_version } ];
  (match r.recv () with
   | P.Welcome _ -> ()
   | _ -> Alcotest.fail "expected WELCOME");
  f r

let submit_req specs =
  P.Submit { deadline_ms = None; max_retries = 0; specs }

let raw_stats r =
  r.send [ P.Stats ];
  match r.recv () with
  | P.Stats_reply st -> st
  | _ -> Alcotest.fail "expected STATS_REPLY"

let jobs (st : P.stats) =
  List.fold_left (fun n w -> n + w.P.w_jobs) 0 st.P.per_worker

(* One batch's frames, up to its [Batch_done]: every index answered
   once, with a success.  [Rejected] frames met on the way (the answer
   to a pipelined request) are returned beside the results. *)
let collect r n =
  let runs = Array.make n None and rejected = ref [] in
  let rec go () =
    match r.recv () with
    | P.Result { index; outcome = Ok run; _ } ->
      if runs.(index) <> None then
        Alcotest.failf "spec %d answered twice" index;
      runs.(index) <- Some run;
      go ()
    | P.Result { index; outcome = Error e; _ } ->
      Alcotest.failf "spec %d: %a" index P.pp_error e
    | P.Batch_done { delivered } ->
      Alcotest.(check int) "all delivered" n delivered
    | P.Rejected e -> rejected := e :: !rejected; go ()
    | _ -> Alcotest.fail "unexpected frame in a batch"
  in
  go ();
  ( Array.map
      (function Some run -> run | None -> Alcotest.fail "a spec never answered")
      runs,
    List.rev !rejected )

let submit_raw r specs =
  r.send [ submit_req specs ];
  match collect r (List.length specs) with
  | runs, [] -> runs
  | _, e :: _ -> Alcotest.failf "batch rejected: %a" P.pp_error e

(* Nothing is left of the last batch: the next frame is PING's answer. *)
let check_quiet r =
  r.send [ P.Ping ];
  match r.recv () with
  | P.Pong -> ()
  | _ -> Alcotest.fail "a frame arrived after Batch_done"

let blobs runs = Array.map (fun r -> r.P.blob) runs

let all_hits what runs =
  Array.iteri
    (fun i r ->
       if r.P.origin <> P.Hit then
         Alcotest.failf "%s: spec %d not a hit" what i)
    runs

let table2 name =
  List.map Run_spec.encode
    (Xloops.Experiments.specs_for (Xloops.Kernels.Registry.find name))
