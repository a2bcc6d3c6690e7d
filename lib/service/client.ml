(* Client side of the xloops service.  See client.mli. *)

module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Experiments = Xloops.Experiments
module Failure = Xloops.Failure
module Digest_hex = Xloops.Digest_hex
module P = Protocol

type session = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  s_banner : string;
  mutable alive : bool;
}

type connect_error =
  | Refused of P.error
  | Conn of string

let pp_connect_error ppf = function
  | Refused e -> Fmt.pf ppf "refused: %a" P.pp_error e
  | Conn msg -> Fmt.pf ppf "connection: %s" msg

let banner s = s.s_banner

let close s =
  if s.alive then begin
    s.alive <- false;
    try Unix.close s.fd with Unix.Unix_error _ -> ()
  end

let connect ?(version = P.version) addr =
  (* A daemon dying under us must surface as an error code, not kill
     the whole client process. *)
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sa = P.sockaddr_of addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  match Unix.connect fd sa with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error (Conn (Fmt.str "connect %a: %s" P.pp_addr addr
                   (Unix.error_message e)))
  | () ->
    P.set_nodelay fd;
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let fail msg =
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Conn msg)
    in
    (match
       P.write_frame oc
         (P.encode_request
            (P.Hello { version; ocaml = Sys.ocaml_version }));
       flush oc
     with
     | exception (Sys_error m | Stdlib.Failure m) -> fail m
     | () ->
       (match P.read_frame ic with
        | `Eof -> fail "server closed the connection during handshake"
        | `Error m -> fail m
        | `Frame payload ->
          (match P.decode_response payload with
           | Ok (P.Welcome { banner = b; _ }) ->
             Ok { fd; ic; oc; s_banner = b; alive = true }
           | Ok (P.Rejected e) ->
             (try Unix.close fd with Unix.Unix_error _ -> ());
             Error (Refused e)
           | Ok _ -> fail "unexpected response to HELLO"
           | Error m -> fail ("bad handshake frame: " ^ m))))

type submit_error =
  | Submit_rejected of P.error
  | Submit_conn of string

let send_request s req =
  match P.write_frame s.oc (P.encode_request req); flush s.oc with
  | () -> Ok ()
  | exception (Sys_error m | Stdlib.Failure m) -> Error (Submit_conn m)

let read_response s =
  match P.read_frame s.ic with
  | `Eof -> Error (Submit_conn "server closed the connection")
  | `Error m -> Error (Submit_conn m)
  | `Frame payload ->
    (match P.decode_response payload with
     | Ok r -> Ok r
     | Error m -> Error (Submit_conn ("bad frame: " ^ m)))

let submit s ?deadline_ms ?(max_retries = 0) ~on_result specs =
  let specs = List.map Run_spec.encode specs in
  match send_request s (P.Submit { deadline_ms; max_retries; specs }) with
  | Error _ as e -> e
  | Ok () ->
    let rec loop () =
      match read_response s with
      | Error _ as e -> e
      | Ok (P.Result { index; digest; outcome = Error e }) ->
        on_result ~index ~digest (Error e);
        loop ()
      | Ok (P.Result { index; digest; outcome = Ok run }) ->
        (match P.data_of_run run with
         | Ok rd -> on_result ~index ~digest (Ok rd); loop ()
         | Error m -> Error (Submit_conn ("bad frame: " ^ m)))
      | Ok (P.Batch_done { delivered }) -> Ok delivered
      | Ok (P.Rejected e) -> Error (Submit_rejected e)
      | Ok _ -> Error (Submit_conn "unexpected response mid-batch")
    in
    loop ()

let simple_request s req ~expect =
  match send_request s req with
  | Error _ as e -> e
  | Ok () ->
    (match read_response s with
     | Error _ as e -> e
     | Ok resp ->
       (match expect resp with
        | Some v -> Ok v
        | None ->
          (match resp with
           | P.Rejected e -> Error (Submit_rejected e)
           | _ -> Error (Submit_conn "unexpected response"))))

let stats s =
  simple_request s P.Stats
    ~expect:(function P.Stats_reply st -> Some st | _ -> None)

let ping s =
  simple_request s P.Ping ~expect:(function P.Pong -> Some () | _ -> None)

let shutdown s =
  simple_request s P.Shutdown ~expect:(function P.Bye -> Some () | _ -> None)

(* -- The fault-tolerant plan runner --------------------------------------- *)

let chunks_of k l =
  let rec go acc cur ncur = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if ncur = k then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (ncur + 1) rest
  in
  go [] [] 0 l

exception Round_over

(* Connection rounds before the runner gives up on unfinished specs. *)
let max_attempts = 10

let run_plan ?(chunk = 64) ?deadline_ms
    ?(max_retries = 0) addr specs =
  if chunk < 1 then invalid_arg "Client.run_plan: chunk must be >= 1";
  let spec_arr = Array.of_list specs in
  let n = Array.length spec_arr in
  let final :
    (Run_spec.run_data, P.error) result option array = Array.make n None in
  let last_err : P.error option array = Array.make n None in
  let fatal = ref None in
  let pending () =
    let idx = ref [] in
    for i = n - 1 downto 0 do
      if final.(i) = None then idx := i :: !idx
    done;
    !idx
  in
  let attempt = ref 0 in
  let todo = ref (pending ()) in
  while !fatal = None && !todo <> [] && !attempt < max_attempts do
    incr attempt;
    if !attempt > 1 then
      Unix.sleepf
        (float_of_int
           (Failure.backoff_ms ~base_ms:50 ~cap_ms:2000 ~seed:1
              ~salt:"xloops-client" ~attempt:!attempt ())
         /. 1000.);
    (match connect addr with
     | Error (Refused e) when e.P.transient ->
       () (* overloaded / draining: back off and redial *)
     | Error (Refused e) ->
       fatal := Some (Fmt.str "%a" P.pp_error e)
     | Error (Conn _) ->
       () (* daemon down or restarting: back off and redial *)
     | Ok sess ->
       (try
          List.iter
            (fun indices ->
               let batch =
                 List.map (fun i -> spec_arr.(i)) indices
               in
               let index_arr = Array.of_list indices in
               match
                 submit sess ?deadline_ms ~max_retries batch
                   ~on_result:(fun ~index ~digest:_ outcome ->
                       let gi = index_arr.(index) in
                       match outcome with
                       | Ok rd -> final.(gi) <- Some (Ok rd)
                       | Error e when not e.P.transient ->
                         final.(gi) <- Some (Error e)
                       | Error e -> last_err.(gi) <- Some e)
               with
               | Ok _ -> ()
               | Error (Submit_rejected e) when e.P.transient ->
                 raise Round_over (* queue full or draining: next round *)
               | Error (Submit_rejected e) ->
                 fatal := Some (Fmt.str "%a" P.pp_error e);
                 raise Round_over
               | Error (Submit_conn _) ->
                 raise Round_over (* reconnect next round *))
            (chunks_of chunk !todo)
        with Round_over -> ());
       close sess);
    todo := pending ()
  done;
  match !fatal with
  | Some msg -> Error msg
  | None ->
    Ok
      (Array.mapi
         (fun i -> function
            | Some r -> r
            | None ->
              Error
                (match last_err.(i) with
                 | Some e -> e
                 | None ->
                   { P.code = P.Io_error; transient = true;
                     message =
                       Fmt.str "service %a unreachable after %d attempt(s)"
                         P.pp_addr addr max_attempts }))
         final)

(* -- The remote engine ---------------------------------------------------- *)

exception Remote_error of P.error

let engine ?cache ?deadline_ms ?max_retries addr =
  let memo : (Digest_hex.t, Run_spec.run_data) Hashtbl.t =
    Hashtbl.create 256 in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  let local = Experiments.caching_engine ?cache () in
  let fetch plan =
    match
      run_plan ?deadline_ms ?max_retries addr plan
    with
    | Error msg ->
      raise (Remote_error
               { P.code = P.Io_error; transient = false; message = msg })
    | Ok results ->
      let failures = ref [] in
      List.iteri
        (fun i spec ->
           match results.(i) with
           | Ok rd ->
             locked (fun () ->
                 Hashtbl.replace memo (Run_spec.digest spec) rd)
           | Error e -> failures := (spec, e) :: !failures)
        plan;
      List.rev !failures
  in
  let run spec =
    let d = Run_spec.digest spec in
    match locked (fun () -> Hashtbl.find_opt memo d) with
    | Some rd -> rd
    | None ->
      (match fetch [ spec ] with
       | [] ->
         (match locked (fun () -> Hashtbl.find_opt memo d) with
          | Some rd -> rd
          | None ->
            raise (Remote_error
                     { P.code = P.Io_error; transient = false;
                       message = "service returned no result" }))
       | (_, e) :: _ -> raise (Remote_error e))
  in
  ({ Experiments.run; meta = local.Experiments.meta }, fetch)
