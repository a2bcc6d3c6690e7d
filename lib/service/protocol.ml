(* Wire protocol: framing, message codec, and the failure-taxonomy
   mapping.  See protocol.mli for the format contract. *)

module Run_spec = Xloops.Run_spec
module Failure = Xloops.Failure
module Digest_hex = Xloops.Digest_hex

let version = 1

let max_frame_bytes = 64 * 1024 * 1024

(* -- Addresses ------------------------------------------------------------ *)

(* The address grammar is shared with every CLI ([--listen], [--server]),
   so the single parser lives in [Cli_common]; this module
   re-exports it so protocol users need not depend on the CLI library's
   name. *)

type addr = Cli_common.addr =
  | Unix_path of string
  | Tcp of string * int

let parse_addr = Cli_common.parse_addr
let pp_addr = Cli_common.pp_addr
let sockaddr_of = Cli_common.sockaddr_of

(* The protocol is request/response with small frames; Nagle's
   algorithm serializes those round trips against delayed ACKs and
   can cost tens of ms per exchange.  No-op on AF_UNIX sockets. *)
let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* -- Errors -------------------------------------------------------------- *)

type error_code =
  | Version_mismatch
  | Malformed
  | Overloaded
  | Shutting_down
  | Sim_error
  | Check_error
  | Timeout_error
  | Crash_error
  | Io_error

type error = {
  code : error_code;
  transient : bool;
  message : string;
}

let error_of_failure (f : Failure.t) : error =
  let code =
    match f with
    | Failure.Sim _ -> Sim_error
    | Failure.Check _ -> Check_error
    | Failure.Timeout _ -> Timeout_error
    | Failure.Crash _ -> Crash_error
    | Failure.Io _ -> Io_error
  in
  { code; transient = Failure.is_transient f;
    message = Fmt.str "%a" Failure.pp f }

let error_code_name = function
  | Version_mismatch -> "version-mismatch"
  | Malformed -> "malformed"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting-down"
  | Sim_error -> "sim"
  | Check_error -> "check"
  | Timeout_error -> "timeout"
  | Crash_error -> "crash"
  | Io_error -> "io"

let pp_error ppf e =
  Fmt.pf ppf "[%s%s] %s" (error_code_name e.code)
    (if e.transient then "/transient" else "") e.message

(* -- Stats --------------------------------------------------------------- *)

type worker_stat = {
  w_jobs : int;
  w_busy_ms : int;
}

type stats = {
  uptime_ms : int;
  workers : int;
  queue_depth : int;
  queue_limit : int;
  in_flight : int;
  accepted : int;
  rejected_batches : int;
  dedup_hits : int;
  completed : int;
  failed : int;
  cache_hits : int;
  cache_misses : int;
  cache_stores : int;
  per_worker : worker_stat list;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "up %.1fs, %d worker(s), queue %d/%d, %d in flight; %d accepted \
     (%d dedup), %d batch(es) rejected; %d completed, %d failed; cache \
     %d hit(s) / %d miss(es) / %d store(s)"
    (float_of_int s.uptime_ms /. 1000.) s.workers s.queue_depth
    s.queue_limit s.in_flight s.accepted s.dedup_hits s.rejected_batches
    s.completed s.failed s.cache_hits s.cache_misses s.cache_stores;
  List.iteri
    (fun i w ->
       Fmt.pf ppf "; w%d: %d job(s) %d ms" i w.w_jobs w.w_busy_ms)
    s.per_worker

(* Machine-readable stats for [--stats --json].  Every field is an
   integer, so hand-rolled rendering is exact (no escaping, no float
   formatting) and costs no dependency. *)
let stats_to_json (s : stats) =
  let b = Buffer.create 256 in
  let field name v =
    if Buffer.length b > 1 then Buffer.add_char b ',';
    Buffer.add_string b (Fmt.str "%S:%d" name v)
  in
  Buffer.add_char b '{';
  field "uptime_ms" s.uptime_ms;
  field "workers" s.workers;
  field "queue_depth" s.queue_depth;
  field "queue_limit" s.queue_limit;
  field "in_flight" s.in_flight;
  field "accepted" s.accepted;
  field "rejected_batches" s.rejected_batches;
  field "dedup_hits" s.dedup_hits;
  field "completed" s.completed;
  field "failed" s.failed;
  field "cache_hits" s.cache_hits;
  field "cache_misses" s.cache_misses;
  field "cache_stores" s.cache_stores;
  Buffer.add_string b ",\"per_worker\":[";
  List.iteri
    (fun i w ->
       if i > 0 then Buffer.add_char b ',';
       Buffer.add_string b
         (Fmt.str "{\"jobs\":%d,\"busy_ms\":%d}" w.w_jobs w.w_busy_ms))
    s.per_worker;
  Buffer.add_string b "]}";
  Buffer.contents b

(* -- Field codec --------------------------------------------------------- *)

(* Same style as Run_spec's canonical encoding: decimal integers with a
   ';' terminator, length-prefixed strings, one-byte tags.  Decoding is
   strict and total — any malformation raises [Bad], caught at the
   message boundary. *)

let enc_int b n = Buffer.add_string b (string_of_int n); Buffer.add_char b ';'
let enc_str b s = enc_int b (String.length s); Buffer.add_string b s
let enc_bool b v = Buffer.add_char b (if v then 't' else 'f')

exception Bad of string

type cursor = { s : string; mutable pos : int }

let fail_at c msg = raise (Bad (Fmt.str "%s at byte %d" msg c.pos))

let dec_char c =
  if c.pos >= String.length c.s then fail_at c "unexpected end of payload";
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let dec_int c =
  let start = c.pos in
  if c.pos < String.length c.s && c.s.[c.pos] = '-' then c.pos <- c.pos + 1;
  let digits0 = c.pos in
  while c.pos < String.length c.s
        && (match c.s.[c.pos] with '0' .. '9' -> true | _ -> false) do
    c.pos <- c.pos + 1
  done;
  if c.pos = digits0 then fail_at c "expected an integer";
  if dec_char c <> ';' then fail_at c "expected ';' after integer";
  match int_of_string (String.sub c.s start (c.pos - 1 - start)) with
  | n -> n
  | exception Stdlib.Failure _ -> fail_at c "integer out of range"

let dec_str c =
  let n = dec_int c in
  if n < 0 || c.pos + n > String.length c.s then
    fail_at c "string length overruns payload";
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let dec_bool c =
  match dec_char c with
  | 't' -> true
  | 'f' -> false
  | _ -> fail_at c "expected a bool tag"

let enc_int_opt b = function
  | None -> Buffer.add_char b 'n'
  | Some v -> Buffer.add_char b 's'; enc_int b v

let dec_int_opt c =
  match dec_char c with
  | 'n' -> None
  | 's' -> Some (dec_int c)
  | _ -> fail_at c "expected an option tag"

let finish c v =
  if c.pos <> String.length c.s then fail_at c "trailing bytes";
  v

(* -- Error / stats codec -------------------------------------------------- *)

let error_code_tag = function
  | Version_mismatch -> 'V'
  | Malformed -> 'M'
  | Overloaded -> 'O'
  | Shutting_down -> 'D'
  | Sim_error -> 'S'
  | Check_error -> 'C'
  | Timeout_error -> 'T'
  | Crash_error -> 'R'
  | Io_error -> 'I'

let error_code_of_tag c = function
  | 'V' -> Version_mismatch
  | 'M' -> Malformed
  | 'O' -> Overloaded
  | 'D' -> Shutting_down
  | 'S' -> Sim_error
  | 'C' -> Check_error
  | 'T' -> Timeout_error
  | 'R' -> Crash_error
  | 'I' -> Io_error
  | _ -> fail_at c "unknown error-code tag"

let enc_error b (e : error) =
  Buffer.add_char b (error_code_tag e.code);
  enc_bool b e.transient;
  enc_str b e.message

let dec_error c : error =
  let code = error_code_of_tag c (dec_char c) in
  let transient = dec_bool c in
  let message = dec_str c in
  { code; transient; message }

let enc_stats b (s : stats) =
  List.iter (enc_int b)
    [ s.uptime_ms; s.workers; s.queue_depth; s.queue_limit; s.in_flight;
      s.accepted; s.rejected_batches; s.dedup_hits; s.completed; s.failed;
      s.cache_hits; s.cache_misses; s.cache_stores ];
  enc_int b (List.length s.per_worker);
  List.iter
    (fun w -> enc_int b w.w_jobs; enc_int b w.w_busy_ms)
    s.per_worker

let dec_stats c : stats =
  let uptime_ms = dec_int c in
  let workers = dec_int c in
  let queue_depth = dec_int c in
  let queue_limit = dec_int c in
  let in_flight = dec_int c in
  let accepted = dec_int c in
  let rejected_batches = dec_int c in
  let dedup_hits = dec_int c in
  let completed = dec_int c in
  let failed = dec_int c in
  let cache_hits = dec_int c in
  let cache_misses = dec_int c in
  let cache_stores = dec_int c in
  let n = dec_int c in
  if n < 0 || n > 4096 then fail_at c "implausible worker count";
  let per_worker =
    List.init n (fun _ ->
        let w_jobs = dec_int c in
        let w_busy_ms = dec_int c in
        { w_jobs; w_busy_ms })
  in
  { uptime_ms; workers; queue_depth; queue_limit; in_flight; accepted;
    rejected_batches; dedup_hits; completed; failed; cache_hits;
    cache_misses; cache_stores; per_worker }

(* -- run_data transport --------------------------------------------------- *)

(* Results are checksummed [Marshal] blobs, exactly like the on-disk
   result cache (PR 6): the handshake pins both the protocol version and
   the OCaml version, which is what makes [Marshal] safe here, and the
   MD5 prefix catches in-flight truncation or corruption. *)

let bytes_of_run_data (rd : Run_spec.run_data) =
  let body = Marshal.to_string rd [] in
  (Digest.string body : Digest.t :> string) ^ body

let run_data_of_bytes s : (Run_spec.run_data, string) result =
  if String.length s < 16 then Error "run_data blob shorter than checksum"
  else
    let sum = String.sub s 0 16 in
    let body = String.sub s 16 (String.length s - 16) in
    if not (String.equal (Digest.string body) sum) then
      Error "run_data checksum mismatch"
    else
      match (Marshal.from_string body 0 : Run_spec.run_data) with
      | rd -> Ok rd
      | exception Stdlib.Failure m -> Error ("run_data unmarshal: " ^ m)

(* -- Messages ------------------------------------------------------------- *)

type request =
  | Hello of { version : int; ocaml : string }
  | Submit of {
      deadline_ms : int option;
      max_retries : int;
      specs : Run_spec.t list;
    }
  | Stats
  | Ping
  | Shutdown

type response =
  | Welcome of { version : int; ocaml : string; banner : string }
  | Result of {
      index : int;
      digest : Digest_hex.t;
      outcome : (Run_spec.run_data, error) result;
    }
  | Batch_done of { delivered : int }
  | Stats_reply of stats
  | Pong
  | Rejected of error
  | Bye

let encode_request (r : request) =
  let b = Buffer.create 256 in
  (match r with
   | Hello { version; ocaml } ->
     Buffer.add_char b 'H'; enc_int b version; enc_str b ocaml
   | Submit { deadline_ms; max_retries; specs } ->
     Buffer.add_char b 'S';
     enc_int_opt b deadline_ms;
     enc_int b max_retries;
     enc_int b (List.length specs);
     List.iter (fun spec -> enc_str b (Run_spec.encode spec)) specs
   | Stats -> Buffer.add_char b 'T'
   | Ping -> Buffer.add_char b 'P'
   | Shutdown -> Buffer.add_char b 'Q');
  Buffer.contents b

let decode_request s : (request, string) result =
  let c = { s; pos = 0 } in
  match
    match dec_char c with
    | 'H' ->
      let version = dec_int c in
      let ocaml = dec_str c in
      finish c (Hello { version; ocaml })
    | 'S' ->
      let deadline_ms = dec_int_opt c in
      let max_retries = dec_int c in
      let n = dec_int c in
      if n < 0 || n > 1_000_000 then fail_at c "implausible batch size";
      let specs =
        List.init n (fun i ->
            match Run_spec.decode (dec_str c) with
            | Ok spec -> spec
            | Error msg ->
              raise (Bad (Fmt.str "spec %d of %d: %s" i n msg)))
      in
      finish c (Submit { deadline_ms; max_retries; specs })
    | 'T' -> finish c Stats
    | 'P' -> finish c Ping
    | 'Q' -> finish c Shutdown
    | _ -> fail_at c "unknown request tag"
  with
  | req -> Ok req
  | exception Bad msg -> Error ("decode_request: " ^ msg)

let encode_response (r : response) =
  let b = Buffer.create 256 in
  (match r with
   | Welcome { version; ocaml; banner } ->
     Buffer.add_char b 'W'; enc_int b version; enc_str b ocaml;
     enc_str b banner
   | Result { index; digest; outcome } ->
     Buffer.add_char b 'R';
     enc_int b index;
     enc_str b (Digest_hex.to_hex digest);
     (match outcome with
      | Ok rd -> Buffer.add_char b 'k'; enc_str b (bytes_of_run_data rd)
      | Error e -> Buffer.add_char b 'e'; enc_error b e)
   | Batch_done { delivered } -> Buffer.add_char b 'D'; enc_int b delivered
   | Stats_reply st -> Buffer.add_char b 'A'; enc_stats b st
   | Pong -> Buffer.add_char b 'O'
   | Rejected e -> Buffer.add_char b 'E'; enc_error b e
   | Bye -> Buffer.add_char b 'B');
  Buffer.contents b

let decode_response s : (response, string) result =
  let c = { s; pos = 0 } in
  match
    match dec_char c with
    | 'W' ->
      let version = dec_int c in
      let ocaml = dec_str c in
      let banner = dec_str c in
      finish c (Welcome { version; ocaml; banner })
    | 'R' ->
      let index = dec_int c in
      let digest =
        match Digest_hex.of_hex (dec_str c) with
        | Ok d -> d
        | Error msg -> fail_at c msg
      in
      let outcome =
        match dec_char c with
        | 'k' ->
          (match run_data_of_bytes (dec_str c) with
           | Ok rd -> Ok rd
           | Error msg -> fail_at c msg)
        | 'e' -> Error (dec_error c)
        | _ -> fail_at c "unknown outcome tag"
      in
      finish c (Result { index; digest; outcome })
    | 'D' -> let delivered = dec_int c in finish c (Batch_done { delivered })
    | 'A' -> finish c (Stats_reply (dec_stats c))
    | 'O' -> finish c Pong
    | 'E' -> finish c (Rejected (dec_error c))
    | 'B' -> finish c Bye
    | _ -> fail_at c "unknown response tag"
  with
  | resp -> Ok resp
  | exception Bad msg -> Error ("decode_response: " ^ msg)

(* -- Framing -------------------------------------------------------------- *)

let write_frame oc payload =
  let n = String.length payload in
  if n > max_frame_bytes then
    invalid_arg (Fmt.str "Protocol.write_frame: %d-byte frame" n);
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  output_bytes oc hdr;
  output_string oc payload;
  flush oc

let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> `Eof
  | exception Sys_error msg -> `Error msg
  | hdr ->
    let n =
      (Char.code hdr.[0] lsl 24) lor (Char.code hdr.[1] lsl 16)
      lor (Char.code hdr.[2] lsl 8) lor Char.code hdr.[3]
    in
    if n > max_frame_bytes then
      `Error (Fmt.str "frame length %d exceeds limit" n)
    else
      match really_input_string ic n with
      | payload -> `Frame payload
      | exception End_of_file -> `Error "truncated frame"
      | exception Sys_error msg -> `Error msg
