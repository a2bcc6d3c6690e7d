(* Wire protocol: framing, message codec, and the failure-taxonomy
   mapping.  See protocol.mli for the format contract. *)

module Run_spec = Xloops.Run_spec
module Failure = Xloops.Failure
module Digest_hex = Xloops.Digest_hex
module Run_cache = Xloops.Run_cache

let version = 3

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

(* -- Error / stats codec -------------------------------------------------- *)

(* Fields use the codec of Run_spec's canonical encoding. *)
open Xloops.Field_codec

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

(* Results travel sealed by [Run_cache.seal], the layout of a cache
   blob, so a daemon forwards a cache hit's bytes untouched.  The
   handshake pins both the protocol version and the OCaml version,
   which is what makes [Marshal] safe here, and [Run_cache.sealed_ok]
   catches in-flight truncation or corruption before anything is
   unmarshalled. *)

type origin = Hit | Miss | Uncached

type run = { origin : origin; blob : string }

let run_of_data origin (rd : Run_spec.run_data) =
  { origin; blob = Run_cache.seal rd }

let data_of_run { origin; blob } : (Run_spec.run_data, string) result =
  match (Marshal.from_string blob 16 : Run_spec.run_data) with
  | rd ->
    (match origin with
     | Hit -> rd.stats.cache_hits <- 1
     | Miss -> rd.stats.cache_misses <- 1
     | Uncached -> ());
    Ok rd
  | exception Stdlib.Failure m -> Error ("run_data unmarshal: " ^ m)

let origin_tag = function Hit -> 'h' | Miss -> 'm' | Uncached -> 'u'

let origin_of_tag c = function
  | 'h' -> Hit
  | 'm' -> Miss
  | 'u' -> Uncached
  | _ -> fail_at c "unknown result-origin tag"

(* -- Messages ------------------------------------------------------------- *)

type request =
  | Hello of { version : int; ocaml : string }
  | Submit of {
      deadline_ms : int option;
      max_retries : int;
      specs : string list;
    }
  | Stats
  | Ping
  | Shutdown

type response =
  | Welcome of { version : int; ocaml : string; banner : string }
  | Result of {
      index : int;
      digest : Digest_hex.t;
      outcome : (run, error) result;
    }
  | Batch_done of { delivered : int }
  | Stats_reply of stats
  | Pong
  | Rejected of error
  | Bye

(* A [Submit] is sized from its specs' spellings, so its buffer is never
   grown and copied on the way. *)
let encode_request (r : request) =
  let size =
    match r with
    | Submit { specs; _ } ->
      List.fold_left (fun n s -> n + str_length s) 64 specs
    | Hello _ | Stats | Ping | Shutdown -> 64
  in
  let b = Buffer.create size in
  (match r with
   | Hello { version; ocaml } ->
     Buffer.add_char b 'H'; enc_int b version; enc_str b ocaml
   | Submit { deadline_ms; max_retries; specs } ->
     Buffer.add_char b 'S';
     enc_int_opt b deadline_ms;
     enc_int b max_retries;
     enc_int b (List.length specs);
     List.iter (enc_str b) specs
   | Stats -> Buffer.add_char b 'T'
   | Ping -> Buffer.add_char b 'P'
   | Shutdown -> Buffer.add_char b 'Q');
  Buffer.contents b

let decode_request s : (request, string) result =
  let c = cursor s in
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
      let specs = List.init n (fun _ -> dec_str c) in
      finish c (Submit { deadline_ms; max_retries; specs })
    | 'T' -> finish c Stats
    | 'P' -> finish c Ping
    | 'Q' -> finish c Shutdown
    | _ -> fail_at c "unknown request tag"
  with
  | req -> Ok req
  | exception Bad msg -> Error ("decode_request: " ^ msg)

(* Sized for the small frames: a daemon writes its successful [Result]
   frames with [write_result]. *)
let encode_response (r : response) =
  let b = Buffer.create 64 in
  (match r with
   | Welcome { version; ocaml; banner } ->
     Buffer.add_char b 'W'; enc_int b version; enc_str b ocaml;
     enc_str b banner
   | Result { index; digest; outcome } ->
     Buffer.add_char b 'R';
     enc_int b index;
     enc_str b (Digest_hex.to_hex digest);
     (match outcome with
      | Ok run ->
        Buffer.add_char b 'k';
        Buffer.add_char b (origin_tag run.origin);
        enc_str b run.blob
      | Error e -> Buffer.add_char b 'e'; enc_error b e)
   | Batch_done { delivered } -> Buffer.add_char b 'D'; enc_int b delivered
   | Stats_reply st -> Buffer.add_char b 'A'; enc_stats b st
   | Pong -> Buffer.add_char b 'O'
   | Rejected e -> Buffer.add_char b 'E'; enc_error b e
   | Bye -> Buffer.add_char b 'B');
  Buffer.contents b

let decode_response s : (response, string) result =
  let c = cursor s in
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
          let origin = origin_of_tag c (dec_char c) in
          let blob = dec_str c in
          if not (Run_cache.sealed_ok blob) then
            fail_at c "run_data checksum mismatch";
          Ok { origin; blob }
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

let output_length oc n =
  if n > max_frame_bytes then
    invalid_arg (Fmt.str "Protocol.write_frame: %d-byte frame" n);
  output_byte oc (n lsr 24);
  output_byte oc (n lsr 16);
  output_byte oc (n lsr 8);
  output_byte oc n

let write_frame oc payload =
  output_length oc (String.length payload);
  output_string oc payload

(* The frame [encode_response] would build for a successful [Result],
   written field by field: the blob is copied once, into the channel. *)
let write_result oc ~index ~digest run =
  let hex = Digest_hex.to_hex digest in
  output_length oc
    (1 + int_length index + str_length hex + 2 + str_length run.blob);
  output_char oc 'R';
  output_int oc index;
  output_str oc hex;
  output_char oc 'k';
  output_char oc (origin_tag run.origin);
  output_str oc run.blob

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
