(** The xloops service wire protocol.

    Framing: every message is a 4-byte big-endian length followed by
    that many payload bytes.  Payloads are deterministic field-by-field
    encodings in the same style as {!Xloops.Run_spec.encode}
    (length-prefixed strings, decimal integers with a [';'] terminator,
    one-byte constructor tags), so both ends can be fuzzed against each
    other and a tampered frame decodes to an [Error], never to a
    half-filled message.

    Sessions open with a handshake: the client's first frame must be
    {!Hello} carrying the protocol version {e and} the client's OCaml
    version (result payloads are checksummed [Marshal] blobs, so the
    OCaml versions must match exactly).  Both must equal the server's
    own; anything else is answered with {!Rejected} [Version_mismatch]
    and the connection is closed.  There is exactly one protocol
    version; the handshake checks it, it does not negotiate.

    Specs cross the boundary only in their canonical
    {!Xloops.Run_spec.encode} form — {!decode_request} runs
    {!Xloops.Run_spec.decode} on each, so a [Submit] that reaches the
    caller holds fully validated specs.

    Results stream back as one {!Result} frame per spec, in completion
    order, each tagged with the spec's index in the submitted batch;
    {!Batch_done} terminates the stream.  Errors carry a structured
    {!error_code} mapped from the orchestration failure taxonomy
    ({!Xloops.Failure.t}) plus its transient/permanent classification,
    so a client can apply the same retry policy it would in-process. *)

module Run_spec = Xloops.Run_spec
module Failure = Xloops.Failure
module Digest_hex = Xloops.Digest_hex

val version : int
(** The protocol version this build speaks (1); a handshake must offer
    exactly this. *)

val max_frame_bytes : int
(** Upper bound on a frame payload (defense against garbage lengths). *)

(** {1 Addresses} *)

type addr = Cli_common.addr =
  | Unix_path of string          (** a filesystem socket *)
  | Tcp of string * int          (** host, port *)
(** Re-exported from {!Cli_common}, where the one parser for the
    [--listen]/[--server] address grammar lives. *)

val parse_addr : string -> (addr, string) result
(** ["unix:PATH"], ["tcp:HOST:PORT"], or bare ["HOST:PORT"]. *)

val pp_addr : Format.formatter -> addr -> unit
(** Prints in the {!parse_addr} spelling. *)

val sockaddr_of : addr -> Unix.sockaddr

val set_nodelay : Unix.file_descr -> unit
(** Disable Nagle on a TCP socket (the protocol is small-frame
    request/response, where batching against delayed ACKs costs tens of
    milliseconds per exchange).  A no-op on non-TCP sockets. *)

(** {1 Errors} *)

type error_code =
  | Version_mismatch   (** handshake: protocol or OCaml version skew *)
  | Malformed          (** unparseable frame or payload *)
  | Overloaded         (** admission control: queue full, try later *)
  | Shutting_down      (** server is draining; no new work *)
  | Sim_error          (** {!Xloops.Failure.Sim} *)
  | Check_error        (** {!Xloops.Failure.Check} *)
  | Timeout_error      (** {!Xloops.Failure.Timeout} *)
  | Crash_error        (** {!Xloops.Failure.Crash} *)
  | Io_error           (** {!Xloops.Failure.Io} *)

type error = {
  code : error_code;
  transient : bool;
      (** whether retrying the same request may succeed — mirrors
          {!Xloops.Failure.classify} for taxonomy codes; [Overloaded]
          and [Shutting_down] are transient by definition *)
  message : string;
}

val error_of_failure : Failure.t -> error
(** The taxonomy mapping: [Sim]→[Sim_error], [Check]→[Check_error],
    [Timeout]→[Timeout_error], [Crash]→[Crash_error], [Io]→[Io_error],
    with [transient] from {!Xloops.Failure.is_transient}. *)

val error_code_name : error_code -> string
val pp_error : Format.formatter -> error -> unit

(** {1 Server statistics (the [STATS] request)} *)

type worker_stat = {
  w_jobs : int;          (** simulations this worker completed *)
  w_busy_ms : int;       (** wall-clock spent executing them *)
}

type stats = {
  uptime_ms : int;
  workers : int;
  queue_depth : int;     (** jobs admitted but not yet picked up *)
  queue_limit : int;
  in_flight : int;       (** jobs executing right now *)
  accepted : int;        (** specs admitted across all batches *)
  rejected_batches : int;(** batches refused by admission control *)
  dedup_hits : int;      (** specs coalesced onto an in-flight twin *)
  completed : int;       (** jobs finished successfully *)
  failed : int;          (** jobs finished with a failure *)
  cache_hits : int;
  cache_misses : int;
  cache_stores : int;
  per_worker : worker_stat list;
}

val pp_stats : Format.formatter -> stats -> unit

val stats_to_json : stats -> string
(** One-line JSON object (all-integer fields plus a [per_worker]
    array), for [xloops_serve --stats --json] and CI gates. *)

(** {1 Messages} *)

type request =
  | Hello of { version : int; ocaml : string }
  | Submit of {
      deadline_ms : int option;  (** per-spec wall-clock budget *)
      max_retries : int;         (** transient-failure retry budget *)
      specs : Run_spec.t list;
    }
  | Stats
  | Ping
  | Shutdown

type response =
  | Welcome of { version : int; ocaml : string; banner : string }
  | Result of {
      index : int;               (** position in the submitted batch *)
      digest : Digest_hex.t;     (** {!Xloops.Run_spec.digest} *)
      outcome : (Run_spec.run_data, error) result;
    }
  | Batch_done of { delivered : int }
  | Stats_reply of stats
  | Pong
  | Rejected of error
  | Bye

val encode_request : request -> string
val decode_request : string -> (request, string) result

val encode_response : response -> string
val decode_response : string -> (response, string) result

(** {1 Framing} *)

val write_frame : out_channel -> string -> unit
(** Length prefix + payload + flush.  Raises [Sys_error] on a broken
    connection. *)

val read_frame : in_channel -> [ `Frame of string | `Eof | `Error of string ]
(** One frame off the channel: [`Eof] on a cleanly closed connection
    (end of input before any length byte), [`Error] on a truncated or
    oversized frame. *)
