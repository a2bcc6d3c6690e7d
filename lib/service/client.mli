(** Client side of the xloops service: a thin session layer over the
    wire protocol, a fault-tolerant batch runner, and an
    {!Xloops.Experiments.engine} adapter that makes a remote daemon a
    drop-in replacement for the in-process run engine.

    The session layer ({!connect}/{!submit}/…) is deliberately dumb —
    one request, blocking reads, structured errors.  The resilience
    lives in {!run_plan}: it chunks a plan into batches, reconnects with
    deterministic backoff when the daemon dies or refuses ([Overloaded],
    [Shutting_down], connection errors), and resubmits exactly the specs
    it has no result for — so a daemon kill/restart mid-plan costs only
    the re-simulation the server's cache doesn't absorb. *)

module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Experiments = Xloops.Experiments
module Digest_hex = Xloops.Digest_hex

(** {1 Sessions} *)

type session
(** One connected, handshaken client connection. *)

type connect_error =
  | Refused of Protocol.error
      (** the server answered the handshake with [Rejected] — e.g.
          [Version_mismatch] *)
  | Conn of string
      (** socket-level trouble: connection refused, reset, bad frame *)

val pp_connect_error : Format.formatter -> connect_error -> unit

val connect :
  ?version:int -> Protocol.addr -> (session, connect_error) result
(** Dial, send [Hello] with this process's OCaml version, wait for
    [Welcome].  [version] (default {!Protocol.version}) overrides the
    protocol version the handshake offers (a test exercises the
    server's rejection path). *)

val banner : session -> string
(** The server's [Welcome] banner. *)

val close : session -> unit

type submit_error =
  | Submit_rejected of Protocol.error  (** whole batch refused *)
  | Submit_conn of string              (** connection died mid-stream *)

val submit :
  session -> ?deadline_ms:int -> ?max_retries:int ->
  on_result:
    (index:int -> digest:Digest_hex.t ->
     (Run_spec.run_data, Protocol.error) result -> unit) ->
  Run_spec.t list -> (int, submit_error) result
(** One batch: send [Submit], invoke [on_result] for each streamed
    [Result] (completion order, [index] is the spec's position in this
    batch), return the server's [Batch_done] count.  A success's
    [stats.cache_hits] / [stats.cache_misses] are set from the frame's
    {!Protocol.origin}. *)

val stats : session -> (Protocol.stats, submit_error) result
val ping : session -> (unit, submit_error) result
val shutdown : session -> (unit, submit_error) result
(** Ask the daemon to shut down; [Ok ()] means it answered [Bye]. *)

(** {1 The fault-tolerant plan runner} *)

val run_plan :
  ?chunk:int -> ?deadline_ms:int -> ?max_retries:int -> Protocol.addr ->
  Run_spec.t list ->
  ((Run_spec.run_data, Protocol.error) result array, string) result
(** Run a whole plan through the service: batches of [chunk] (default
    64) specs, at most 10 connection rounds with
    {!Xloops.Failure.backoff_ms} sleeps between them.  Permanent
    per-spec failures are final immediately; transient ones and specs
    orphaned by a dropped connection are resubmitted on the next round.
    [Error] only when the server rejects for a permanent reason (e.g.
    version mismatch) — an unreachable daemon surfaces as per-spec
    transient errors after the attempt budget, so the caller can report
    exactly which specs are missing. *)

(** {1 The remote engine} *)

exception Remote_error of Protocol.error
(** Raised by the remote engine's [run] when the service reports a
    failure for an on-demand spec. *)

val engine :
  ?cache:Run_cache.t -> ?deadline_ms:int -> ?max_retries:int ->
  Protocol.addr ->
  Experiments.engine * (Run_spec.t list -> (Run_spec.t * Protocol.error) list)
(** [(eng, warm)]: [warm plan] pushes the plan through {!run_plan},
    memoizes every success, and returns the failures; [eng.run] serves
    from the memo and falls back to a single-spec fetch (raising
    {!Remote_error} on failure), so table assembly after a warm pass is
    local and byte-identical to the in-process engines.  [eng.meta] is
    computed locally (kernel metadata never crosses the wire), through
    [cache] when given. *)
