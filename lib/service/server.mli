(** The spec-batch daemon: a persistent simulation service over the
    run-spec engine.

    One process, three populations of control flow:

    {ul
    {- an {e acceptor} thread listening on the configured address and
       spawning one reader thread per connection;}
    {- {e reader} threads enforcing the {!Protocol} handshake and state
       machine (one outstanding batch per connection), running admission
       control, and answering [STATS]/[PING] inline;}
    {- {e worker} domains pulling admitted jobs off a bounded queue and
       executing them under the retry policy ({!Xloops.Failure.with_retries}),
       consulting and populating the on-disk result cache before
       simulating.}}

    Admission is atomic per batch: a [Submit] either enters the queue
    whole or is rejected whole with [Overloaded] (queue full, transient)
    — no partial acceptance.  Specs are deduplicated in flight by
    {!Xloops.Run_spec.digest}: a spec equal to one already queued or
    executing attaches as a second waiter instead of simulating twice;
    each waiter still receives its own [Result] frame.  Results stream
    back in completion order, tagged with their batch index, and
    [Batch_done] closes the stream.

    A session opens only on an exact {!Protocol.version} and OCaml
    version match; there is no negotiation.

    Chaos ({!Xloops.Chaos}) can be injected server-side — worker stalls
    and transient crashes before each job, cache read errors and blob
    corruption through the cache handle — and the retry policy must
    absorb all of it without changing any client-visible result. *)

module Run_cache = Xloops.Run_cache
module Chaos = Xloops.Chaos

type config = {
  addr : Protocol.addr;
  workers : int;                    (** simulation domains (>= 1) *)
  max_queue : int;                  (** admission bound on queued jobs *)
  cache : Run_cache.t option;       (** consult/populate before simulating *)
  chaos : Chaos.t option;           (** server-side fault injection *)
  default_deadline_ms : int option; (** for [Submit]s that carry none *)
  default_max_retries : int;
  banner : string;                  (** free-text, echoed in [Welcome] *)
  verbose : bool;                   (** [serve] diagnostics on stderr *)
}

val config :
  addr:Protocol.addr -> ?workers:int -> ?max_queue:int ->
  ?cache:Run_cache.t -> ?chaos:Chaos.t -> ?deadline_ms:int ->
  ?max_retries:int -> ?banner:string -> ?verbose:bool -> unit -> config
(** Defaults: 1 worker, queue bound 256, no cache, no chaos, no
    deadline, 0 retries, quiet.
    Raises [Invalid_argument] on a non-positive worker count or queue
    bound. *)

type t

val start : config -> t
(** Bind, listen, spawn workers and the acceptor, return immediately.
    Raises [Unix.Unix_error] if the address cannot be bound.  A stale
    Unix socket file left by a killed daemon is unlinked first. *)

val bound_addr : t -> Protocol.addr
(** The actual listening address — for [Tcp (host, 0)] this carries the
    kernel-assigned port. *)

val stats : t -> Protocol.stats
(** The same snapshot a [STATS] request returns. *)

val stop : t -> unit
(** Stop accepting, drain already-admitted jobs through the workers,
    disconnect clients, join every thread and domain, close and (for
    Unix sockets) unlink the listening socket.  Idempotent. *)

val wait : t -> unit
(** Block until a client's [SHUTDOWN] request arrives (or {!stop} is
    called from another thread). *)

val run : config -> unit
(** [start] + [wait] + [stop] — the blocking form the daemon binary
    uses. *)
