(** The spec-batch daemon: a persistent simulation service over the
    run-spec engine.

    One process, three populations of control flow:

    {ul
    {- an {e acceptor} thread listening on the configured address and
       spawning one reader thread per connection;}
    {- {e reader} threads enforcing the {!Protocol} handshake and state
       machine (one outstanding batch per connection), running admission
       control, answering warm hits from the daemon's answer table, and
       answering [STATS]/[PING] inline;}
    {- {e worker} domains pulling admitted jobs off a bounded queue and
       executing them under the retry policy ({!Xloops.Failure.with_retries}),
       consulting and populating the on-disk result cache before
       simulating.}}

    Admission is atomic per batch, and every rule is decided under one
    lock hold before any frame is written: a daemon that is stopping, or
    that a client has asked to shut down, answers [Shutting_down]; a
    connection whose batch is still pending gets [Malformed]; a batch
    whose queued specs would pass the queue limit is rejected whole with
    [Overloaded] (transient) — no partial acceptance.

    {b The answer table.}  The daemon remembers, by the exact spelling
    a spec arrived as, the digest and blob of every answer a worker
    read as a verified disk hit (never a store's).  The reader thread
    looks up a batch's spellings in it before it decodes any, and
    answers the hits itself, without a job: no decode, no MD5, no
    queue, no worker, no retry policy, no disk read.  Only the other
    spellings are decoded (one malformed spelling rejects the whole
    batch [Malformed] and closes the connection) and queued, and only
    they count against the queue limit.  The batch's pending count
    covers both kinds of answer, so a mixed batch ends in exactly one
    [Batch_done].  Without a cache, or with a chaos plan (on the daemon
    or on its cache handle), the table stays empty and every spec is a
    job, so chaos still reaches every lookup.  Table answers count in
    [cache_hits] and [accepted], not in [completed] or a worker's jobs.
    The table holds at most {!answer_limit} answers.

    Specs are deduplicated in flight by
    {!Xloops.Run_spec.digest}: a spec equal to one already queued or
    executing attaches as a second waiter instead of simulating twice;
    each waiter still receives its own [Result] frame.  Results stream
    back in completion order, tagged with their batch index, and
    [Batch_done] closes the stream.

    A cache hit is sent as the bytes {!Xloops.Run_cache.find_run_bytes}
    returns, checksum verified and otherwise untouched; the daemon never
    decodes or mutates a result.  Each [Result] frame carries its
    {!Protocol.origin}, from which the client sets the cache flags.
    [Result] frames are written unflushed: a worker flushes every
    connection it wrote to before it can block (waiting on an empty
    queue, a chaos hook, a simulation), so the hits of a batch leave in
    one write and simulated results still stream.  A reader flushes the
    answers it wrote before it reads the next request: an all-hit
    batch's results and its [Batch_done] leave in one write.
    [Batch_done] and every reply outside a batch are flushed at once.

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
    deadline, 0 retries, quiet.  A quiet daemon builds no diagnostic:
    each log site costs one test of [verbose].
    Raises [Invalid_argument] on a non-positive worker count or queue
    bound. *)

type t

val answer_limit : int
(** Bound on the answers the table holds (4096; the paper plan has 384
    distinct specs).  An insert that would pass it empties the table
    first. *)

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
    Unix sockets) unlink the listening socket.  Idempotent.  Every
    result of a batch admitted before [stop] is delivered, with its
    [Batch_done], before any client is disconnected; a batch read after
    [stop] has begun is refused [Shutting_down]. *)

val wait : t -> unit
(** Block until a client's [SHUTDOWN] request has been answered (or
    {!stop} is called from another thread).  From the moment that
    request is read, no batch is admitted on any connection. *)

val run : config -> unit
(** [start] + [wait] + [stop] — the blocking form the daemon binary
    uses. *)
