(** Content-addressed on-disk result cache for {!Run_spec} executions.

    Keys are {!Run_spec.cache_key} digests (spec encoding + compiled
    program bytes), so a warm cache survives exactly as long as both the
    experiment description and the generated code are unchanged.  Blobs
    are versioned marshalled records carrying an MD5 payload checksum:
    an absent or version/compiler-stale blob reads as a miss; a torn,
    rotten, or checksum-failing blob counts as {e corrupt} and is
    quarantined to [dir/quarantine/] — never an error, never silently
    re-read.  Writes are temp-file + rename and directory creation
    tolerates races, so concurrent workers and concurrent processes are
    safe; {!reap_tmp} cleans up after killed writers.

    A handle remembers the verified bytes of the blobs it has read (at
    most {!memo_limit} bytes of them) and serves a repeated lookup from
    memory.  Only a checked disk read fills that memo, never a store. *)

type t

val current_version : int
(** Bump when the marshalled payload layout changes. *)

val default_dir : string
(** ["_xloops_cache"]. *)

val quarantine_subdir : string
(** ["quarantine"], under the cache [dir]. *)

val create :
  ?version:int -> ?dir:string -> ?chaos:Chaos.t -> ?limit_bytes:int ->
  unit -> t
(** A cache handle.  Nothing is touched on disk until the first store;
    [version] defaults to {!current_version} (override only to test
    invalidation).  [chaos] injects read errors and post-store blob
    corruption for integrity testing.  [limit_bytes] bounds the cache,
    enforced by {!reap_over_limit} at startup. *)

val find_run : t -> key:Digest_hex.t -> Run_spec.run_data option
(** {!find_run_bytes}, unmarshalled. *)

val find_run_bytes : t -> key:Digest_hex.t -> string option
(** The stored result as its 16-byte MD5 followed by the [Marshal]led
    {!Run_spec.run_data} it sums, checked before it is returned: the
    layout of a service [Result] frame's payload, so a daemon forwards
    it without decoding it.  Counts and verdicts as {!find_run}: a
    corrupt blob is quarantined and reads as [None].

    Every lookup first draws the chaos plan's read error (a miss when it
    fires), then consults the handle's memo, then the disk.  A memo hit
    counts as a hit and returns the bytes an earlier read of this handle
    checked; a disk hit is remembered.  So the blob is read and checked
    once per handle: rot that happens after that read is caught by the
    next handle (the next process) that reads it, not by this one. *)

val memo_run_bytes : t -> key:Digest_hex.t -> string option
(** The bytes {!find_run_bytes} would return from the handle's memo,
    without a disk read, a chaos draw or a count: [None] when the memo
    does not hold the key, and always [None] for a handle created with
    a chaos plan.  A caller that answers with the bytes counts that
    hit itself. *)

val store_run : t -> key:Digest_hex.t -> Run_spec.run_data -> unit

val find_meta : t -> key:Digest_hex.t -> int array option
(** Kernel-metadata blobs (dynamic instruction counts, body statistics),
    keyed by {!Run_spec.kernel_digest}; read through the memo as
    {!find_run_bytes} is. *)

val store_meta : t -> key:Digest_hex.t -> int array -> unit

val reap_tmp : t -> int
(** Remove orphaned [*.tmp.*] files a killed writer left under this
    version's tree; returns the count.  Run at startup. *)

val reap_over_limit : t -> int
(** For a cache with [limit_bytes]: delete least-recently-written blobs
    until the version tree fits the limit; returns how many were
    removed.  Recency is blob mtime — there is no access record.
    Returns [0] with no limit.  Run at startup, like {!reap_tmp}. *)

val quarantined : t -> int
(** Files currently in the quarantine directory. *)

val hits : t -> int
val misses : t -> int
(** Absent or version-stale lookups. *)

val corrupt : t -> int
(** Integrity failures detected (and quarantined) by this handle. *)

val stores : t -> int
(** Lookup/store counters for this handle (thread-safe). *)

val evictions : t -> int
(** Blobs this handle deleted for space by {!reap_over_limit}. *)

val memo_limit : int
(** Bound on the bytes a handle's memo holds (4 MiB); an insert that
    would pass it empties the memo first. *)

val memo_bytes : t -> int
(** Bytes the memo holds now. *)

val pp_counters : Format.formatter -> t -> unit
