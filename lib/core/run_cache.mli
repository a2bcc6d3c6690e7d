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
    safe; {!reap_tmp} cleans up after killed writers. *)

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
val store_run : t -> key:Digest_hex.t -> Run_spec.run_data -> unit

val find_meta : t -> key:Digest_hex.t -> int array option
(** Kernel-metadata blobs (dynamic instruction counts, body statistics),
    keyed by {!Run_spec.kernel_digest}. *)

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

val pp_counters : Format.formatter -> t -> unit
