(** Content-addressed on-disk result cache for {!Run_spec} executions.

    Keys are {!Run_spec.cache_key} digests (spec encoding + compiled
    program bytes), so a warm cache survives exactly as long as both the
    experiment description and the generated code are unchanged.  All
    blobs of a cache version live in one append-only pack,
    [dir/v<version>/pack-<ocaml-version>]: each store appends one framed
    record with a single [write], so concurrent workers and concurrent
    processes are safe, and a record torn by a killed writer is skipped.
    Each blob is {!seal}ed — an MD5 followed by the [Marshal]led value
    it sums — and a read compares the MD5 before anything is
    unmarshalled.  A lookup is a hit, absent (a miss), or {e corrupt}:
    a blob whose checksum fails is copied to [dir/quarantine/] and
    tombstoned — never an error, never silently re-read.  A handle
    indexes the pack in memory (key → offset) and reads the pack's new
    tail on an index miss, so another process's stores become visible
    to it. *)

type t

val current_version : int
(** Bump when the marshalled payload layout changes. *)

val seal : 'a -> string
(** The 16-byte MD5 of [Marshal.to_string v []], followed by those
    bytes: the layout of every pack blob and of a service [Result]
    frame's payload. *)

val sealed_ok : string -> bool
(** Whether [s]'s first 16 bytes are the MD5 of the rest: the check a
    {!seal}ed string passes before [Marshal.from_string s 16] may read
    it. *)

val default_dir : string
(** ["_xloops_cache"]. *)

val quarantine_subdir : string
(** ["quarantine"], under the cache [dir]. *)

val create :
  ?version:int -> ?dir:string -> ?chaos:Chaos.t -> ?limit_bytes:int ->
  unit -> t
(** A cache handle.  Nothing is created on disk until the first store;
    [version] defaults to {!current_version} (override only to test
    invalidation).  [chaos] injects read errors and post-store blob
    corruption for integrity testing.  [limit_bytes] bounds the cache,
    enforced by {!reap_over_limit} at startup. *)

val chaos : t -> Chaos.t option
(** The plan the handle was created with. *)

val find_run : t -> key:Digest_hex.t -> Run_spec.run_data option
(** {!find_run_bytes}, unmarshalled. *)

val find_run_bytes : t -> key:Digest_hex.t -> string option
(** The stored result's {!seal}ed bytes, as read from the pack and
    checked by {!sealed_ok} before they are returned: the layout of a
    service [Result] frame's payload, so a daemon forwards them without
    decoding them.  Counts and verdicts as {!find_run}: a
    corrupt blob is quarantined and reads as [None].  A chaos plan's
    read error is drawn first, and a miss when it fires. *)

val store_run : t -> key:Digest_hex.t -> Run_spec.run_data -> unit

val find_meta : t -> key:Digest_hex.t -> int array option
(** Kernel-metadata blobs (dynamic instruction counts, body statistics),
    keyed by {!Run_spec.kernel_digest}. *)

val store_meta : t -> key:Digest_hex.t -> int array -> unit

val blob_span : t -> key:Digest_hex.t -> (string * int * int) option
(** The pack's path, and the offset and length of the blob in [key]'s
    live result record, if any: for fixtures that rot a stored result
    in place. *)

val reap_tmp : t -> int
(** Remove the orphaned [pack-<ocaml-version>.tmp.*] file a
    {!reap_over_limit} killed mid-rewrite left behind; returns the
    count.  Run at startup. *)

val reap_over_limit : t -> int
(** For a cache with [limit_bytes]: rewrite the pack (temp file +
    rename) with only the newest live records that fit the limit, frames
    included; returns how many live records were dropped.  Recency is
    append order — there is no access record.  Returns [0] with no
    limit or a pack that fits.  Run at startup, like {!reap_tmp}: a
    process still appending to the old pack loses those appends. *)

val quarantined : t -> int
(** Files currently in the quarantine directory. *)

val hits : t -> int
val misses : t -> int
(** Lookups that found no live record, or drew a chaos read error. *)

val corrupt : t -> int
(** Integrity failures detected (and quarantined) by this handle. *)

val stores : t -> int
(** Lookup/store counters for this handle (thread-safe). *)

val evictions : t -> int
(** Records this handle dropped for space by {!reap_over_limit}. *)

val pp_counters : Format.formatter -> t -> unit
