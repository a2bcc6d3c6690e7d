(** Content-addressed on-disk result cache.

    Results are filed under [dir/v<version>/<kk>/<key>.run] where [key]
    is {!Run_spec.cache_key} (digest of canonical spec encoding +
    compiled program bytes) and [kk] its first two hex digits.  Kernel
    metadata (dynamic instruction counts, body statistics) lives beside
    them as [.meta] blobs keyed by {!Run_spec.kernel_digest}.

    A blob is a [Marshal]led header [(magic, version, ocaml-version)]
    followed by an MD5 checksum of the marshalled payload and the
    payload itself.  Reads distinguish three non-hit cases and count
    them separately: {e absent} (no file — a plain miss), {e stale} (a
    well-formed blob from another cache version or compiler — also a
    miss), and {e corrupt} (unparseable header, torn payload, or a
    checksum mismatch).  Corrupt files are quarantined to
    [dir/quarantine/] — moved aside for post-mortem rather than
    silently re-read or deleted — and never crash a sweep.

    Writes go to a unique temporary file and are [rename]d into place,
    so concurrent workers (and concurrent processes) race safely;
    directory creation tolerates [EEXIST]; {!reap_tmp} sweeps out
    orphaned temp files a killed writer left behind.  An optional
    {!Chaos} plan injects read errors and post-store corruption for
    integrity testing. *)

type t = {
  dir : string;
  version : int;
  vdir : string;                  (* [dir/v<version>], formatted once *)
  chaos : Chaos.t option;
  limit_bytes : int option;       (* size bound (reap_over_limit) *)
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;      (* absent or stale — simply not usable *)
  mutable corrupt : int;     (* integrity failures, quarantined *)
  mutable stores : int;
  mutable evictions : int;   (* blobs this handle deleted for space *)
}

let magic = "XLOOPS-CACHE"

(** Bump when the marshalled payload layout changes ({!Run_spec.run_data},
    [Stats.t], [Config.t] or the energy breakdown) — v2 added the
    payload checksum. *)
let current_version = 2

let default_dir = "_xloops_cache"

let quarantine_subdir = "quarantine"

(* Race-safe mkdir -p: concurrent workers may all attempt creation on
   first store; every failure mode is re-checked against the directory
   actually existing. *)
let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755
    with Sys_error _ when Sys.file_exists d -> ()
  end

let create ?(version = current_version) ?(dir = default_dir) ?chaos
    ?limit_bytes () =
  { dir; version; vdir = Filename.concat dir ("v" ^ string_of_int version);
    chaos; limit_bytes; mu = Mutex.create ();
    hits = 0; misses = 0; corrupt = 0; stores = 0; evictions = 0 }

let chaos cache = cache.chaos

let counted cache f =
  Mutex.lock cache.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.mu) f

(* [vdir/kk/<key><suffix>]: on every lookup, so nothing is formatted. *)
let path cache ~key ~suffix =
  String.concat Filename.dir_sep
    [ cache.vdir; Digest_hex.shard key; Digest_hex.to_hex key ^ suffix ]

let quarantine_dir cache = Filename.concat cache.dir quarantine_subdir

(* Move a corrupt blob aside for post-mortem.  Failure to quarantine
   (e.g. a concurrent reader already moved it) must never break the
   read path — the blob already reads as a miss. *)
let quarantine cache p =
  try
    let qdir = quarantine_dir cache in
    mkdir_p qdir;
    Sys.rename p (Filename.concat qdir (Filename.basename p))
  with Sys_error _ -> ()

(* The rest of [fd].  Not through an [in_channel]: each channel is a
   malloc'd 64 KiB buffer in a custom block whose declared size forces
   collections.  A one-worker [xloops_serve] answering warm hits ran a
   minor collection every ~2.4 batches that way, each a stop-the-world
   across its domains, and a lookup took 42 µs there against 9 µs
   this way (2-vCPU x86 host).  Raises [Unix.Unix_error] if a read
   fails. *)
let read_fd fd =
  let n = (Unix.fstat fd).Unix.st_size in
  let b = Bytes.create n in
  let rec fill o =
    if o = n then b
    else
      match Unix.read fd b o (n - o) with
      | 0 -> Bytes.sub b 0 o
      | k -> fill (o + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill o
  in
  fill 0

(* The marshalled value at [!pos] in [b], advancing [pos] past it;
   [End_of_file] if [b] ends first, as [Marshal.from_channel] would. *)
let unmarshal_next b pos =
  if !pos > Bytes.length b - Marshal.header_size then raise End_of_file;
  let size = Marshal.total_size b !pos in
  if size > Bytes.length b - !pos then raise End_of_file;
  let v = Marshal.from_bytes b !pos in
  pos := !pos + size;
  v

(* The verified [MD5 ++ Marshal body] of the blob at [key], or why
   there is none.  The body is not decoded here: callers that want the
   value run [Marshal.from_string s 16], and the service forwards the
   bytes as they are (this is the layout of a [Result] frame's
   payload). *)
let read_blob cache ~key ~suffix =
  let p = path cache ~key ~suffix in
  match Unix.openfile p [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> `Absent
  | fd ->
    let verdict =
      (* Narrow catches only: a bare [_] here once masked
         [Out_of_memory] and [Stack_overflow] as cache misses.  The
         three below are exactly what a torn or rotten blob can
         raise ([Marshal] signals corruption as [Failure]). *)
      try
        let b =
          Fun.protect
            ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> read_fd fd)
        in
        let pos = ref 0 in
        let (m, v, ocaml) : string * int * string = unmarshal_next b pos in
        if m <> magic then `Corrupt
        else if v <> cache.version || ocaml <> Sys.ocaml_version then
          `Stale
        else begin
          let sum : Digest.t = unmarshal_next b pos in
          let payload : string = unmarshal_next b pos in
          if Digest.string payload <> sum then `Corrupt
          else `Hit (sum ^ payload)
        end
      with End_of_file | Stdlib.Failure _ | Unix.Unix_error _ -> `Corrupt
    in
    (match verdict with `Corrupt -> quarantine cache p | _ -> ());
    verdict

(* [s] to [fd] whole, retrying short writes and EINTR. *)
let write_all fd s =
  let n = String.length s in
  let rec go o =
    if o < n then
      match Unix.write_substring fd s o (n - o) with
      | k -> go (o + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go o
  in
  go 0

(* Not through an [out_channel], for the reason [read_fd] gives: each
   channel mallocs a 64 KiB buffer.  The bytes are those
   [Marshal.to_channel] wrote for the header, checksum and body, so
   caches written either way read alike.  A failed open or write is a
   [Sys_error], as it was through a channel, so the retry policy still
   classifies it as transient I/O. *)
let write_blob cache ~key ~suffix payload =
  let p = path cache ~key ~suffix in
  mkdir_p (Filename.dirname p);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" p (Unix.getpid ())
      (Domain.self () :> int)
  in
  let body = Marshal.to_string payload [] in
  let blob =
    String.concat ""
      [ Marshal.to_string (magic, cache.version, Sys.ocaml_version) [];
        Marshal.to_string (Digest.string body) [];
        Marshal.to_string body [] ]
  in
  let io_error e =
    Sys_error (Printf.sprintf "%s: %s" tmp (Unix.error_message e)) in
  let fd =
    try
      Unix.openfile tmp
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o666
    with Unix.Unix_error (e, _, _) -> raise (io_error e)
  in
  (try write_all fd blob; Unix.close fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise (match e with Unix.Unix_error (e, _, _) -> io_error e | e -> e));
  Sys.rename tmp p;
  (* Chaos: rot the blob at rest, after the rename — the next reader
     must detect it, quarantine it, and re-simulate. *)
  match cache.chaos with
  | Some c -> Chaos.after_store c p
  | None -> ()

(* The chaos draw comes first: an injected read error is a miss that
   never touches the disk. *)
let find_bytes cache ~key ~suffix =
  let verdict =
    match cache.chaos with
    | Some c when Chaos.read_error c -> `Absent
    | Some _ | None -> read_blob cache ~key ~suffix
  in
  counted cache (fun () ->
      match verdict with
      | `Hit _ -> cache.hits <- cache.hits + 1
      | `Absent | `Stale -> cache.misses <- cache.misses + 1
      | `Corrupt -> cache.corrupt <- cache.corrupt + 1);
  match verdict with
  | `Hit s -> Some s
  | `Absent | `Stale | `Corrupt -> None

(* Unsafe generic unmarshal; the monomorphic wrappers below pin the
   payload type to the suffix that wrote it.  The body's MD5 was
   checked before this runs. *)
let find cache ~key ~suffix =
  Option.map (fun s -> Marshal.from_string s 16)
    (find_bytes cache ~key ~suffix)

let find_run cache ~key : Run_spec.run_data option =
  find cache ~key ~suffix:".run"

let find_run_bytes cache ~key = find_bytes cache ~key ~suffix:".run"

let store_run cache ~key (rd : Run_spec.run_data) =
  write_blob cache ~key ~suffix:".run" rd;
  counted cache (fun () -> cache.stores <- cache.stores + 1)

let find_meta cache ~key : int array option =
  find cache ~key ~suffix:".meta"

let store_meta cache ~key (m : int array) =
  write_blob cache ~key ~suffix:".meta" m;
  counted cache (fun () -> cache.stores <- cache.stores + 1)

(* -- Startup hygiene ----------------------------------------------------- *)

let is_tmp_name name =
  (* <key><suffix>.tmp.<pid>.<domain> *)
  let rec find_sub i =
    i + 5 <= String.length name
    && (String.sub name i 5 = ".tmp." || find_sub (i + 1))
  in
  find_sub 0

(** Remove orphaned [*.tmp.*] files a killed writer left under this
    cache version's tree; returns how many were reaped.  Safe to run
    concurrently with readers (temp files are never read) but meant for
    startup, before workers start writing. *)
let reap_tmp cache =
  let reaped = ref 0 in
  let vdir = cache.vdir in
  if Sys.file_exists vdir && Sys.is_directory vdir then
    Array.iter
      (fun shard ->
         let sdir = Filename.concat vdir shard in
         if Sys.is_directory sdir then
           Array.iter
             (fun name ->
                if is_tmp_name name then begin
                  (try Sys.remove (Filename.concat sdir name)
                   with Sys_error _ -> ());
                  incr reaped
                end)
             (Sys.readdir sdir))
      (Sys.readdir vdir);
  !reaped

(** Bound the cache directory: when the version tree holds more blob
    bytes than [limit_bytes], delete the least-recently-written blobs
    (there is no access record, so write age is the recency signal;
    ties go to the earlier-listed blob) until back under the limit.
    Returns how many blobs were removed.  No-op when no limit was
    configured. *)
let reap_over_limit cache =
  match cache.limit_bytes with
  | None -> 0
  | Some limit ->
    let vdir = cache.vdir in
    if not (Sys.file_exists vdir && Sys.is_directory vdir) then 0
    else begin
      let blobs = ref [] in
      let total = ref 0 in
      Array.iter
        (fun shard ->
           let sdir = Filename.concat vdir shard in
           if Sys.is_directory sdir then
             Array.iter
               (fun name ->
                  if not (is_tmp_name name) then begin
                    let p = Filename.concat sdir name in
                    match Unix.stat p with
                    | exception Unix.Unix_error _ -> ()
                    | st ->
                      total := !total + st.Unix.st_size;
                      blobs :=
                        (p, st.Unix.st_size, st.Unix.st_mtime) :: !blobs
                  end)
               (Sys.readdir sdir))
        (Array.of_list (List.sort compare
                          (Array.to_list (Sys.readdir vdir))));
      if !total <= limit then 0
      else begin
        let excess = !total - limit in
        let oldest_first =
          List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
            (List.rev !blobs)
        in
        let freed = ref 0 and n = ref 0 in
        List.iter
          (fun (p, size, _) ->
             if !freed < excess then begin
               (try Sys.remove p with Sys_error _ -> ());
               freed := !freed + size;
               incr n
             end)
          oldest_first;
        counted cache (fun () -> cache.evictions <- cache.evictions + !n);
        !n
      end
    end

let quarantined cache =
  let qdir = quarantine_dir cache in
  if Sys.file_exists qdir && Sys.is_directory qdir
  then Array.length (Sys.readdir qdir)
  else 0

let hits c = counted c (fun () -> c.hits)
let misses c = counted c (fun () -> c.misses)
let corrupt c = counted c (fun () -> c.corrupt)
let stores c = counted c (fun () -> c.stores)
let evictions c = counted c (fun () -> c.evictions)

let pp_counters ppf c =
  Fmt.pf ppf
    "%d hit(s), %d miss(es), %d corrupt, %d store(s) under %s (v%d)"
    (hits c) (misses c) (corrupt c) (stores c) c.dir c.version
