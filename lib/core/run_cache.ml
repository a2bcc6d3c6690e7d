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
  { dir; version; chaos; limit_bytes; mu = Mutex.create ();
    hits = 0; misses = 0; corrupt = 0; stores = 0; evictions = 0 }

let counted cache f =
  Mutex.lock cache.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.mu) f

let version_dir cache =
  Filename.concat cache.dir (Printf.sprintf "v%d" cache.version)

let path cache ~key ~suffix =
  List.fold_left Filename.concat (version_dir cache)
    [ Digest_hex.shard key; Digest_hex.to_hex key ^ suffix ]

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

(* Unsafe generic blob IO; the monomorphic wrappers below pin the payload
   type to the suffix that wrote it. *)
let read_blob cache ~key ~suffix =
  let p = path cache ~key ~suffix in
  let injected_error =
    match cache.chaos with Some c -> Chaos.read_error c | None -> false in
  if injected_error then `Absent
  else
    match open_in_bin p with
    | exception Sys_error _ -> `Absent
    | ic ->
      let verdict =
        Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
        (* Narrow catches only: a bare [_] here once masked
           [Out_of_memory] and [Stack_overflow] as cache misses.  The
           three below are exactly what a torn or rotten blob can
           raise ([Marshal] signals corruption as [Failure]). *)
        try
          let (m, v, ocaml) : string * int * string =
            Marshal.from_channel ic in
          if m <> magic then `Corrupt
          else if v <> cache.version || ocaml <> Sys.ocaml_version then
            `Stale
          else begin
            let sum : Digest.t = Marshal.from_channel ic in
            let payload : string = Marshal.from_channel ic in
            if Digest.string payload <> sum then `Corrupt
            else `Hit (Marshal.from_string payload 0)
          end
        with End_of_file | Stdlib.Failure _ | Sys_error _ -> `Corrupt
      in
      (match verdict with `Corrupt -> quarantine cache p | _ -> ());
      verdict

let write_blob cache ~key ~suffix payload =
  let p = path cache ~key ~suffix in
  mkdir_p (Filename.dirname p);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" p (Unix.getpid ())
      (Domain.self () :> int)
  in
  let oc = open_out_bin tmp in
  (try
     let body = Marshal.to_string payload [] in
     Marshal.to_channel oc (magic, cache.version, Sys.ocaml_version) [];
     Marshal.to_channel oc (Digest.string body) [];
     Marshal.to_channel oc body [];
     close_out oc
   with e -> close_out_noerr oc; (try Sys.remove tmp with _ -> ()); raise e);
  Sys.rename tmp p;
  (* Chaos: rot the blob at rest, after the rename — the next reader
     must detect it, quarantine it, and re-simulate. *)
  match cache.chaos with
  | Some c -> Chaos.after_store c p
  | None -> ()

let find cache ~key ~suffix =
  let verdict = read_blob cache ~key ~suffix in
  counted cache (fun () ->
      match verdict with
      | `Hit _ -> cache.hits <- cache.hits + 1
      | `Absent | `Stale -> cache.misses <- cache.misses + 1
      | `Corrupt -> cache.corrupt <- cache.corrupt + 1);
  match verdict with `Hit v -> Some v | `Absent | `Stale | `Corrupt -> None

let find_run cache ~key : Run_spec.run_data option =
  find cache ~key ~suffix:".run"

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
  let vdir = version_dir cache in
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
    let vdir = version_dir cache in
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
