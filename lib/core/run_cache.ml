(** Content-addressed on-disk result cache.

    Every blob lives in one append-only file per cache version and
    OCaml version, [dir/v<version>/pack-<ocaml-version>] ([Marshal]'s
    format is only promised within one compiler).  A store appends one
    framed record:

    {v "XLPK" tag len:u32be key:32-hex | blob | len:u32be "kplx" v}

    [tag] is ['R'] for a result, keyed by {!Run_spec.cache_key} (digest
    of canonical spec encoding + compiled program bytes), or ['M'] for
    kernel metadata (dynamic instruction counts, body statistics), keyed
    by {!Run_spec.kernel_digest}.  The lower-case tag is a tombstone
    whose 8-byte blob is the offset of the record it retires.

    A blob is sealed ({!seal}): the MD5 of a [Marshal]led value, then
    those bytes.  Reads tell three outcomes apart: {e hit}, {e absent}
    (no record) and {e corrupt} (a checksum mismatch — copied to
    [dir/quarantine/] and tombstoned); the checksum is compared before
    anything is unmarshalled.  Each record is one [write] on an
    [O_APPEND] descriptor, so concurrent workers and processes append
    whole records. *)

type t = {
  dir : string;
  version : int;
  pack : string;                  (* [dir/v<version>/pack-<ocaml>] *)
  chaos : Chaos.t option;
  limit_bytes : int option;       (* size bound (reap_over_limit) *)
  mu : Mutex.t;                   (* guards every field below *)
  mutable fd : Unix.file_descr option;  (* the pack, read + append *)
  mutable ino : int;              (* [fd]'s inode: a replaced pack reopens *)
  mutable scanned : int;          (* pack bytes indexed so far *)
  index : (Digest_hex.t * char, int * int) Hashtbl.t;
  (* live record (key, tag) → its blob's offset and length *)
  mutable hits : int;
  mutable misses : int;      (* absent, or a chaos read error *)
  mutable corrupt : int;     (* integrity failures, quarantined *)
  mutable stores : int;
  mutable evictions : int;   (* records this handle dropped for space *)
}

(** Bump when the marshalled payload layout changes ({!Run_spec.run_data},
    [Stats.t], [Config.t] or the energy breakdown) or the file layout
    does — v2 added the payload checksum, v3 the pack, v4 the sealed
    blob and the OCaml version in the pack's name. *)
let current_version = 4

let default_dir = "_xloops_cache"

let quarantine_subdir = "quarantine"

(* No suffix of a tail is a prefix of a head: a tail cut short and
   followed by the next record's head must not read as whole. *)
let head_magic = "XLPK" and tail_magic = "kplx"
let head_len = 41 and tail_len = 8

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

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create ?(version = current_version) ?(dir = default_dir) ?chaos
    ?limit_bytes () =
  let vdir = Filename.concat dir ("v" ^ string_of_int version) in
  let cache =
    { dir; version; pack = Filename.concat vdir ("pack-" ^ Sys.ocaml_version);
      chaos; limit_bytes; mu = Mutex.create (); fd = None; ino = 0; scanned = 0;
      index = Hashtbl.create 256;
      hits = 0; misses = 0; corrupt = 0; stores = 0; evictions = 0 }
  in
  (* A dropped handle must not keep its pack open: a sweep that creates
     a handle per pass over a directory it deletes in between would
     otherwise hold every deleted pack.  Every use of [fd] is under
     [locked], which keeps the handle reachable. *)
  Gc.finalise (fun c -> Option.iter close_fd c.fd) cache;
  cache

let chaos cache = cache.chaos

let locked cache f =
  Mutex.lock cache.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache.mu) f

let quarantine_dir cache = Filename.concat cache.dir quarantine_subdir

(* Up to [n] bytes of [fd] from offset [pos] into [b] at [o]; fewer only
   at end of file.  Not through an [in_channel]: each channel is a
   malloc'd 64 KiB buffer in a custom block whose declared size forces
   collections.  A one-worker [xloops_serve] answering warm hits ran a
   minor collection every ~2.4 batches that way, each a stop-the-world
   across its domains, and a lookup took 42 µs there against 9 µs
   this way (2-vCPU x86 host).  Raises [Unix.Unix_error] if a read
   fails. *)
let read_at fd pos b o n =
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let rec fill k =
    if k = n then k
    else
      match Unix.read fd b (o + k) (n - k) with
      | 0 -> k
      | r -> fill (k + r)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill k
  in
  fill 0

(* -- The index (all under [mu]) ------------------------------------------ *)

let close_pack cache =
  Option.iter close_fd cache.fd;
  cache.fd <- None;
  cache.scanned <- 0;
  Hashtbl.reset cache.index

let open_pack cache flags =
  let fd =
    Unix.openfile cache.pack
      (Unix.O_RDWR :: Unix.O_APPEND :: Unix.O_CLOEXEC :: flags) 0o644 in
  cache.fd <- Some fd;
  cache.ino <- (Unix.fstat fd).Unix.st_ino;
  fd

(* Index the records in [scanned, size).  A frame whose head does not
   parse, or whose tail does not repeat its length, was torn by a
   killed writer: the scan steps one byte on, to the next head.  So
   does a frame that runs past the end of the pack, but it is
   remembered as [open_at]: appends to one file do not interleave, so
   it is torn if a whole frame follows it, and otherwise it may still
   be being written, and the next scan starts there.  The bytes are
   read in chunks of 8 KiB, or one frame if that is longer; only the
   index outlives the scan. *)
let scan cache fd size =
  let buf = ref (Bytes.create (min 8192 (size - cache.scanned))) in
  let base = ref cache.scanned and fill = ref 0 in
  (* Whether [!buf], holding the pack's [base, base + fill), can be
     made to hold [o, o + n). *)
  let have o n =
    o + n <= !base + !fill
    || o + n <= size
       && begin
         let keep = max 0 (!base + !fill - o) in
         let b = if n > Bytes.length !buf then Bytes.create n else !buf in
         if keep > 0 then Bytes.blit !buf (o - !base) b 0 keep;
         buf := b;
         base := o;
         fill := keep + read_at fd (o + keep) b keep
                   (min (Bytes.length b) (size - o) - keep);
         o + n <= !base + !fill
       end
  in
  let is s o = Bytes.sub_string !buf (o - !base) 4 = s in
  let u32 o =
    Int32.to_int (Bytes.get_int32_be !buf (o - !base)) land 0xFFFF_FFFF in
  let rec go o open_at =
    if not (have o head_len) then Option.value open_at ~default:o
    else if not (is head_magic o) then go (o + 1) open_at
    else
      let tag = Bytes.get !buf (o - !base + 4) and len = u32 (o + 5) in
      match Digest_hex.of_hex (Bytes.sub_string !buf (o - !base + 9) 32) with
      | Error _ -> go (o + 1) open_at
      | Ok key ->
        let t = o + head_len + len in
        if not (have o (head_len + len + tail_len)) then
          go (o + 1) (if open_at = None then Some o else open_at)
        else if u32 t <> len || not (is tail_magic (t + 4)) then
          go (o + 1) open_at
        else begin
          (match tag with
           | 'R' | 'M' ->
             Hashtbl.replace cache.index (key, tag) (t - len, len)
           | 'r' | 'm' when len = 8 ->
             let k = (key, Char.uppercase_ascii tag) in
             let dead = Bytes.get_int64_be !buf (t - 8 - !base) in
             (match Hashtbl.find_opt cache.index k with
              | Some (p, _) when Int64.of_int p = dead ->
                Hashtbl.remove cache.index k
              | _ -> ())
           | _ -> ());
          go (t + tail_len) None
        end
  in
  cache.scanned <- go cache.scanned None

(* Bring the index up to the pack on disk: forget a pack that is gone,
   reopen one that was replaced, and index what was appended since the
   last look. *)
let refresh cache =
  match Unix.stat cache.pack with
  | exception Unix.Unix_error _ -> close_pack cache
  | st ->
    match
      match cache.fd with
      | Some fd when cache.ino = st.Unix.st_ino -> fd
      | _ -> close_pack cache; open_pack cache []
    with
    | exception Unix.Unix_error _ -> close_pack cache
    | fd -> if st.Unix.st_size > cache.scanned then scan cache fd st.st_size

(* The live record of [(key, tag)]: from the index, or from the pack's
   tail on an index miss. *)
let locate cache key tag =
  match Hashtbl.find_opt cache.index (key, tag) with
  | Some _ as span -> span
  | None -> refresh cache; Hashtbl.find_opt cache.index (key, tag)

(* One framed record, appended by a single [write]; returns its blob's
   offset.  A record this handle appends right after what it has
   indexed extends the index without a re-scan. *)
let append cache tag key blob =
  let fd =
    match cache.fd with
    | Some fd -> fd
    | None ->
      mkdir_p (Filename.dirname cache.pack);
      open_pack cache [ Unix.O_CREAT ]
  in
  let len = String.length blob in
  let u32 = Bytes.create 4 in
  Bytes.set_int32_be u32 0 (Int32.of_int len);
  let u32 = Bytes.unsafe_to_string u32 in
  let r = String.concat "" [ head_magic; String.make 1 tag; u32;
                             Digest_hex.to_hex key; blob; u32; tail_magic ] in
  let n = String.length r in
  ignore (Unix.write_substring fd r 0 n);
  let o = Unix.lseek fd 0 Unix.SEEK_CUR - n in
  if cache.scanned = o then cache.scanned <- o + n;
  o + head_len

(* -- Reads and stores ---------------------------------------------------- *)

let seal v =
  let body = Marshal.to_string v [] in
  Digest.string body ^ body

(* The MD5 in [s]'s first 16 bytes sums the rest, compared in place. *)
let sealed_ok s =
  let n = String.length s in
  n >= 16
  && (let sum = Digest.substring s 16 (n - 16) in
      let rec eq i = i = 16 || (sum.[i] = s.[i] && eq (i + 1)) in
      eq 0)

(* Count a corrupt blob, copy it aside for post-mortem and tombstone
   its record, so that no handle reads it again.  Failing at either
   must never break the read path: the blob already reads as corrupt. *)
let quarantine cache key tag pos s =
  (try
     let qdir = quarantine_dir cache in
     mkdir_p qdir;
     Out_channel.with_open_bin
       (Filename.concat qdir
          (Digest_hex.to_hex key ^ if tag = 'R' then ".run" else ".meta"))
       (fun oc -> Out_channel.output_string oc s)
   with Sys_error _ -> ());
  locked cache @@ fun () ->
  cache.corrupt <- cache.corrupt + 1;
  (match Hashtbl.find_opt cache.index (key, tag) with
   | Some (p, _) when p = pos -> Hashtbl.remove cache.index (key, tag)
   | _ -> ());
  let dead = Bytes.create 8 in
  Bytes.set_int64_be dead 0 (Int64.of_int pos);
  try
    ignore (append cache (Char.lowercase_ascii tag) key
              (Bytes.unsafe_to_string dead))
  with Sys_error _ | Unix.Unix_error _ -> ()

(* A failed write is a [Sys_error], so the retry policy classifies it
   as transient I/O. *)
let store cache ~key ~tag payload =
  let blob = seal payload in
  let len = String.length blob in
  let pos =
    try
      locked cache @@ fun () ->
      let pos = append cache tag key blob in
      Hashtbl.replace cache.index (key, tag) (pos, len);
      cache.stores <- cache.stores + 1;
      pos
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (cache.pack ^ ": " ^ Unix.error_message e))
  in
  (* Chaos: rot the blob at rest, after the append — the next reader
     must detect it, quarantine it, and re-simulate. *)
  Option.iter (fun c -> Chaos.after_store c cache.pack ~pos ~len)
    cache.chaos

(* The sealed bytes of [key]'s blob, returned as read once their MD5
   matches; a blob that fails it is quarantined.  They are not
   unmarshalled here: callers that want the value run
   [Marshal.from_string s 16], and the service forwards the bytes as
   they are (a [Result] frame's payload).  The chaos draw comes first:
   an injected read error is a miss that never touches the disk. *)
let find_bytes cache ~key ~tag =
  let read =
    match cache.chaos with
    | Some c when Chaos.read_error c -> None
    | Some _ | None ->
      locked cache @@ fun () ->
      let span = locate cache key tag in
      match span, cache.fd with
      | Some (pos, len), Some fd ->
        let b = Bytes.create len in
        let n = try read_at fd pos b 0 len with Unix.Unix_error _ -> 0 in
        Some (pos, Bytes.unsafe_to_string
                     (if n = len then b else Bytes.sub b 0 n))
      | _ -> None
  in
  match read with
  | Some (_, s) when sealed_ok s ->
    locked cache (fun () -> cache.hits <- cache.hits + 1);
    Some s
  | Some (pos, s) -> quarantine cache key tag pos s; None
  | None -> locked cache (fun () -> cache.misses <- cache.misses + 1); None

(* Unsafe generic unmarshal; the monomorphic wrappers below pin the
   payload type to the tag that wrote it.  [find_bytes] returns only
   bytes whose MD5 matched. *)
let find cache ~key ~tag =
  Option.map (fun s -> Marshal.from_string s 16)
    (find_bytes cache ~key ~tag)

let find_run cache ~key : Run_spec.run_data option =
  find cache ~key ~tag:'R'

let find_run_bytes cache ~key = find_bytes cache ~key ~tag:'R'

let store_run cache ~key (rd : Run_spec.run_data) =
  store cache ~key ~tag:'R' rd

let find_meta cache ~key : int array option = find cache ~key ~tag:'M'

let store_meta cache ~key (m : int array) = store cache ~key ~tag:'M' m

let blob_span cache ~key =
  locked cache @@ fun () ->
  Option.map (fun (pos, len) -> (cache.pack, pos, len)) (locate cache key 'R')

(* -- Startup hygiene ----------------------------------------------------- *)

let reap_tmp cache =
  let vdir = Filename.dirname cache.pack
  and prefix = Filename.basename cache.pack ^ ".tmp." in
  match Sys.readdir vdir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun n name ->
         if String.starts_with ~prefix name then begin
           (try Sys.remove (Filename.concat vdir name)
            with Sys_error _ -> ());
           n + 1
         end else n)
      0 names

(* Keep the newest live records that fit in [limit_bytes], frames
   included, and drop the rest with every retired record: the pack is
   rewritten to a temp file, which is renamed over it. *)
let reap_over_limit cache =
  match cache.limit_bytes with
  | None -> 0
  | Some limit ->
    locked cache @@ fun () ->
    refresh cache;
    match cache.fd with
    | Some fd when (Unix.fstat fd).Unix.st_size > limit ->
      let frame (_, (_, len)) = head_len + len + tail_len in
      let rec keep room kept = function
        | r :: older when frame r <= room ->
          keep (room - frame r) (r :: kept) older
        | older -> (kept, List.length older)
      in
      let kept, dropped =
        keep limit []
          (List.sort (fun (_, (a, _)) (_, (b, _)) -> Int.compare b a)
             (List.of_seq (Hashtbl.to_seq cache.index)))
      in
      let tmp = Printf.sprintf "%s.tmp.%d" cache.pack (Unix.getpid ()) in
      Out_channel.with_open_bin tmp (fun oc ->
          List.iter
            (fun ((_, (pos, _)) as r) ->
               let b = Bytes.create (frame r) in
               Out_channel.output oc b 0 (read_at fd (pos - head_len) b 0
                                            (frame r)))
            kept);
      Sys.rename tmp cache.pack;
      close_pack cache;
      cache.evictions <- cache.evictions + dropped;
      dropped
    | _ -> 0

let quarantined cache =
  let qdir = quarantine_dir cache in
  if Sys.file_exists qdir && Sys.is_directory qdir
  then Array.length (Sys.readdir qdir)
  else 0

let hits c = locked c (fun () -> c.hits)
let misses c = locked c (fun () -> c.misses)
let corrupt c = locked c (fun () -> c.corrupt)
let stores c = locked c (fun () -> c.stores)
let evictions c = locked c (fun () -> c.evictions)

let pp_counters ppf c =
  Fmt.pf ppf
    "%d hit(s), %d miss(es), %d corrupt, %d store(s) under %s (v%d)"
    (hits c) (misses c) (corrupt c) (stores c) c.dir c.version
