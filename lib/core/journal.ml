(** Crash-safe sweep journal: an append-only record of which spec
    digests a sweep has completed, so a killed sweep restarts from where
    it left off instead of forfeiting its uncached progress.

    Format: one header line ([XLOOPS-JOURNAL 1]) then one 32-hex-char
    {!Run_spec.digest} per line.  A fresh journal is created atomically
    (unique temp file, rename); each record is one short [write] made
    before the spec counts as done, so it is in the kernel's page cache
    when the call returns and survives a killed process ([kill -9]).
    Nothing is fsync'd: after an OS crash or power loss the newest
    records may be lost, and [--resume] re-simulates those specs, just
    as the result cache's pack can lose its newest records.  A crash
    mid-append leaves at worst one torn final line, which {!load}
    ignores and a resuming {!start} repairs (terminates with a newline)
    before appending anything new.

    The journal records {e completion}, not results: results live in the
    content-addressed {!Run_cache}.  The two compose — on resume, the
    journal says which specs to skip, and the cache serves their data to
    the assembly phase. *)

let header = "XLOOPS-JOURNAL 1"

let default_name = "sweep.journal"

type t = {
  path : string;
  fd : Unix.file_descr;
  mu : Mutex.t;
  members : (string, unit) Hashtbl.t;
  preloaded : int;            (* entries present before this session *)
  mutable recorded : int;     (* entries appended by this session *)
}

(** Digests recorded in the journal at [path] ([[]] if absent).  A bad
    header means "not our file" — treated as empty rather than trusted.
    Torn or malformed lines (a crash mid-append) are skipped —
    {!Digest_hex.of_hex} is the validator. *)
let load path =
  match open_in_bin path with
  | exception Sys_error _ -> []
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    (match input_line ic with
     | exception End_of_file -> []
     | h when h <> header -> []
     | _ ->
       let rec go acc =
         match input_line ic with
         | exception End_of_file -> List.rev acc
         | line ->
           go (match Digest_hex.of_hex line with
               | Ok d -> d :: acc
               | Error _ -> acc)
       in
       go [])

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Sys.mkdir d 0o755
    with Sys_error _ when Sys.file_exists d -> ()
  end

(* Atomic fresh creation: header to a unique temp file, then rename. *)
let create_fresh path =
  mkdir_p (Filename.dirname path);
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let line = Bytes.of_string (header ^ "\n") in
  ignore (Unix.write fd line 0 (Bytes.length line));
  Unix.close fd;
  Sys.rename tmp path

(* Repair a torn tail left by a crash mid-append: if the file does not
   end in a newline, terminate the partial line so the next append
   starts clean (load already ignores the malformed line). *)
let repair_tail path =
  let fd = Unix.openfile path [ O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  let len = Unix.lseek fd 0 Unix.SEEK_END in
  if len > 0 then begin
    ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
    let last = Bytes.create 1 in
    if Unix.read fd last 0 1 = 1 && Bytes.get last 0 <> '\n' then
      ignore (Unix.write fd (Bytes.of_string "\n") 0 1)
  end

(** Open the journal at [path].  With [resume:true] existing entries are
    kept (and a torn tail repaired); otherwise any previous journal is
    atomically replaced by an empty one. *)
let start ?(resume = false) path =
  let existing =
    if resume then begin
      if Sys.file_exists path then repair_tail path;
      load path
    end else []
  in
  if not (resume && Sys.file_exists path) then create_fresh path;
  let fd = Unix.openfile path [ O_WRONLY; O_APPEND ] 0o644 in
  let members = Hashtbl.create (List.length existing * 2 + 16) in
  List.iter
    (fun d -> Hashtbl.replace members (Digest_hex.to_hex d) ()) existing;
  { path; fd; mu = Mutex.create (); members;
    preloaded = Hashtbl.length members; recorded = 0 }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(** Record [digest] as completed: one append (a single [write]), which
    survives the process being killed but not an OS crash.  Recording a
    digest twice is harmless (the journal is a set). *)
let record t digest =
  let hex = Digest_hex.to_hex digest in
  locked t @@ fun () ->
  if not (Hashtbl.mem t.members hex) then begin
    let line = Bytes.of_string (hex ^ "\n") in
    ignore (Unix.write t.fd line 0 (Bytes.length line));
    Hashtbl.replace t.members hex ();
    t.recorded <- t.recorded + 1
  end

let member t digest =
  locked t (fun () -> Hashtbl.mem t.members (Digest_hex.to_hex digest))
let count t = locked t (fun () -> Hashtbl.length t.members)
let preloaded t = t.preloaded
let recorded t = locked t (fun () -> t.recorded)
let path t = t.path

let close t = locked t (fun () -> try Unix.close t.fd with _ -> ())

let pp_counters ppf t =
  Fmt.pf ppf "%d resumed + %d recorded under %s"
    (preloaded t) (recorded t) t.path
