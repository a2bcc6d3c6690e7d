(* The spec-batch daemon.  See server.mli for the architecture contract.

   Locking discipline: [t.mu] guards the queue, the in-flight table,
   the answer table, the connection list and every counter; each
   connection's [c_wmu] guards its output channel.  [t.mu] is never held
   across a frame write or a flush, and [c_wmu] is never acquired while
   holding [t.mu] — so a slow or dead client can never stall admission
   or the workers.

   The answer table maps the exact spelling a spec arrived as to the
   answer a verified disk hit gave it: its digest and the blob.  The
   reader thread looks up every spelling of a [SUBMIT] under one [t.mu]
   hold, before anything decodes it, and writes the hits' frames itself
   after admission: no decode, no MD5, no queue, no worker, no disk.
   Only the other spellings are decoded (a malformed one rejects the
   whole batch) and become jobs, keyed inside their retry policy, so a
   key that raises (an unknown kernel) fails its job alone.  A worker
   fills the table, in the hold that retires the job, when the cache
   returned a verified disk hit; a store never fills it, so a blob that
   rots after its store is read, caught and quarantined by the next
   job.  Without a cache, or with a chaos plan on the daemon or on its
   cache handle, nothing fills it: every spec then runs as a job, so the
   plan's draws and the retry policy see every lookup.  The table holds
   at most [answer_limit] answers; an insert past it empties it first.

   Flush rule: a worker writes [Result] frames unflushed and flushes
   every connection it wrote to before it does anything that can
   block — waiting on an empty queue, a chaos hook, a simulation — so
   a batch of cache hits leaves in one socket write and a batch that
   simulates still streams.  The reader flushes the answers it wrote
   before it reads again: an all-hit batch's [Result] frames and its
   [Batch_done] leave in one write.  Every other frame is flushed at
   once.

   [stop] lets the workers drain the queue and flush what they owe
   before it shuts any client's socket, so a batch admitted before
   [stop] is answered whole. *)

module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Failure = Xloops.Failure
module Chaos = Xloops.Chaos
module Digest_hex = Xloops.Digest_hex
module P = Protocol

type config = {
  addr : P.addr;
  workers : int;
  max_queue : int;
  cache : Run_cache.t option;
  chaos : Chaos.t option;
  default_deadline_ms : int option;
  default_max_retries : int;
  banner : string;
  verbose : bool;
}

let config ~addr ?(workers = 1) ?(max_queue = 256) ?cache ?chaos
    ?deadline_ms ?(max_retries = 0) ?(banner = "xloops") ?(verbose = false)
    () =
  if workers < 1 then invalid_arg "Server.config: workers must be >= 1";
  if max_queue < 1 then invalid_arg "Server.config: max_queue must be >= 1";
  { addr; workers; max_queue; cache; chaos;
    default_deadline_ms = deadline_ms; default_max_retries = max_retries;
    banner; verbose }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  c_oc : out_channel;
  c_wmu : Mutex.t;
  mutable c_alive : bool;
  mutable c_pending : int;   (* results still owed for the current batch *)
  mutable c_batch : int;     (* size of the current batch *)
}

type waiter = { w_conn : conn; w_index : int }

type job = {
  j_digest : Digest_hex.t;
  j_spec : Run_spec.Encoded.t;  (* the bytes it arrived as *)
  j_deadline_ms : int option;
  j_max_retries : int;
  mutable j_waiters : waiter list;
}

(* Busy time is summed in ns and turned into ms only for STATS: a
   per-job ms count would floor every sub-ms job to 0. *)
type wstat = { mutable ws_jobs : int; mutable ws_busy_ns : int }

(* What a verified disk hit answered for a spelling. *)
type answer = { a_digest : Digest_hex.t; a_run : P.run }

module Answers = Hashtbl.Make (String)

(* The paper plan has 384 distinct specs. *)
let answer_limit = 4096

type t = {
  cfg : config;
  mu : Mutex.t;
  work : Condition.t;          (* queue gained a job, or stopping *)
  stopc : Condition.t;         (* shutdown requested, or stopping *)
  queue : job Queue.t;
  inflight : (Digest_hex.t, job) Hashtbl.t;  (* queued or executing *)
  answers : answer Answers.t;  (* by spelling; see the header *)
  fills : bool;                (* a cache, and no chaos plan anywhere *)
  mutable conns : conn list;
  mutable next_conn : int;
  mutable stopping : bool;
  mutable draining : bool;     (* a client asked to shut down *)
  mutable shutdown_req : bool; (* ... and has been answered *)
  lsock : Unix.file_descr;
  wake_r : Unix.file_descr;    (* readable once [stop] has begun *)
  wake_w : Unix.file_descr;
  bound : P.addr;
  started : float;
  mutable executing : int;
  mutable accepted : int;
  mutable rejected_batches : int;
  mutable dedup_hits : int;
  mutable table_answers : int; (* specs answered at admission *)
  mutable completed : int;
  mutable failed : int;
  wstats : wstat array;
  mutable domains : unit Domain.t list;
  mutable threads : Thread.t list;  (* acceptor + per-connection readers *)
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Diagnostics on stderr.  Every call site tests [t.cfg.verbose] first,
   so a quiet daemon pays one compare per site: neither the format nor
   its arguments are built. *)
let logf fmt = Fmt.epr ("[serve] " ^^ fmt ^^ "@.")

let bound_addr t = t.bound

(* Frame delivery: best effort under the connection's write lock.  A
   broken pipe marks the connection dead; its remaining results are
   simply dropped (the work still lands in the cache, so a reconnecting
   client resubmits and hits).  [~flush:false] leaves the frames in the
   channel's buffer for the worker's next {!flush_conn}. *)
let deliver ?(flush = true) conn write =
  Mutex.lock conn.c_wmu;
  let ok =
    conn.c_alive
    && (match
          write conn.c_oc;
          if flush then Stdlib.flush conn.c_oc
        with
        | () -> true
        | exception (Sys_error _ | Unix.Unix_error _) ->
          conn.c_alive <- false;
          false)
  in
  Mutex.unlock conn.c_wmu;
  ok

let send ?flush conn resp =
  let frame = P.encode_response resp in
  deliver ?flush conn (fun oc -> P.write_frame oc frame)

let flush_conn conn =
  Mutex.lock conn.c_wmu;
  (if conn.c_alive then
     try flush conn.c_oc
     with Sys_error _ | Unix.Unix_error _ -> conn.c_alive <- false);
  Mutex.unlock conn.c_wmu

let stats t : P.stats =
  locked t (fun () ->
      { P.uptime_ms =
          int_of_float (1000. *. (Unix.gettimeofday () -. t.started));
        workers = t.cfg.workers;
        queue_depth = Queue.length t.queue;
        queue_limit = t.cfg.max_queue;
        in_flight = t.executing;
        accepted = t.accepted;
        rejected_batches = t.rejected_batches;
        dedup_hits = t.dedup_hits;
        completed = t.completed;
        failed = t.failed;
        cache_hits =
          (match t.cfg.cache with
           | Some c -> Run_cache.hits c + t.table_answers
           | None -> 0);
        cache_misses =
          (match t.cfg.cache with Some c -> Run_cache.misses c | None -> 0);
        cache_stores =
          (match t.cfg.cache with Some c -> Run_cache.stores c | None -> 0);
        per_worker =
          Array.to_list
            (Array.map
               (fun w ->
                  { P.w_jobs = w.ws_jobs;
                    w_busy_ms = w.ws_busy_ns / 1_000_000 })
               t.wstats) })

(* -- Workers -------------------------------------------------------------- *)

(* Cache-or-simulate.  A hit is the cache's verified bytes, forwarded
   as they are: the daemon never decodes or marks a result, and the
   client sets the cache flags from the origin, as
   [Experiments.caching_engine] does in process.  The key is taken over
   the bytes the spec arrived as; an unknown kernel raises here, inside
   the job's retry policy, and fails that job alone.  [before_block]
   runs before a simulation starts. *)
let simulate t ~before_block (e : Run_spec.Encoded.t) : P.run =
  let spec = Run_spec.Encoded.spec e in
  match t.cfg.cache with
  | None -> before_block (); P.run_of_data P.Uncached (Run_spec.execute spec)
  | Some cache ->
    let key = Run_spec.Encoded.cache_key e in
    (match Run_cache.find_run_bytes cache ~key with
     | Some blob -> { P.origin = P.Hit; blob }
     | None ->
       before_block ();
       let rd = Run_spec.execute spec in
       Run_cache.store_run cache ~key rd;
       P.run_of_data P.Miss rd)

(* [k] owed results have been delivered (or dropped) for [conn]'s
   current batch; when the count reaches zero the stream is closed. *)
let finish t conn k =
  let batch_done, delivered =
    locked t (fun () ->
        conn.c_pending <- conn.c_pending - k;
        (conn.c_pending = 0, conn.c_batch))
  in
  if batch_done then ignore (send conn (P.Batch_done { delivered }))

(* Under [t.mu]; see the header. *)
let remember t spelling a =
  if not (Answers.mem t.answers spelling) then begin
    if Answers.length t.answers >= answer_limit then Answers.reset t.answers;
    Answers.add t.answers spelling a
  end

let worker t wi =
  (* Connections this worker has written unflushed frames to. *)
  let unflushed = ref [] in
  let flush_all () =
    List.iter flush_conn !unflushed;
    unflushed := []
  in
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      match !unflushed with
      | [] -> Condition.wait t.work t.mu
      | _ :: _ ->
        Mutex.unlock t.mu;
        flush_all ();
        Mutex.lock t.mu
    done;
    if Queue.is_empty t.queue then begin (* stopping, drained *)
      Mutex.unlock t.mu;
      flush_all ()
    end
    else begin
      let job = Queue.pop t.queue in
      t.executing <- t.executing + 1;
      Mutex.unlock t.mu;
      let t0 = Unix.gettimeofday () in
      let deadline_ms =
        match job.j_deadline_ms with
        | Some _ as d -> d
        | None -> t.cfg.default_deadline_ms
      in
      let result =
        match
          Failure.with_retries ?deadline_ms
            ~max_retries:job.j_max_retries
            ~salt:(Digest_hex.to_hex job.j_digest)
            (fun () ->
               (match t.cfg.chaos with
                | Some c -> flush_all (); Chaos.before_item c
                | None -> ());
               simulate t ~before_block:flush_all job.j_spec)
        with
        | outcome -> outcome.Failure.result
        | exception Failure.Abort msg ->
          (* A daemon has no sweep to abort: degrade an injected
             sweep-kill to a per-job transient crash. *)
          Error (Failure.Crash { exn = "abort: " ^ msg; transient = true })
      in
      let busy_ns = int_of_float (1e9 *. (Unix.gettimeofday () -. t0)) in
      let waiters =
        locked t (fun () ->
            let ws = t.wstats.(wi) in
            ws.ws_jobs <- ws.ws_jobs + 1;
            ws.ws_busy_ns <- ws.ws_busy_ns + busy_ns;
            t.executing <- t.executing - 1;
            (match result with
             | Ok _ -> t.completed <- t.completed + 1
             | Error _ -> t.failed <- t.failed + 1);
            Hashtbl.remove t.inflight job.j_digest;
            (match result with
             | Ok ({ P.origin = P.Hit; _ } as run) when t.fills ->
               remember t (Run_spec.Encoded.bytes job.j_spec)
                 { a_digest = job.j_digest; a_run = run }
             | Ok _ | Error _ -> ());
            let ws = job.j_waiters in
            job.j_waiters <- [];
            ws)
      in
      (match result with
       | Error f when t.cfg.verbose ->
         logf "job %s failed: %a" (Digest_hex.short job.j_digest)
           Failure.pp_tagged f
       | Ok _ | Error _ -> ());
      List.iter
        (fun w ->
           let c = w.w_conn and index = w.w_index in
           ignore
             (match result with
              | Ok run ->
                deliver ~flush:false c (fun oc ->
                    P.write_result oc ~index ~digest:job.j_digest run)
              | Error f ->
                send ~flush:false c
                  (P.Result { index; digest = job.j_digest;
                              outcome = Error (P.error_of_failure f) }));
           if not (List.memq c !unflushed) then unflushed := c :: !unflushed;
           finish t c 1)
        waiters;
      loop ()
    end
  in
  loop ()

(* -- Admission ------------------------------------------------------------ *)

let reject_error code message =
  let transient =
    match code with
    | P.Overloaded | P.Shutting_down -> true
    | _ -> false
  in
  { P.code; transient; message }

(* The table's answer for each spelling of a batch, under one hold. *)
let lookup t spellings =
  if not t.fills then Array.make (Array.length spellings) None
  else begin
    Mutex.lock t.mu;
    let answers = Array.map (Answers.find_opt t.answers) spellings in
    Mutex.unlock t.mu;
    answers
  end

(* The spellings the table did not answer, decoded and digested in
   batch order, or why the batch is malformed. *)
let decode_misses spellings answers =
  let n = Array.length spellings in
  let rec go i acc =
    if i = n then Ok (List.rev acc)
    else
      match answers.(i) with
      | Some _ -> go (i + 1) acc
      | None ->
        (match Run_spec.Encoded.decode spellings.(i) with
         | Ok e -> go (i + 1) ((i, e, Run_spec.Encoded.digest e) :: acc)
         | Error msg -> Error (Fmt.str "spec %d of %d: %s" i n msg))
  in
  go 0 []

let write_hits oc answers =
  Array.iteri
    (fun index -> function
       | Some a -> P.write_result oc ~index ~digest:a.a_digest a.a_run
       | None -> ())
    answers

(* Atomic batch admission: under one [t.mu] hold, either the batch is
   taken whole or it is rejected whole.  Taken, its table hits are
   answered after the hold, by this reader thread, and the [misses] are
   queued (or attached to an in-flight twin); only queued specs count
   against the queue limit.  The lookup, the decodes and the digests
   come before the hold, so it covers only table, queue and counter
   updates.

   [c_pending] owes the whole batch while any spec went to a worker,
   and the hits are subtracted once their frames are written, so the
   last answer of either kind sends the one [Batch_done].  An all-hit
   batch owes nothing to a worker: its answers and [Batch_done] leave
   in one flush, and no worker is woken. *)
let admit t conn ~deadline_ms ~max_retries answers misses =
  let n = Array.length answers in
  let nhits = n - List.length misses in
  let verdict =
    locked t (fun () ->
        if t.stopping || t.draining then
          Error (reject_error P.Shutting_down "server is draining")
        else if conn.c_pending > 0 then
          Error
            (reject_error P.Malformed
               "a batch is already in flight on this connection")
        else begin
          let nfresh =
            match misses with
            | [] -> 0
            | misses ->
              let fresh = Hashtbl.create 16 in
              List.iter
                (fun (_, _, d) ->
                   if not (Hashtbl.mem t.inflight d) then
                     Hashtbl.replace fresh d ())
                misses;
              Hashtbl.length fresh
          in
          let depth = Queue.length t.queue in
          if depth + nfresh > t.cfg.max_queue then begin
            t.rejected_batches <- t.rejected_batches + 1;
            Error
              (reject_error P.Overloaded
                 (Fmt.str "queue full: %d queued + %d new > limit %d"
                    depth nfresh t.cfg.max_queue))
          end
          else begin
            conn.c_pending <- (if nhits = n then 0 else n);
            conn.c_batch <- n;
            t.accepted <- t.accepted + n;
            t.table_answers <- t.table_answers + nhits;
            List.iter
              (fun (i, spec, d) ->
                 match Hashtbl.find_opt t.inflight d with
                 | Some job ->
                   t.dedup_hits <- t.dedup_hits + 1;
                   job.j_waiters <-
                     { w_conn = conn; w_index = i } :: job.j_waiters
                 | None ->
                   let job =
                     { j_digest = d; j_spec = spec;
                       j_deadline_ms = deadline_ms;
                       j_max_retries = max_retries;
                       j_waiters = [ { w_conn = conn; w_index = i } ] }
                   in
                   Hashtbl.replace t.inflight d job;
                   Queue.push job t.queue)
              misses;
            if nfresh > 0 then Condition.broadcast t.work;
            Ok nfresh
          end
        end)
  in
  match verdict with
  | Error e ->
    if t.cfg.verbose then
      logf "conn %d: batch of %d rejected (%s)" conn.c_id n
        (P.error_code_name e.P.code);
    ignore (send conn (P.Rejected e))
  | Ok nfresh ->
    if t.cfg.verbose then
      logf "conn %d: admitted batch of %d (%d from the table, %d fresh, %d \
            coalesced)"
        conn.c_id n nhits nfresh (n - nhits - nfresh);
    if nhits = n then begin
      let done_ = P.encode_response (P.Batch_done { delivered = n }) in
      ignore
        (deliver conn (fun oc ->
             write_hits oc answers;
             P.write_frame oc done_))
    end
    else if nhits > 0 then begin
      (* Flushed at once: the reader blocks on its next read. *)
      ignore (deliver conn (fun oc -> write_hits oc answers));
      finish t conn nhits
    end

(* -- Connections ---------------------------------------------------------- *)

let handshake t conn ic =
  match P.read_frame ic with
  | `Eof | `Error _ -> false
  | `Frame payload ->
    (match P.decode_request payload with
     | Ok (P.Hello { version; ocaml })
       when version = P.version && String.equal ocaml Sys.ocaml_version ->
       ignore
         (send conn
            (P.Welcome
               { version; ocaml = Sys.ocaml_version;
                 banner = t.cfg.banner }));
       true
     | Ok (P.Hello { version; ocaml }) ->
       ignore
         (send conn
            (P.Rejected
               (reject_error P.Version_mismatch
                  (Fmt.str
                     "server speaks protocol v%d on OCaml %s; client \
                      offered v%d on OCaml %s"
                     P.version Sys.ocaml_version version ocaml))));
       false
     | Ok _ ->
       ignore
         (send conn
            (P.Rejected
               (reject_error P.Version_mismatch
                  "expected HELLO as the first frame")));
       false
     | Error msg ->
       ignore (send conn (P.Rejected (reject_error P.Malformed msg)));
       false)

(* The frame loop of one connection, until it closes or asks to. *)
let session t conn =
  let ic = Unix.in_channel_of_descr conn.c_fd in
  if handshake t conn ic then begin
    if t.cfg.verbose then logf "conn %d: session open" conn.c_id;
    let closing = ref false in
    while not !closing do
      match P.read_frame ic with
      | `Eof -> closing := true
      | `Error msg ->
        if t.cfg.verbose then logf "conn %d: read error: %s" conn.c_id msg;
        closing := true
      | `Frame payload ->
        (match P.decode_request payload with
         | Error msg ->
           ignore (send conn (P.Rejected (reject_error P.Malformed msg)));
           closing := true
         | Ok (P.Hello _) ->
           ignore
             (send conn
                (P.Rejected (reject_error P.Malformed "duplicate HELLO")));
           closing := true
         | Ok (P.Submit { deadline_ms; max_retries; specs }) ->
           let spellings = Array.of_list specs in
           let answers = lookup t spellings in
           (match decode_misses spellings answers with
            | Ok misses -> admit t conn ~deadline_ms ~max_retries answers misses
            | Error msg ->
              ignore (send conn (P.Rejected (reject_error P.Malformed msg)));
              closing := true)
         | Ok P.Stats -> ignore (send conn (P.Stats_reply (stats t)))
         | Ok P.Ping -> ignore (send conn P.Pong)
         | Ok P.Shutdown ->
           (* No batch is admitted, on any connection, once [Bye] can
              have been read; [wait] returns only after it has left, so
              [stop] does not cut it off. *)
           locked t (fun () -> t.draining <- true);
           ignore (send conn P.Bye);
           locked t (fun () ->
               t.shutdown_req <- true;
               Condition.broadcast t.stopc);
           if t.cfg.verbose then logf "conn %d: shutdown requested" conn.c_id;
           closing := true)
    done
  end

(* Whatever ends the session, even an exception out of [admit] or
   [send], the connection is unlisted and its socket closed: otherwise
   its client would wait in [read_frame] forever. *)
let serve_conn t conn =
  (match session t conn with
   | () -> ()
   | exception e ->
     if t.cfg.verbose then
       logf "conn %d: dropped on %s" conn.c_id (Printexc.to_string e));
  locked t (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns);
  (* Closing the channel closes the socket and drops any frames still
     buffered: an out channel left open with pending bytes is never
     freed, and the runtime would flush it at exit into whatever file
     then holds its descriptor number.  The shutdown first makes that
     last flush fail at once rather than wait on a peer that has
     stopped reading. *)
  Mutex.lock conn.c_wmu;
  conn.c_alive <- false;
  (try Unix.shutdown conn.c_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  close_out_noerr conn.c_oc;
  Mutex.unlock conn.c_wmu;
  if t.cfg.verbose then logf "conn %d: closed" conn.c_id

(* Blocks in [select] until a client connects or [stop] writes to the
   wake-up pipe. *)
let acceptor t =
  let continue = ref true in
  while !continue do
    match Unix.select [ t.lsock; t.wake_r ] [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ when List.mem t.wake_r ready -> continue := false
    | [], _, _ -> ()
    | _ ->
      (match Unix.accept t.lsock with
       | exception Unix.Unix_error _ -> () (* the client already left *)
       | fd, _ ->
         P.set_nodelay fd;
         let conn =
           locked t (fun () ->
               let id = t.next_conn in
               t.next_conn <- id + 1;
               let c =
                 { c_id = id; c_fd = fd;
                   c_oc = Unix.out_channel_of_descr fd;
                   c_wmu = Mutex.create (); c_alive = true;
                   c_pending = 0; c_batch = 0 }
               in
               t.conns <- c :: t.conns;
               c)
         in
         let th = Thread.create (fun () -> serve_conn t conn) () in
         locked t (fun () -> t.threads <- th :: t.threads))
  done

(* -- Lifecycle ------------------------------------------------------------ *)

let listen_on (addr : P.addr) =
  match addr with
  | P.Unix_path path ->
    (* A stale socket file left by a killed daemon blocks bind. *)
    (match (Unix.stat path).Unix.st_kind with
     | Unix.S_SOCK -> Unix.unlink path
     | _ -> ()
     | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, addr)
  | P.Tcp (host, _) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (P.sockaddr_of addr);
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> P.Tcp (host, port)
      | _ -> addr
    in
    (fd, bound)

let start (cfg : config) =
  if Sys.unix then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let lsock, bound = listen_on cfg.addr in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let fills =
    match cfg.cache, cfg.chaos with
    | Some c, None -> Option.is_none (Run_cache.chaos c)
    | _ -> false
  in
  let t =
    { cfg; mu = Mutex.create (); work = Condition.create ();
      stopc = Condition.create (); queue = Queue.create ();
      inflight = Hashtbl.create 64; answers = Answers.create 512; fills;
      conns = []; next_conn = 0;
      stopping = false; draining = false; shutdown_req = false; lsock;
      wake_r; wake_w; bound;
      started = Unix.gettimeofday (); executing = 0; accepted = 0;
      rejected_batches = 0; dedup_hits = 0; table_answers = 0; completed = 0;
      failed = 0;
      wstats = Array.init cfg.workers (fun _ -> { ws_jobs = 0; ws_busy_ns = 0 });
      domains = []; threads = [] }
  in
  t.domains <-
    List.init cfg.workers (fun wi -> Domain.spawn (fun () -> worker t wi));
  let acc = Thread.create (fun () -> acceptor t) () in
  t.threads <- [ acc ];
  if cfg.verbose then
    logf "listening on %a: %d worker(s), queue limit %d, cache %s, chaos %s"
      P.pp_addr bound cfg.workers cfg.max_queue
      (if Option.is_some cfg.cache then "on" else "off")
      (if Option.is_some cfg.chaos then "on" else "off");
  t

let stop t =
  let already =
    locked t (fun () ->
        let a = t.stopping in
        t.stopping <- true;
        Condition.broadcast t.work;
        Condition.broadcast t.stopc;
        a)
  in
  if not already then begin
    if t.cfg.verbose then
      logf "stopping: draining %d queued job(s)"
        (locked t (fun () -> Queue.length t.queue));
    (* The acceptor leaves its [select] and accepts nobody else. *)
    (try ignore (Unix.write_substring t.wake_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    (* Workers drain the queue, deliver and flush every result they
       owe, then exit on [stopping]; admission refuses every batch from
       here on, so nothing is queued behind them. *)
    List.iter Domain.join t.domains;
    t.domains <- [];
    (* Then join the acceptor and every reader; readers unblock when
       their connection is shut down.  The acceptor may register a last
       thread before it wakes, so pop until empty. *)
    let rec drain_threads () =
      locked t (fun () ->
          List.iter
            (fun c ->
               try Unix.shutdown c.c_fd Unix.SHUTDOWN_ALL
               with Unix.Unix_error _ | Invalid_argument _ -> ())
            t.conns);
      match
        locked t (fun () ->
            match t.threads with
            | [] -> None
            | th :: rest -> t.threads <- rest; Some th)
      with
      | Some th -> Thread.join th; drain_threads ()
      | None -> ()
    in
    drain_threads ();
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ t.lsock; t.wake_r; t.wake_w ];
    (match t.bound with
     | P.Unix_path path ->
       (try Unix.unlink path with Unix.Unix_error _ -> ())
     | P.Tcp _ -> ());
    if t.cfg.verbose then logf "stopped: %a" P.pp_stats (stats t)
  end

let wait t =
  Mutex.lock t.mu;
  while not (t.shutdown_req || t.stopping) do
    Condition.wait t.stopc t.mu
  done;
  Mutex.unlock t.mu

let run cfg =
  let t = start cfg in
  wait t;
  stop t
