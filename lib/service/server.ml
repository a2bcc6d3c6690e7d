(* The spec-batch daemon.  See server.mli for the architecture contract.

   Locking discipline: [t.mu] guards the queue, the in-flight table, the
   connection list and every counter; each connection's [c_wmu] guards
   its output channel.  [t.mu] is never held across a frame write, and
   [c_wmu] is never acquired while holding [t.mu] — so a slow or dead
   client can never stall admission or the workers. *)

module Run_spec = Xloops.Run_spec
module Run_cache = Xloops.Run_cache
module Failure = Xloops.Failure
module Chaos = Xloops.Chaos
module Digest_hex = Xloops.Digest_hex
module Stats = Xloops.Sim.Stats
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
  j_spec : Run_spec.t;
  j_deadline_ms : int option;
  j_max_retries : int;
  mutable j_waiters : waiter list;
}

type wstat = { mutable ws_jobs : int; mutable ws_busy_ms : int }

type t = {
  cfg : config;
  mu : Mutex.t;
  work : Condition.t;          (* queue gained a job, or stopping *)
  stopc : Condition.t;         (* shutdown requested, or stopping *)
  queue : job Queue.t;
  inflight : (Digest_hex.t, job) Hashtbl.t;  (* queued or executing *)
  mutable conns : conn list;
  mutable next_conn : int;
  mutable stopping : bool;
  mutable shutdown_req : bool;
  lsock : Unix.file_descr;
  bound : P.addr;
  started : float;
  mutable executing : int;
  mutable accepted : int;
  mutable rejected_batches : int;
  mutable dedup_hits : int;
  mutable completed : int;
  mutable failed : int;
  wstats : wstat array;
  mutable domains : unit Domain.t list;
  mutable threads : Thread.t list;  (* acceptor + per-connection readers *)
}

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let logf t fmt =
  if t.cfg.verbose then Fmt.epr ("[serve] " ^^ fmt ^^ "@.")
  else Format.ifprintf Format.err_formatter ("[serve] " ^^ fmt ^^ "@.")

let bound_addr t = t.bound

(* Frame delivery: best effort under the connection's write lock.  A
   broken pipe marks the connection dead; its remaining results are
   simply dropped (the work still lands in the cache, so a reconnecting
   client resubmits and hits). *)
let send conn resp =
  Mutex.lock conn.c_wmu;
  let ok =
    conn.c_alive
    && (match P.write_frame conn.c_oc (P.encode_response resp) with
        | () -> true
        | exception (Sys_error _ | Unix.Unix_error _) ->
          conn.c_alive <- false;
          false)
  in
  Mutex.unlock conn.c_wmu;
  ok

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
          (match t.cfg.cache with Some c -> Run_cache.hits c | None -> 0);
        cache_misses =
          (match t.cfg.cache with Some c -> Run_cache.misses c | None -> 0);
        cache_stores =
          (match t.cfg.cache with Some c -> Run_cache.stores c | None -> 0);
        per_worker =
          Array.to_list
            (Array.map
               (fun w -> { P.w_jobs = w.ws_jobs; w_busy_ms = w.ws_busy_ms })
               t.wstats) })

(* -- Workers -------------------------------------------------------------- *)

(* Cache-or-simulate, marking results exactly like
   [Experiments.caching_engine] so a client-side engine built on the
   service is indistinguishable from the in-process one. *)
let simulate t spec =
  match t.cfg.cache with
  | None -> Run_spec.execute spec
  | Some cache ->
    let key = Run_spec.cache_key spec in
    (match Run_cache.find_run cache ~key with
     | Some rd -> rd.Run_spec.stats.Stats.cache_hits <- 1; rd
     | None ->
       let rd = Run_spec.execute spec in
       Run_cache.store_run cache ~key rd;
       rd.Run_spec.stats.Stats.cache_misses <- 1;
       rd)

(* One owed result has been delivered (or dropped) for [conn]'s current
   batch; when the count reaches zero the stream is closed. *)
let finish_one t conn =
  let batch_done, delivered =
    locked t (fun () ->
        conn.c_pending <- conn.c_pending - 1;
        (conn.c_pending = 0, conn.c_batch))
  in
  if batch_done then ignore (send conn (P.Batch_done { delivered }))

let worker t wi =
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.work t.mu
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.mu (* stopping, drained *)
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
                | Some c -> Chaos.before_item c
                | None -> ());
               simulate t job.j_spec)
        with
        | outcome -> outcome.Failure.result
        | exception Failure.Abort msg ->
          (* A daemon has no sweep to abort: degrade an injected
             sweep-kill to a per-job transient crash. *)
          Error (Failure.Crash { exn = "abort: " ^ msg; transient = true })
      in
      let busy_ms = int_of_float (1000. *. (Unix.gettimeofday () -. t0)) in
      let waiters =
        locked t (fun () ->
            let ws = t.wstats.(wi) in
            ws.ws_jobs <- ws.ws_jobs + 1;
            ws.ws_busy_ms <- ws.ws_busy_ms + busy_ms;
            t.executing <- t.executing - 1;
            (match result with
             | Ok _ -> t.completed <- t.completed + 1
             | Error _ -> t.failed <- t.failed + 1);
            Hashtbl.remove t.inflight job.j_digest;
            let ws = job.j_waiters in
            job.j_waiters <- [];
            ws)
      in
      (match result with
       | Ok _ -> ()
       | Error f ->
         logf t "job %s failed: %a" (Digest_hex.short job.j_digest)
           Failure.pp_tagged f);
      let outcome =
        match result with
        | Ok rd -> Ok rd
        | Error f -> Error (P.error_of_failure f)
      in
      List.iter
        (fun w ->
           ignore
             (send w.w_conn
                (P.Result { index = w.w_index; digest = job.j_digest;
                            outcome }));
           finish_one t w.w_conn)
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

(* Atomic batch admission: under one [t.mu] hold, either every spec of
   the batch is queued (or attached to an in-flight twin) or the whole
   batch is rejected. *)
let admit t conn ~deadline_ms ~max_retries specs =
  let n = List.length specs in
  let verdict =
    locked t (fun () ->
        if t.stopping then
          Error (reject_error P.Shutting_down "server is draining")
        else if conn.c_pending > 0 then
          Error
            (reject_error P.Malformed
               "a batch is already in flight on this connection")
        else begin
          let digests = List.map Run_spec.digest specs in
          let fresh = Hashtbl.create 16 in
          List.iter
            (fun d ->
               if not (Hashtbl.mem t.inflight d) then
                 Hashtbl.replace fresh d ())
            digests;
          let nfresh = Hashtbl.length fresh in
          let depth = Queue.length t.queue in
          if depth + nfresh > t.cfg.max_queue then begin
            t.rejected_batches <- t.rejected_batches + 1;
            Error
              (reject_error P.Overloaded
                 (Fmt.str "queue full: %d queued + %d new > limit %d"
                    depth nfresh t.cfg.max_queue))
          end
          else begin
            conn.c_pending <- n;
            conn.c_batch <- n;
            t.accepted <- t.accepted + n;
            List.iteri
              (fun i (spec, d) ->
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
              (List.combine specs digests);
            Condition.broadcast t.work;
            Ok nfresh
          end
        end)
  in
  match verdict with
  | Error e ->
    logf t "conn %d: batch of %d rejected (%s)" conn.c_id n
      (P.error_code_name e.P.code);
    ignore (send conn (P.Rejected e))
  | Ok nfresh ->
    logf t "conn %d: admitted batch of %d (%d fresh, %d coalesced)"
      conn.c_id n nfresh (n - nfresh);
    if n = 0 then ignore (send conn (P.Batch_done { delivered = 0 }))

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

let serve_conn t conn =
  let ic = Unix.in_channel_of_descr conn.c_fd in
  if handshake t conn ic then begin
    logf t "conn %d: session open" conn.c_id;
    let closing = ref false in
    while not !closing do
      match P.read_frame ic with
      | `Eof -> closing := true
      | `Error msg ->
        logf t "conn %d: read error: %s" conn.c_id msg;
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
           admit t conn ~deadline_ms ~max_retries specs
         | Ok P.Stats -> ignore (send conn (P.Stats_reply (stats t)))
         | Ok P.Ping -> ignore (send conn P.Pong)
         | Ok P.Shutdown ->
           ignore (send conn P.Bye);
           locked t (fun () ->
               t.shutdown_req <- true;
               Condition.broadcast t.stopc);
           logf t "conn %d: shutdown requested" conn.c_id;
           closing := true)
    done
  end;
  Mutex.lock conn.c_wmu;
  conn.c_alive <- false;
  Mutex.unlock conn.c_wmu;
  locked t (fun () -> t.conns <- List.filter (fun c -> c != conn) t.conns);
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  logf t "conn %d: closed" conn.c_id

let acceptor t =
  let continue = ref true in
  while !continue do
    if locked t (fun () -> t.stopping) then continue := false
    else
      match Unix.select [ t.lsock ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> begin
          match Unix.accept t.lsock with
          | exception Unix.Unix_error _ -> () (* racing stop; loop re-checks *)
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
            locked t (fun () -> t.threads <- th :: t.threads)
        end
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
  Option.iter (fun c -> ignore (Run_cache.reap_tmp c)) cfg.cache;
  let lsock, bound = listen_on cfg.addr in
  let t =
    { cfg; mu = Mutex.create (); work = Condition.create ();
      stopc = Condition.create (); queue = Queue.create ();
      inflight = Hashtbl.create 64; conns = []; next_conn = 0;
      stopping = false; shutdown_req = false; lsock; bound;
      started = Unix.gettimeofday (); executing = 0; accepted = 0;
      rejected_batches = 0; dedup_hits = 0; completed = 0; failed = 0;
      wstats = Array.init cfg.workers (fun _ -> { ws_jobs = 0; ws_busy_ms = 0 });
      domains = []; threads = [] }
  in
  t.domains <-
    List.init cfg.workers (fun wi -> Domain.spawn (fun () -> worker t wi));
  let acc = Thread.create (fun () -> acceptor t) () in
  t.threads <- [ acc ];
  logf t "listening on %a: %d worker(s), queue limit %d, cache %s, chaos %s"
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
    logf t "stopping: draining %d queued job(s)"
      (locked t (fun () -> Queue.length t.queue));
    (* Join the acceptor and every reader; readers unblock when their
       connection is shut down.  The acceptor may still register a last
       thread before it notices [stopping], so pop until empty. *)
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
    (* Workers drain the queue, then exit on [stopping]. *)
    List.iter Domain.join t.domains;
    t.domains <- [];
    (try Unix.close t.lsock with Unix.Unix_error _ -> ());
    (match t.bound with
     | P.Unix_path path ->
       (try Unix.unlink path with Unix.Unix_error _ -> ())
     | P.Tcp _ -> ());
    logf t "stopped: %a" P.pp_stats (stats t)
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
