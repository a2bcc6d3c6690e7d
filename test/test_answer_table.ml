(* The daemon's answer table, end to end over a loopback socket.  The
   "cache-integrity" group checks what the table may hold: verified disk
   reads only, never a rotten blob or anything under chaos, within its
   bound.  The "allocation" group bounds the minor words a warm spec
   costs the daemon.  The rest of the daemon is tested in
   test_service.ml. *)

open Service_fixture

let sample_rd = lazy (Run_spec.execute (spec "war-uc"))

let war_spelling = Run_spec.encode (spec "war-uc")

let origin what (run : P.run) want =
  if run.P.origin <> want then Alcotest.failf "%s: wrong origin" what

(* The table answers with the bytes the disk read returned: the second
   batch's, which are also what a fresh handle reads from the file, and
   the third batch, with the directory moved away, runs no job. *)
let test_table_serves_verified_bytes () =
  let dir = tmp_dir () in
  with_server ~workers:1 ~cache:(Run_cache.create ~dir ()) @@ fun _t addr ->
  with_raw addr @@ fun r ->
  ignore (submit_raw r [ war_spelling ]);
  let from_disk = submit_raw r [ war_spelling ] in
  origin "second batch" from_disk.(0) P.Hit;
  Alcotest.(check (option string)) "the disk read's bytes"
    (Run_cache.find_run_bytes (Run_cache.create ~dir ())
       ~key:(Run_spec.cache_key (spec "war-uc")))
    (Some from_disk.(0).P.blob);
  let jobs0 = jobs (raw_stats r) in
  Sys.rename dir (dir ^ ".gone");
  let from_table = submit_raw r [ war_spelling ] in
  origin "third batch" from_table.(0) P.Hit;
  Alcotest.(check string) "same handle, same bytes" from_disk.(0).P.blob
    from_table.(0).P.blob;
  Alcotest.(check int) "answered at admission" jobs0 (jobs (raw_stats r))

(* A store never fills the table: a blob that rots after its store is
   read by the worker on the next request, quarantined and simulated
   again; only the clean read after that fills the table. *)
let test_table_never_holds_rot () =
  let dir = tmp_dir () in
  let cache = Run_cache.create ~dir () in
  with_server ~workers:1 ~cache @@ fun _t addr ->
  with_raw addr @@ fun r ->
  let round () = (submit_raw r [ war_spelling ]).(0) in
  origin "the fill" (round ()) P.Miss;
  let pack, pos, len =
    Option.get (Run_cache.blob_span (Run_cache.create ~dir ())
                  ~key:(Run_spec.cache_key (spec "war-uc"))) in
  Alcotest.(check bool) "fixture corrupted" true
    (Xloops.Chaos.corrupt Xloops.Chaos.Blob_bitflip pack ~pos ~len);
  let jobs0 = jobs (raw_stats r) in
  origin "the rotten blob" (round ()) P.Miss;
  Alcotest.(check int) "read by a worker" (jobs0 + 1) (jobs (raw_stats r));
  Alcotest.(check int) "corruption counted" 1 (Run_cache.corrupt cache);
  Alcotest.(check int) "blob quarantined" 1 (Run_cache.quarantined cache);
  origin "the clean re-store" (round ()) P.Hit;
  Alcotest.(check int) "read by a worker too" (jobs0 + 2) (jobs (raw_stats r));
  origin "then the table" (round ()) P.Hit;
  Alcotest.(check int) "answered at admission" (jobs0 + 2)
    (jobs (raw_stats r))

(* A chaos plan on the cache handle keeps the table empty: a read error
   is a miss and simulates again, and no later hit is answered at
   admission.  Opportunities: the first lookup is 1, its store 2, the
   failing lookup 3. *)
let test_table_under_read_error () =
  let chaos = Xloops.Chaos.explicit [ (3, Xloops.Chaos.Cache_read_error) ] in
  let cache = Run_cache.create ~dir:(tmp_dir ()) ~chaos () in
  with_server ~workers:1 ~cache @@ fun _t addr ->
  with_raw addr @@ fun r ->
  let round () = (submit_raw r [ war_spelling ]).(0) in
  origin "the fill" (round ()) P.Miss;
  origin "the injected error" (round ()) P.Miss;
  Alcotest.(check int) "the error fired" 1
    (Xloops.Chaos.injected_count chaos);
  origin "a read" (round ()) P.Hit;
  let jobs0 = jobs (raw_stats r) in
  origin "another read" (round ()) P.Hit;
  Alcotest.(check int) "still a worker job" (jobs0 + 1) (jobs (raw_stats r))

(* One past [answer_limit] distinct spellings, each stored on disk and
   read by one worker in batch order: the last insert empties the full
   table, so the last spelling is answered at admission and the one
   before it runs a job again. *)
let test_table_bound () =
  let dir = tmp_dir () in
  let n = Server.answer_limit + 1 in
  let specs =
    List.init n (fun i ->
        { (spec "war-uc") with Run_spec.watchdog = 1_000_000 + i })
  in
  let store = Run_cache.create ~dir () in
  let rd = Lazy.force sample_rd in
  List.iter (fun s -> Run_cache.store_run store ~key:(Run_spec.cache_key s) rd)
    specs;
  let spellings = Array.of_list (List.map Run_spec.encode specs) in
  with_server ~workers:1 ~max_queue:n ~cache:(Run_cache.create ~dir ())
  @@ fun _t addr ->
  with_raw addr @@ fun r ->
  all_hits "the fill" (submit_raw r (Array.to_list spellings));
  let jobs_of spelling =
    let j0 = jobs (raw_stats r) in
    all_hits "a spelling" (submit_raw r [ spelling ]);
    jobs (raw_stats r) - j0
  in
  Alcotest.(check int) "the last insert is held" 0 (jobs_of spellings.(n - 1));
  Alcotest.(check int) "the table was emptied" 1 (jobs_of spellings.(n - 2))

(* -- Allocation on the warm path ------------------------------------------ *)

(* Minor words per warm spec in this process's domain, which runs the
   daemon's reader threads: one Table II batch the table answers whole,
   sent again and again.  The client writes one prebuilt frame and
   reads the answers into preallocated bytes with [Unix] calls, so it
   allocates nothing per frame; the workers run in their own domains
   and take no job.  What is left is the reader's request frame, its
   spellings, their lookups and the answers' hex digests. *)
let warm_words_per_spec () =
  let batch = table2 "war-uc" in
  let n = List.length batch in
  with_server ~workers:1 ~cache:(Run_cache.create ~dir:(tmp_dir ()) ())
  @@ fun _t addr ->
  with_raw addr @@ fun r ->
  ignore (submit_raw r batch);
  ignore (submit_raw r batch);
  let frame =
    let p = P.encode_request (submit_req batch) in
    let b = Buffer.create (4 + String.length p) in
    Buffer.add_int32_be b (Int32.of_int (String.length p));
    Buffer.add_string b p;
    Buffer.contents b
  in
  let buf = Bytes.create 65536 in
  let rec fill off len =
    if len > 0 then
      match Unix.read r.fd buf off len with
      | 0 -> Alcotest.fail "daemon closed the connection"
      | k -> fill (off + k) (len - k)
  in
  (* Frames up to the [Batch_done], counting the others. *)
  let rec frames k =
    fill 0 4;
    let byte i = Char.code (Bytes.get buf i) in
    fill 0 ((byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3);
    if Bytes.get buf 0 = 'D' then k else frames (k + 1)
  in
  let round () =
    if Unix.write_substring r.fd frame 0 (String.length frame)
       <> String.length frame
    then Alcotest.fail "short write";
    if frames 0 <> n then Alcotest.fail "a batch lost a result"
  in
  for _ = 1 to 20 do round () done;
  let rounds = 500 in
  Gc.minor ();
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do round () done;
  Gc.minor ();
  let w = (Gc.minor_words () -. w0) /. float_of_int (rounds * n) in
  check_quiet r;
  w

(* Measured: 54.3 words per spec before the answer table (a decode that
   hit the intern table, then the cache handle's memo), 44.8 with it.
   Decoding each warm spelling in full costs ~76 words more, and
   taking its MD5 in hex ~8: either breaks the budget. *)
let test_warm_allocation () =
  let w = warm_words_per_spec () and budget = 48. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per warm spec <= %.0f" w budget)
    true (w <= budget)

let () =
  Alcotest.run "answer-table"
    [ ("cache-integrity",
       [ Alcotest.test_case "memo serves verified bytes" `Quick
           test_table_serves_verified_bytes;
         Alcotest.test_case "memo never holds rot" `Quick
           test_table_never_holds_rot;
         Alcotest.test_case "memo under read error" `Quick
           test_table_under_read_error;
         Alcotest.test_case "memo bound" `Quick test_table_bound ]);
      ("allocation",
       [ Alcotest.test_case "warm spec at admission" `Quick
           test_warm_allocation ]) ]
