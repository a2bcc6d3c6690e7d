(* Child process of test_sweep's "journal: records survive SIGKILL"
   case: start a fresh journal at the path given as the only argument,
   record three digests and kill itself with SIGKILL, without closing
   the journal or flushing anything. *)

let () =
  let j = Xloops.Journal.start Sys.argv.(1) in
  List.iter
    (fun s -> Xloops.Journal.record j
        (Xloops.Digest_hex.of_digest (Digest.string s)))
    [ "a"; "b"; "c" ];
  Unix.kill (Unix.getpid ()) Sys.sigkill
