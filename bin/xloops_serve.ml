(* xloops_serve: the persistent spec-batch daemon.  Accepts batches of
   serialized run specs over a Unix or TCP socket, dedupes in-flight
   work by spec digest, schedules across a bounded worker pool with
   admission control, and consults/populates the content-addressed
   result cache before simulating.

     dune exec bin/xloops_serve.exe -- --listen unix:/tmp/xloops.sock
     dune exec bin/xloops_serve.exe -- --listen tcp:127.0.0.1:7440 \
       --jobs 4 --cache-dir _xloops_cache *)

open Cmdliner
module Service = Xloops_service
module P = Service.Protocol

let listen_arg =
  let doc = "Address to listen on: unix:PATH, tcp:HOST:PORT, or \
             HOST:PORT (port 0 lets the kernel pick; the bound address \
             is printed on stderr)." in
  Arg.(value & opt string "unix:xloops.sock" & info [ "listen" ] ~doc)

let queue_limit_arg =
  let doc = "Admission bound: a batch that would push the queue past \
             this many jobs is rejected whole (OVERLOADED)." in
  Arg.(value & opt int 256 & info [ "queue-limit" ] ~doc)

let chaos_seed_arg =
  let doc = "Inject a seeded chaos plan server-side: worker stalls and \
             transient crashes, cache read errors, blob corruption.  \
             The retry policy must absorb all of it." in
  Arg.(value & opt (some int) None & info [ "chaos-seed" ] ~doc)

let chaos_events_arg =
  let doc = "Number of chaos events in the plan (with --chaos-seed)." in
  Arg.(value & opt int 12 & info [ "chaos-events" ] ~doc)

let banner_arg =
  let doc = "Free-text banner echoed to clients in the WELCOME frame." in
  Arg.(value & opt string "xloops_serve" & info [ "banner" ] ~doc)

let quiet_arg =
  let doc = "Suppress the [serve] diagnostics on stderr." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

(* Client mode: instead of starting a daemon, talk to the one already
   listening on --listen.  This is the ops/CI surface — no OCaml code
   needed to ask a daemon how it is doing or to drain it. *)
let client_op_arg =
  Arg.(value
       & vflag None
           [ (Some `Stats,
              info [ "stats" ]
                ~doc:"Query the daemon at --listen and print its STATS \
                      line (queue depth, in-flight, cache hit/miss, \
                      per-worker utilization, uptime).");
             (Some `Ping,
              info [ "ping" ]
                ~doc:"Health-check the daemon at --listen.");
             (Some `Shutdown,
              info [ "shutdown" ]
                ~doc:"Ask the daemon at --listen to drain and exit.") ])

let json_arg =
  let doc = "With --stats: print one line of JSON instead of prose \
             (machine-readable; CI gates parse it)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let client addr op ~json =
  match Service.Client.connect addr with
  | Error e ->
    Fmt.epr "xloops_serve: %a@." Service.Client.pp_connect_error e;
    1
  | Ok s ->
    let outcome =
      match op with
      | `Ping -> Result.map (fun () -> Fmt.pr "pong@.") (Service.Client.ping s)
      | `Stats ->
        Result.map
          (fun st ->
             if json then print_endline (P.stats_to_json st)
             else Fmt.pr "%a@." P.pp_stats st)
          (Service.Client.stats s)
      | `Shutdown ->
        Result.map (fun () -> Fmt.pr "shutdown acknowledged@.")
          (Service.Client.shutdown s)
    in
    Service.Client.close s;
    (match outcome with
     | Ok () -> 0
     | Error (Service.Client.Submit_rejected e) ->
       Fmt.epr "xloops_serve: %a@." P.pp_error e; 1
     | Error (Service.Client.Submit_conn m) ->
       Fmt.epr "xloops_serve: %s@." m; 1)

let serve listen client_op json queue_limit (eng : Cli_common.engine_args)
    chaos_seed chaos_events banner quiet =
  Cli_common.guarded @@ fun () ->
  match P.parse_addr listen with
  | Error msg -> Fmt.epr "xloops_serve: %s@." msg; 2
  | Ok addr ->
  match client_op with
  | Some op -> client addr op ~json
  | None ->
    let chaos =
      Option.map
        (fun seed ->
           Xloops.Chaos.plan ~kinds:Xloops.Chaos.recoverable_kinds ~seed
             ~events:chaos_events ())
        chaos_seed
    in
    let cache = Cli_common.cache_of_engine ?chaos ~tag:"serve" eng in
    let cfg =
      Service.Server.config ~addr ~workers:eng.Cli_common.ea_jobs
        ~max_queue:queue_limit ?cache ?chaos
        ?deadline_ms:eng.Cli_common.ea_deadline_ms
        ~max_retries:eng.Cli_common.ea_max_retries ~banner
        ~verbose:(not quiet) ()
    in
    let t = Service.Server.start cfg in
    (* SIGINT/SIGTERM drain and stop; a client SHUTDOWN does the same. *)
    let stop_sig _ =
      (* Signal context: just flag the shutdown; [wait] below returns
         and the main thread does the real teardown. *)
      ignore (Thread.create (fun () -> Service.Server.stop t) ())
    in
    if Sys.unix then begin
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop_sig);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_sig)
    end;
    Fmt.epr "[serve] ready on %a (exec tier %s)@." P.pp_addr
      (Service.Server.bound_addr t)
      (Xloops.Sim.Tier.name eng.Cli_common.ea_exec_tier);
    Service.Server.wait t;
    Service.Server.stop t;
    0

let cmd =
  let doc = "run the persistent XLOOPS simulation service" in
  Cmd.v (Cmd.info "xloops_serve" ~doc)
    Term.(const serve $ listen_arg $ client_op_arg $ json_arg
          $ queue_limit_arg
          (* the daemon amortizes compilation across requests, so its
             functional runs default to the fastest tier *)
          $ Cli_common.engine_term ~pool:true
              ~tier_default:Xloops.Sim.Tier.Block ()
          $ chaos_seed_arg $ chaos_events_arg $ banner_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)
