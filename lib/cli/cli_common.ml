(* Shared plumbing for the CLI tools: the one definition of every flag
   more than one tool takes (the engine flags, --fault-seed, the chaos
   flags, the --listen/--server address), the single-run path of
   xloops_run and xloops_trace, and a top-level guard that turns
   expected failures — unknown kernel or config, fuel exhaustion — into
   a one-line diagnostic on stderr and a nonzero exit instead of a
   backtrace.  Malformed or out-of-range flag values never reach a tool:
   Cmdliner rejects them as usage errors (exit 124). *)

open Cmdliner
module Sim = Xloops.Sim
module C = Xloops.Compiler

(* -- Service addresses ---------------------------------------------------
   One parser for every tool that names a socket: the daemon and
   bench --server accept the same spellings.  [Protocol.addr]
   re-exports this type, so the service library and the CLIs agree by
   construction. *)

type addr =
  | Unix_path of string
  | Tcp of string * int

let parse_addr s : (addr, string) result =
  let port_of p =
    match int_of_string_opt p with
    (* 0 is allowed: the kernel picks a free port (tests, CI). *)
    | Some n when n >= 0 && n < 65536 -> Ok n
    | _ -> Error (Fmt.str "bad port %S in address %S" p s)
  in
  match String.index_opt s ':' with
  | None -> Error (Fmt.str "bad address %S (want unix:PATH or HOST:PORT)" s)
  | Some i ->
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match scheme with
     | "unix" ->
       if rest = "" then Error "empty unix socket path"
       else Ok (Unix_path rest)
     | "tcp" ->
       (match String.rindex_opt rest ':' with
        | None -> Error (Fmt.str "bad address %S (want tcp:HOST:PORT)" s)
        | Some j ->
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          if host = "" then Error (Fmt.str "empty host in address %S" s)
          else Result.map (fun p -> Tcp (host, p)) (port_of port))
     | host when host <> "" -> Result.map (fun p -> Tcp (host, p)) (port_of rest)
     | _ -> Error (Fmt.str "bad address %S" s))

let pp_addr ppf = function
  | Unix_path p -> Fmt.pf ppf "unix:%s" p
  | Tcp (h, p) -> Fmt.pf ppf "tcp:%s:%d" h p

(** The Cmdliner converter for [--listen] and [--server]: a malformed
    address is a usage error. *)
let addr_conv = Arg.conv' (parse_addr, pp_addr)

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try (Unix.gethostbyname host).h_addr_list.(0)
      with Not_found | Invalid_argument _ ->
        Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (ip, port)

let parse_mode = function
  | "T" | "t" -> Sim.Machine.Traditional
  | "S" | "s" -> Sim.Machine.Specialized
  | "A" | "a" -> Sim.Machine.Adaptive
  | m -> invalid_arg ("unknown mode " ^ m ^ " (expected T, S or A)")

let parse_target = function
  | "general" -> C.Compile.general
  | "xloops" -> C.Compile.xloops
  | "xloops-no-xi" -> C.Compile.xloops_no_xi
  | t -> invalid_arg
           ("unknown target " ^ t
            ^ " (expected general, xloops or xloops-no-xi)")

(* -- The unified engine arguments ----------------------------------------
   One record, one flag wording, one set of XLOOPS_* environment
   fallbacks for every tool that executes run specs: xloops_run,
   xloops_trace, bench/main.exe and xloops_serve.  Flags beat the
   environment; the environment beats the built-in default.  Malformed
   environment values warn once per process through the same code path
   as [Pool.default_jobs] ([Pool.env_int]). *)

module Pool = Xloops.Pool
module Run_cache = Xloops.Run_cache

type engine_args = {
  ea_fuel : int option;         (* None: the tool's own budget default *)
  ea_watchdog : int option;     (* None: the simulator default *)
  ea_deadline_ms : int option;  (* None: no per-run deadline *)
  ea_max_retries : int;
  ea_jobs : int;
  ea_cache_dir : string option; (* None: on-disk cache disabled *)
  ea_cache_limit_mb : int option; (* None: unbounded cache *)
}

(* [$var] as a flag value: [None] when unset, or when malformed or
   below [min] ([Pool.env_int] warns about those once). *)
let env_opt_int ?min var =
  match Pool.env_int ?min ~default:(-1) var with -1 -> None | n -> Some n

(** An integer argument with a floor: a value below [min] is a usage
    error.  Each engine flag has the floor of its XLOOPS_* variable. *)
let int_at_least min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (Fmt.str "invalid value '%s', expected an integer >= %d" s min)
  in
  Arg.conv' (parse, Fmt.int)

let opt_int ~min name doc =
  Arg.(value & opt (some (int_at_least min)) None
       & info [ name ] ~docv:"N" ~doc)

let fuel_arg =
  opt_int ~min:1 "fuel"
    "GPP instruction budget; exhausting it is an error (env XLOOPS_FUEL)."

let watchdog_arg =
  opt_int ~min:0 "watchdog-cycles"
    "LPSU no-progress watchdog threshold in cycles, 0 = off \
     (env XLOOPS_WATCHDOG_CYCLES)."

let deadline_arg =
  opt_int ~min:0 "deadline-ms"
    "Per-run wall-clock deadline in milliseconds, 0 = none: a run that \
     finishes slower than this fails as a timeout (env XLOOPS_DEADLINE_MS)."

let max_retries_arg =
  opt_int ~min:0 "max-retries"
    "Extra attempts for transient failures (blown deadlines, I/O errors, \
     environmental crashes), with deterministic exponential backoff \
     between attempts (env XLOOPS_MAX_RETRIES)."

let jobs_arg =
  opt_int ~min:1 "jobs"
    "Worker domains for parallel execution (env XLOOPS_JOBS)."

let cache_dir_arg =
  let doc =
    "Content-addressed on-disk result cache directory \
     (env XLOOPS_CACHE_DIR)." in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc = "Disable the on-disk result cache; wins over --cache-dir." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_limit_mb_arg =
  opt_int ~min:1 "cache-limit-mb"
    "Size bound on the result cache in megabytes: least-recently-written \
     blobs past it are reaped at startup (env XLOOPS_CACHE_LIMIT_MB)."

(** The Cmdliner form of the record.  [pool] additionally surfaces
    [--jobs]/[--cache-dir]/[--no-cache]/[--cache-limit-mb] (bench and
    the daemon); the single-run tools leave them at their defaults.
    [max_retries] is the tool's retry default (bench ships with 2, the
    others with 0). *)
let engine_term ?(pool = false) ?(max_retries = 0) ()
  : engine_args Cmdliner.Term.t =
  let combine fuel watchdog deadline retries jobs cache_dir no_cache
      cache_limit_mb =
    let ( ||| ) flag env = match flag with Some _ -> flag | None -> env in
    { ea_fuel = fuel ||| env_opt_int ~min:1 "XLOOPS_FUEL";
      ea_watchdog = watchdog ||| env_opt_int "XLOOPS_WATCHDOG_CYCLES";
      ea_deadline_ms =
        (match deadline ||| env_opt_int "XLOOPS_DEADLINE_MS" with
         | Some 0 -> None
         | d -> d);
      ea_max_retries =
        Option.value retries
          ~default:(Pool.env_int ~default:max_retries "XLOOPS_MAX_RETRIES");
      (* XLOOPS_JOBS goes through the pool's own default *)
      ea_jobs = Option.value jobs ~default:(Pool.default_jobs ());
      ea_cache_dir =
        (if no_cache then None
         else
           cache_dir
           ||| Some (Option.value (Sys.getenv_opt "XLOOPS_CACHE_DIR")
                       ~default:Run_cache.default_dir));
      ea_cache_limit_mb =
        cache_limit_mb ||| env_opt_int ~min:1 "XLOOPS_CACHE_LIMIT_MB" }
  in
  if pool then
    Term.(const combine $ fuel_arg $ watchdog_arg $ deadline_arg
          $ max_retries_arg $ jobs_arg $ cache_dir_arg $ no_cache_arg
          $ cache_limit_mb_arg)
  else
    Term.(const combine $ fuel_arg $ watchdog_arg $ deadline_arg
          $ max_retries_arg $ const None $ const None $ const false
          $ const None)

(** Build the result cache the engine arguments describe.  Startup
    hygiene runs here — orphaned temp files are reaped, and a
    [--cache-limit-mb] bound triggers the LRU reap.  Diagnostics go to
    stderr under the given [tag]. *)
let cache_of_engine ?chaos ?(tag = "cache") (eng : engine_args) =
  match eng.ea_cache_dir with
  | None -> None
  | Some dir ->
    let limit_bytes =
      Option.map (fun mb -> mb * 1024 * 1024) eng.ea_cache_limit_mb
    in
    let c = Run_cache.create ~dir ?chaos ?limit_bytes () in
    let reaped = Run_cache.reap_tmp c in
    if reaped > 0 then
      Fmt.epr "[%s] reaped %d stale tmp file(s)@." tag reaped;
    let evicted = Run_cache.reap_over_limit c in
    if evicted > 0 then
      Fmt.epr "[%s] evicted %d blob(s) over the %d MB limit@." tag
        evicted (Option.value eng.ea_cache_limit_mb ~default:0);
    Some c

(* -- Chaos plans: the sweep machinery's own fault injection ------------- *)

let chaos_seed_arg =
  let doc = "Inject a seeded chaos plan: cache read errors, blob \
             corruption, worker stalls and transient crashes.  The \
             retry policy must absorb all of it." in
  Arg.(value & opt (some (int_at_least 0)) None
       & info [ "chaos-seed" ] ~docv:"N" ~doc)

let chaos_events_arg =
  let doc = "Number of chaos events in the plan (with --chaos-seed)." in
  Arg.(value & opt (int_at_least 0) 12 & info [ "chaos-events" ] ~docv:"N" ~doc)

(** The plan [--chaos-seed]/[--chaos-events] describe; [abort] adds
    mid-sweep aborts to the recoverable kinds. *)
let chaos_of ?(abort = false) ~seed ~events () =
  Option.map
    (fun seed ->
       Xloops.Chaos.plan ~seed ~events
         ~kinds:(if abort then Xloops.Chaos.all_kinds
                 else Xloops.Chaos.recoverable_kinds) ())
    seed

(* -- The single-run tools: xloops_run, xloops_trace (and xloops_disasm's
   kernel and target) ------------------------------------------------- *)

let kernel_arg =
  let doc = "Kernel name (see xloops_info for the list)." in
  Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~doc)

let config_arg =
  let doc = "Machine configuration: io, ooo/2, ooo/4, io+x, ooo/2+x, \
             ooo/4+x, or a Figure 9 design point." in
  Arg.(value & opt string "io+x" & info [ "c"; "config" ] ~doc)

let mode_arg =
  let doc = "Execution mode: T (traditional), S (specialized), \
             A (adaptive)." in
  Arg.(value & opt string "S" & info [ "m"; "mode" ] ~doc)

let target_arg =
  let doc = "Compilation target: general, xloops, xloops-no-xi." in
  Arg.(value & opt string "xloops" & info [ "t"; "target" ] ~doc)

let fault_seed_arg =
  let doc = "Inject a deterministic transient-fault plan with this seed \
             into every specialized run." in
  Arg.(value & opt (some int) None & info [ "fault-seed" ] ~doc)

let fault_events_arg =
  let doc = "Number of fault events in the plan (with --fault-seed)." in
  Arg.(value & opt int 12 & info [ "fault-events" ] ~doc)

let no_degrade_arg =
  let doc = "Disable the traditional-fallback safety net: a hung or \
             faulted specialized run fails the simulation instead of \
             rolling back." in
  Arg.(value & flag & info [ "no-degrade" ] ~doc)

(** Assemble the parsed CLI arguments into one first-class run plan —
    the record the evaluation engine executes and caches. *)
let spec_of ~(eng : engine_args) ~config ~mode ~target ~fault_seed
    ~fault_events ~no_degrade kernel : Xloops.Run_spec.t =
  Xloops.Run_spec.make
    ~target:(parse_target target)
    ~fuel:(Option.value eng.ea_fuel ~default:500_000_000)
    ~watchdog:(Option.value eng.ea_watchdog ~default:50_000)
    ?fault_seed:(Option.map (fun s -> (s, fault_events)) fault_seed)
    ~degrade:(not no_degrade)
    ~cfg:(Sim.Config.by_name config)
    ~mode:(parse_mode mode)
    kernel

(** The single-run path, as a term over the flags xloops_run and
    xloops_trace share ([target] is the tool's own).  It evaluates to
    [fun ~trace report -> code], which builds the spec, runs it under
    the retry policy ({!Xloops.Failure.with_retries}, keyed by the spec
    digest) and reports: a policy or simulation failure prints one
    [error:] line and yields exit 2; a completed run has its [wall_ns]
    stamped and goes to [report] with the wall-clock seconds.  With a
    [trace], a reached line limit is noted before either. *)
let run_term ~target =
  let run kernel config mode target eng fault_seed fault_events no_degrade
      ~trace report =
    let k = Xloops.Kernels.Registry.find kernel in
    let spec =
      spec_of ~eng ~config ~mode ~target ~fault_seed ~fault_events
        ~no_degrade kernel
    in
    let salt = Xloops.Digest_hex.to_hex (Xloops.Run_spec.digest spec) in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Xloops.Failure.with_retries ?deadline_ms:eng.ea_deadline_ms
        ~max_retries:eng.ea_max_retries ~salt
        (fun () -> Xloops.Run_spec.run_result ~kernel:k ?trace spec)
    in
    let wall = Unix.gettimeofday () -. t0 in
    if outcome.attempts > 1 then
      Fmt.epr "[retry] %s: %d attempt(s), %d ms total@." salt
        outcome.attempts outcome.elapsed_ms;
    if Sim.Trace.exhausted trace then Fmt.pr "... (trace limit reached)@.";
    let fail f =
      Fmt.epr "error: %s: %a@." k.name Xloops.Failure.pp_tagged f; 2
    in
    match outcome.result with
    | Error f -> fail f
    | Ok (Error f) -> fail (Xloops.Failure.Sim f)
    | Ok (Ok r) ->
      r.result.stats.wall_ns <- int_of_float (1e9 *. wall);
      report k spec r wall
  in
  Term.(const run $ kernel_arg $ config_arg $ mode_arg $ target
        $ engine_term () $ fault_seed_arg $ fault_events_arg
        $ no_degrade_arg)

(** Print one summary line when fault injection / degradation was live. *)
let report_robustness (s : Sim.Stats.t) =
  if s.faults_injected > 0 || s.watchdog_hangs > 0 || s.degradations > 0
  then
    Fmt.pr "robust:  %d fault(s) injected, %d hang(s), %d degradation(s)@."
      s.faults_injected s.watchdog_hangs s.degradations

let guarded f =
  try f () with
  | Xloops.Failure.Abort msg ->
    Fmt.epr "aborted: %s@." msg; 3
  | Xloops.Failure.Sim_failed sf ->
    Fmt.epr "error: simulation failed: %a@." Sim.Machine.pp_failure sf; 2
  | Invalid_argument msg | Stdlib.Failure msg ->
    Fmt.epr "error: %s@." msg; 2
  | Sys_error msg ->
    Fmt.epr "error: %s@." msg; 2
