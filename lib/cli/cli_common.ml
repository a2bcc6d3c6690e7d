(* Shared plumbing for the CLI tools: common argument parsers, the
   robustness flags (--fuel, --watchdog-cycles, --fault-seed, ...), and a
   top-level guard that turns expected failures — unknown kernel or
   config, malformed arguments, fuel exhaustion — into a one-line
   diagnostic on stderr and a nonzero exit instead of a backtrace. *)

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
  ea_exec_tier : Sim.Tier.t;    (* functional-run execution tier *)
}

let fuel_doc =
  "GPP instruction budget; exhausting it is an error (env XLOOPS_FUEL)."
let watchdog_doc =
  "LPSU no-progress watchdog threshold in cycles, 0 = off \
   (env XLOOPS_WATCHDOG_CYCLES)."
let deadline_doc =
  "Per-run wall-clock deadline in milliseconds, 0 = none: a run that \
   finishes slower than this fails as a timeout (env XLOOPS_DEADLINE_MS)."
let max_retries_doc =
  "Extra attempts for transient failures (blown deadlines, I/O errors, \
   environmental crashes), with deterministic exponential backoff \
   between attempts (env XLOOPS_MAX_RETRIES)."
let jobs_doc = "Worker domains for parallel execution (env XLOOPS_JOBS)."
let cache_dir_doc =
  "Content-addressed on-disk result cache directory \
   (env XLOOPS_CACHE_DIR)."
let no_cache_doc = "Disable the on-disk result cache."
let cache_limit_mb_doc =
  "Size bound on the result cache in megabytes: least-recently-written \
   blobs past it are reaped at startup (env XLOOPS_CACHE_LIMIT_MB)."
let exec_tier_doc =
  "Execution tier for functional (observer-free) runs: ref, predecode, \
   threaded or block (env XLOOPS_EXEC_TIER).  All tiers are \
   architecturally identical; timing models are unaffected, except \
   that LPSU lanes use compiled dispatch for plain instructions unless \
   the ref tier is selected or an observer is attached."

let env_opt_int ?min var =
  match Sys.getenv_opt var with
  | None -> None
  | Some _ ->
    (match Pool.env_int ?min ~default:(-1) var with
     | -1 -> None
     | n -> Some n)

(** The pre-flag engine arguments: XLOOPS_* where set, built-in
    defaults otherwise.  [max_retries] lets a tool keep its own retry
    default (bench ships with 2, the single-run tools with 0). *)
let default_engine_args ?(max_retries = 0) () =
  { ea_fuel = env_opt_int ~min:1 "XLOOPS_FUEL";
    ea_watchdog = env_opt_int "XLOOPS_WATCHDOG_CYCLES";
    ea_deadline_ms =
      (match env_opt_int "XLOOPS_DEADLINE_MS" with
       | Some 0 | None -> None
       | Some n -> Some n);
    ea_max_retries =
      Pool.env_int ~default:max_retries "XLOOPS_MAX_RETRIES";
    ea_jobs = Pool.default_jobs ();   (* XLOOPS_JOBS, the shared path *)
    ea_cache_dir =
      Some (Option.value (Sys.getenv_opt "XLOOPS_CACHE_DIR")
              ~default:Run_cache.default_dir);
    ea_cache_limit_mb = env_opt_int ~min:1 "XLOOPS_CACHE_LIMIT_MB";
    (* Tier.get is initialized from XLOOPS_EXEC_TIER at module init *)
    ea_exec_tier = Sim.Tier.get () }

let fuel_arg =
  Arg.(value & opt (some int) None & info [ "fuel" ] ~doc:fuel_doc)

let watchdog_arg =
  Arg.(value & opt (some int) None
       & info [ "watchdog-cycles" ] ~doc:watchdog_doc)

let deadline_arg =
  Arg.(value & opt (some int) None
       & info [ "deadline-ms" ] ~doc:deadline_doc)

let max_retries_arg =
  Arg.(value & opt (some int) None
       & info [ "max-retries" ] ~doc:max_retries_doc)

let jobs_arg =
  Arg.(value & opt (some int) None & info [ "jobs" ] ~doc:jobs_doc)

let cache_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~doc:cache_dir_doc)

let no_cache_arg = Arg.(value & flag & info [ "no-cache" ] ~doc:no_cache_doc)

let cache_limit_mb_arg =
  Arg.(value & opt (some int) None
       & info [ "cache-limit-mb" ] ~doc:cache_limit_mb_doc)

let tier_conv =
  let parse s =
    match Sim.Tier.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf t -> Fmt.string ppf (Sim.Tier.name t))

let exec_tier_arg =
  Arg.(value & opt (some tier_conv) None
       & info [ "exec-tier" ] ~doc:exec_tier_doc)

(** The Cmdliner form of the record.  [pool] additionally surfaces
    [--jobs]/[--cache-dir]/[--no-cache] (the daemon); the single-run
    tools leave them at their defaults.  [tier_default] lets a tool pick
    its own tier when neither the flag nor the environment chose one
    (the sweep service defaults to [Threaded]).  The resolved tier is
    installed process-wide ({!Sim.Tier.set}) as part of parsing, so
    every functional-run site downstream observes it. *)
let engine_term ?(pool = false) ?max_retries ?tier_default ()
  : engine_args Cmdliner.Term.t =
  let combine fuel watchdog deadline retries jobs cache_dir no_cache
      cache_limit_mb exec_tier =
    let d = default_engine_args ?max_retries () in
    let tier =
      match exec_tier with
      | Some t -> t
      | None ->
        (match Sys.getenv_opt Sim.Tier.env_var with
         | Some s when s <> "" -> d.ea_exec_tier   (* env already applied *)
         | _ -> Option.value tier_default ~default:d.ea_exec_tier)
    in
    Sim.Tier.set tier;
    { ea_fuel = (match fuel with Some _ -> fuel | None -> d.ea_fuel);
      ea_watchdog =
        (match watchdog with Some _ -> watchdog | None -> d.ea_watchdog);
      ea_deadline_ms =
        (match deadline with
         | Some 0 -> None
         | Some _ -> deadline
         | None -> d.ea_deadline_ms);
      ea_max_retries = Option.value retries ~default:d.ea_max_retries;
      ea_jobs = Option.value jobs ~default:d.ea_jobs;
      ea_cache_dir =
        (if no_cache then None
         else match cache_dir with Some _ -> cache_dir
                                 | None -> d.ea_cache_dir);
      ea_cache_limit_mb =
        (match cache_limit_mb with
         | Some _ -> cache_limit_mb
         | None -> d.ea_cache_limit_mb);
      ea_exec_tier = tier }
  in
  if pool then
    Term.(const combine $ fuel_arg $ watchdog_arg $ deadline_arg
          $ max_retries_arg $ jobs_arg $ cache_dir_arg $ no_cache_arg
          $ cache_limit_mb_arg $ exec_tier_arg)
  else
    Term.(const combine $ fuel_arg $ watchdog_arg $ deadline_arg
          $ max_retries_arg $ const None $ const None $ const false
          $ const None $ exec_tier_arg)

(** Hand-rolled-parser form of the same flags for bench/main.exe (which
    parses argv itself): consume one engine flag from the head of
    [args] into [o], or return [None] if the head is not an engine
    flag.  Malformed values exit 2 with one diagnostic wording. *)
let consume_engine_flag (o : engine_args ref) (args : string list) :
  string list option =
  let int_arg ?(min = 0) flag v k =
    match int_of_string_opt v with
    | Some n when n >= min -> k n
    | _ ->
      Fmt.epr "error: bad value %S for %s (want an integer >= %d)@."
        v flag min;
      exit 2
  in
  match args with
  | "--fuel" :: v :: tl ->
    int_arg ~min:1 "--fuel" v (fun n -> o := { !o with ea_fuel = Some n });
    Some tl
  | "--watchdog-cycles" :: v :: tl ->
    int_arg "--watchdog-cycles" v
      (fun n -> o := { !o with ea_watchdog = Some n });
    Some tl
  | "--deadline-ms" :: v :: tl ->
    int_arg "--deadline-ms" v
      (fun n ->
         o := { !o with ea_deadline_ms = (if n = 0 then None else Some n) });
    Some tl
  | "--max-retries" :: v :: tl ->
    int_arg "--max-retries" v
      (fun n -> o := { !o with ea_max_retries = n });
    Some tl
  | "--jobs" :: v :: tl ->
    int_arg ~min:1 "--jobs" v (fun n -> o := { !o with ea_jobs = n });
    Some tl
  | "--cache-dir" :: d :: tl ->
    o := { !o with ea_cache_dir = Some d };
    Some tl
  | "--cache-limit-mb" :: v :: tl ->
    int_arg ~min:1 "--cache-limit-mb" v
      (fun n -> o := { !o with ea_cache_limit_mb = Some n });
    Some tl
  | "--no-cache" :: tl ->
    o := { !o with ea_cache_dir = None };
    Some tl
  | "--exec-tier" :: v :: tl ->
    (match Sim.Tier.of_string v with
     | Ok t ->
       Sim.Tier.set t;
       o := { !o with ea_exec_tier = t }
     | Error msg ->
       Fmt.epr "error: bad value for --exec-tier: %s@." msg;
       exit 2);
    Some tl
  | _ -> None

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

let faults_of ~seed ~events =
  Option.map (fun s -> Sim.Fault.plan ~seed:s ~events ()) seed

(** Run one simulation thunk under the CLI retry policy
    ({!Xloops.Failure.with_retries}), with the deadline and retry
    budget of the unified engine arguments.  [salt] keys the
    deterministic backoff schedule — pass the spec digest. *)
let with_policy ~(eng : engine_args) ~salt f =
  let o =
    Xloops.Failure.with_retries ?deadline_ms:eng.ea_deadline_ms
      ~max_retries:eng.ea_max_retries ~salt f
  in
  if o.Xloops.Failure.attempts > 1 then
    Fmt.epr "[retry] %s: %d attempt(s), %d ms total@." salt
      o.Xloops.Failure.attempts o.Xloops.Failure.elapsed_ms;
  o

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
