(** Domain-based worker pool for evaluation sweeps.

    The unit of work is an independent, self-contained description (a
    {!Run_spec.t}, in practice): the pool just pulls indices off a
    shared atomic counter and runs the worker function on its own
    domain, so there is no inter-task communication at all — the only
    synchronization is the counter and the final joins.  Results come
    back in input order regardless of completion order, which is what
    keeps parallel sweeps byte-identical to serial ones.

    Two entry points share that machinery: {!map} is the plain
    fail-fast form (first exception wins, whole sweep dies — fine for
    tests and short interactive runs), and {!run_each} is the
    fault-tolerant form the orchestration layer uses: every item gets a
    structured per-item [('b, Failure.t) result], crashes are isolated
    to their item, transient failures retry with seeded backoff, a
    per-item deadline turns stalls into {!Failure.Timeout}s, and only
    {!Failure.Abort} (SIGINT translation, injected mid-sweep aborts)
    stops the sweep — promptly, because every worker checks a shared
    stop flag before pulling its next item. *)

let available_cores () = Domain.recommended_domain_count ()

(* Warn-once registry keyed by variable name: every consumer of a
   positive-integer environment knob (default_jobs here, the service
   daemon's worker count, the CLI engine defaults) goes through this one
   code path, so a malformed variable warns exactly once per process no
   matter how many subsystems consult it. *)
let env_warned : (string, unit) Hashtbl.t = Hashtbl.create 4
let env_warned_mu = Mutex.create ()

let warn_once var msg =
  Mutex.lock env_warned_mu;
  let first = not (Hashtbl.mem env_warned var) in
  if first then Hashtbl.replace env_warned var ();
  Mutex.unlock env_warned_mu;
  if first then Fmt.epr "%s" msg

(** [$var] parsed as an integer [>= min], or [default].  A set-but-
    malformed value would otherwise silently fall back behind the
    user's back (e.g. serialize a sweep they believed was parallel), so
    it warns on stderr — once per process per variable. *)
let env_int ?(min = 0) ~default var =
  match Sys.getenv_opt var with
  | None -> default
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= min -> n
     | _ ->
       warn_once var
         (Fmt.str "[env] warning: ignoring %s=%S (want an integer >= %d)@."
            var s min);
       default)

(** The job count to use when the caller gave none: [$XLOOPS_JOBS] if
    set to a positive integer, else 1 (serial — determinism of resource
    use by default; parallelism is opt-in). *)
let default_jobs () = env_int ~min:1 ~default:1 "XLOOPS_JOBS"

(* Shared fan-out skeleton: run [worker i] for every index on up to
   [jobs] domains (including the calling one), honoring a stop flag
   checked before each pull.  [worker] must not raise. *)
let fan_out ~jobs ~n ~stop worker =
  let next = Atomic.make 0 in
  let domain_worker () =
    let rec loop () =
      if not (Atomic.get stop) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin worker i; loop () end
      end
    in
    loop ()
  in
  let domains =
    List.init (min jobs n - 1) (fun _ -> Domain.spawn domain_worker) in
  domain_worker ();
  List.iter Domain.join domains

(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs]
    domains (including the calling one).  Order is preserved.  If any
    application raises, the exception of the earliest-indexed failing
    element is re-raised in the caller — after all workers have been
    joined, so no domain leaks. *)
let map ?jobs f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let input = Array.of_list xs in
    let out = Array.make n None in
    fan_out ~jobs ~n ~stop:(Atomic.make false) (fun i ->
        out.(i) <-
          Some (match f input.(i) with
                | v -> Ok v
                | exception e -> Error (e, Printexc.get_raw_backtrace ())));
    Array.to_list out
    |> List.map (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
  end

(** [iter ~jobs f xs] is {!map} with unit results. *)
let iter ?jobs f xs = ignore (map ?jobs (fun x -> f x; ()) xs)

(* -- Fault-tolerant execution ------------------------------------------- *)

(** The retry/deadline policy one sweep runs under.  [deadline_ms]
    bounds each item's wall clock — exceeding it is a structured
    {!Failure.Timeout}, relying on the simulator's own fuel/watchdog
    budgets (PR 1) for the guarantee that items terminate at all.
    Transient failures retry up to [max_retries] extra attempts with
    deterministic seeded exponential backoff. *)
type policy = {
  deadline_ms : int option;
  max_retries : int;
  backoff_base_ms : int;
  backoff_seed : int;
}

let default_policy =
  { deadline_ms = None; max_retries = 2; backoff_base_ms = 25;
    backoff_seed = 0 }

type 'b outcome = 'b Failure.outcome = {
  result : ('b, Failure.t) result;
  attempts : int;
  elapsed_ms : int;
}

exception Aborted_before_start

(** [run_each ~jobs ~policy ~salt f xs] runs [f] on every item with
    crash isolation: the result is a per-item {!outcome} in input
    order.  [salt] names an item for backoff determinism (default: its
    index).  {!Failure.Abort} is the one exception that escapes: the
    sweep stops promptly (workers finish their current item and stop
    pulling), already-finished outcomes are discarded, and the abort is
    re-raised after every domain has been joined. *)
let run_each ?jobs ?(policy = default_policy) ?salt f xs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let input = Array.of_list xs in
  let n = Array.length input in
  let salt_of =
    match salt with Some s -> s | None -> fun _ -> "" in
  let out = Array.make n None in
  let stop = Atomic.make false in
  let abort : (exn * Printexc.raw_backtrace) option Atomic.t =
    Atomic.make None in
  let worker i =
    let x = input.(i) in
    match
      Failure.with_retries
        ?deadline_ms:policy.deadline_ms
        ~max_retries:policy.max_retries
        ~backoff_base_ms:policy.backoff_base_ms
        ~seed:policy.backoff_seed
        ~salt:(Printf.sprintf "%d:%s" i (salt_of x))
        (fun () -> f x)
    with
    | outcome -> out.(i) <- Some outcome
    | exception (Failure.Abort _ as e) ->
      ignore
        (Atomic.compare_and_set abort None
           (Some (e, Printexc.get_raw_backtrace ())));
      Atomic.set stop true
  in
  if n > 0 then fan_out ~jobs ~n ~stop worker;
  match Atomic.get abort with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.to_list out
    |> List.map (function
        | Some o -> o
        | None ->
          (* Unreachable without an abort; keep the invariant loud. *)
          raise Aborted_before_start)
