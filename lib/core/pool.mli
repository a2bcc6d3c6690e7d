(** Domain-based worker pool: execute a list of independent,
    self-contained work items (in practice {!Run_spec.t}s) on OCaml 5
    domains.  Results preserve input order, so a parallel sweep is
    byte-identical to a serial one.

    {!map} is the plain fail-fast form; {!run_each} is the
    fault-tolerant form: per-item structured results, worker crash
    isolation, per-item deadlines, and seeded-backoff retry of
    transient failures. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val env_int : ?min:int -> default:int -> string -> int
(** [$var] parsed as an integer [>= min] (default 0), or [default].  A
    set-but-malformed value warns on stderr once per process per
    variable — the one code path every environment-knob consumer
    (this pool, the service daemon's worker count, the CLI engine
    defaults) shares. *)

val default_jobs : unit -> int
(** [env_int ~min:1 ~default:1 "XLOOPS_JOBS"]: [$XLOOPS_JOBS] if set to
    a positive integer, else 1. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] = [List.map f xs] on up to [jobs] domains
    (including the caller's).  [jobs] defaults to {!default_jobs}.
    Order-preserving.  If applications raise, the earliest-indexed
    exception is re-raised after every domain has been joined. *)

val iter : ?jobs:int -> ('a -> unit) -> 'a list -> unit

(** {1 Fault-tolerant execution} *)

type policy = {
  deadline_ms : int option;
      (** per-item wall-clock budget; exceeding it is a structured
          {!Failure.Timeout} (the simulator's fuel/watchdog budgets
          guarantee items terminate at all) *)
  max_retries : int;
      (** extra attempts for transient failures *)
  backoff_base_ms : int;
  backoff_seed : int;
      (** seed of the deterministic backoff schedule *)
}

val default_policy : policy
(** No deadline, 2 retries, 25 ms backoff base, seed 0. *)

type 'b outcome = 'b Failure.outcome = {
  result : ('b, Failure.t) result;
  attempts : int;
  elapsed_ms : int;
}

val run_each :
  ?jobs:int -> ?policy:policy -> ?salt:('a -> string) ->
  ('a -> 'b) -> 'a list -> 'b outcome list
(** Run [f] on every item with crash isolation: a failing or timed-out
    item yields a per-item [Error] instead of aborting the sweep;
    transient failures retry under [policy].  [salt] names items for
    backoff determinism.  Only {!Failure.Abort} escapes: workers stop
    pulling new items and the abort is re-raised after all domains have
    been joined. *)
