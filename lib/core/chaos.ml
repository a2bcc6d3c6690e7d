(** Seeded chaos plans for the orchestration infrastructure.

    [lib/sim/fault.ml] injects faults into the {e simulated machine};
    this module injects them into the {e machinery that runs the
    sweeps}: cache reads that error out, stored blobs that rot on disk
    (bit flips, truncation), workers that stall or crash, and whole
    sweeps that die halfway.  Like a fault plan, a chaos plan is a
    deterministic schedule derived from a seed — the same
    [(seed, events, kinds)] names the same injection schedule, so a
    failing CI run replays exactly.

    Time is measured in {e opportunities}: every hook site
    ({!fire} call) advances a shared counter, and a pending event fires
    at the first opportunity at or past its offset whose site accepts
    its kind.  Under a serial sweep the schedule is fully deterministic;
    under a parallel one the set of injected events still is (the plan
    is consumed under a lock), only their interleaving varies. *)

type kind =
  | Cache_read_error   (** a cache lookup fails as if unreadable *)
  | Blob_bitflip       (** flip one bit of a just-written cache blob *)
  | Blob_truncate      (** cut a just-written cache blob short *)
  | Worker_stall       (** sleep a worker before it runs its item *)
  | Worker_abort       (** crash a worker (transient, retryable) *)
  | Sweep_abort        (** kill the whole sweep mid-flight *)

(* [Sweep_abort] is deliberately not in the default draw: a plan of
   recoverable events must leave a sweep exiting 0 with byte-identical
   results; killing the sweep is its own, opt-in, kind. *)
let recoverable_kinds =
  [ Cache_read_error; Blob_bitflip; Blob_truncate; Worker_stall;
    Worker_abort ]

let all_kinds = recoverable_kinds @ [ Sweep_abort ]

let kind_name = function
  | Cache_read_error -> "cache-read-error"
  | Blob_bitflip -> "blob-bitflip"
  | Blob_truncate -> "blob-truncate"
  | Worker_stall -> "worker-stall"
  | Worker_abort -> "worker-abort"
  | Sweep_abort -> "sweep-abort"

let pp_kind ppf k = Fmt.string ppf (kind_name k)

type event = { ev_op : int; ev_kind : kind }

type t = {
  seed : int;
  stall_ms : int;
  mu : Mutex.t;
  mutable op : int;                      (* opportunities seen so far *)
  mutable pending : event list;          (* sorted by ev_op *)
  mutable injected : (kind * int) list;  (* kind, opportunity; newest first *)
}

(* Same SplitMix64 generator as [Fault] / [Failure]. *)
let mix s =
  let s = Int64.add s 0x9E3779B97F4A7C15L in
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_int state bound =
  state := mix !state;
  Int64.to_int (Int64.rem (Int64.shift_right_logical !state 2)
                  (Int64.of_int bound))

let of_events evs ~seed ~stall_ms =
  { seed; stall_ms; mu = Mutex.create (); op = 0;
    pending = List.stable_sort (fun a b -> compare a.ev_op b.ev_op) evs;
    injected = [] }

(** Build a plan of [events] injections from [seed]: kinds round-robin
    from [kinds] (default {!recoverable_kinds}), at small jittered
    opportunity offsets so even a quick sweep reaches them. *)
let plan ?(kinds = recoverable_kinds) ?(stall_ms = 100) ~seed ~events () =
  if events < 0 then invalid_arg "Chaos.plan: negative event count";
  if kinds = [] then invalid_arg "Chaos.plan: empty kind list";
  let state = ref (Int64.of_int (seed * 2 + 1)) in
  let evs =
    List.init events (fun i ->
        { ev_op = 1 + i * 4 + rand_int state 6;
          ev_kind = List.nth kinds (i mod List.length kinds) })
  in
  of_events evs ~seed ~stall_ms

(** A hand-written plan of [(opportunity, kind)] pairs (tests, targeted
    reproduction). *)
let explicit ?(stall_ms = 100) evs =
  of_events
    (List.map (fun (op, k) -> { ev_op = op; ev_kind = k }) evs)
    ~seed:0 ~stall_ms

let none () = of_events [] ~seed:0 ~stall_ms:0

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(** One injection opportunity at a site that can apply [kinds]: advance
    the opportunity counter and pop the first due, applicable pending
    event (at most one per call).  Due events of other kinds stay
    pending for the next applicable site. *)
let fire t kinds =
  locked t @@ fun () ->
  t.op <- t.op + 1;
  let rec pop acc = function
    | [] -> None
    | e :: tl when e.ev_op <= t.op && List.mem e.ev_kind kinds ->
      t.pending <- List.rev_append acc tl;
      t.injected <- (e.ev_kind, t.op) :: t.injected;
      Some e.ev_kind
    | e :: tl -> pop (e :: acc) tl
  in
  pop [] t.pending

let injected t = locked t (fun () -> List.rev t.injected)
let injected_count t = locked t (fun () -> List.length t.injected)
let pending t = locked t (fun () -> List.length t.pending)

let pp_plan ppf t =
  let pend, inj = locked t (fun () -> (t.pending, List.rev t.injected)) in
  Fmt.pf ppf "@[<v>chaos plan (seed %d): %d pending, %d injected@,%a@]"
    t.seed (List.length pend) (List.length inj)
    (Fmt.list ~sep:Fmt.cut
       (fun ppf e ->
          Fmt.pf ppf "  @@%-4d %a" e.ev_op pp_kind e.ev_kind))
    pend

(* -- Hook implementations ------------------------------------------------ *)

(** Worker-side hook, called once per sweep item before it executes.
    May sleep ([Worker_stall]), raise [Failure.Transient_crash]
    ([Worker_abort]) or raise [Failure.Abort] ([Sweep_abort]). *)
let before_item t =
  match fire t [ Worker_stall; Worker_abort; Sweep_abort ] with
  | None -> ()
  | Some Worker_stall -> Unix.sleepf (float_of_int t.stall_ms /. 1e3)
  | Some Worker_abort ->
    raise (Failure.Transient_crash "chaos: injected worker abort")
  | Some Sweep_abort ->
    raise (Failure.Abort "chaos: injected mid-sweep abort")
  | Some _ -> ()

(** Cache-read hook: [true] means "pretend this blob is unreadable". *)
let read_error t =
  match fire t [ Cache_read_error ] with
  | Some Cache_read_error -> true
  | _ -> false

(** Apply [kind]'s corruption to the [len] bytes at [pos] of the file at
    [path], in place: flip one bit in their middle, or cut them there by
    zeroing their second half (the bytes around them, such as a cache
    record's framing, stay intact).  Returns [false] when the span is
    too small to corrupt meaningfully. *)
let corrupt kind path ~pos ~len =
  match kind with
  | (Blob_bitflip | Blob_truncate) when len >= 2 ->
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    let mid = pos + len / 2 in
    let bytes =
      if kind = Blob_truncate then Bytes.make (len - len / 2) '\000'
      else begin
        let b = Bytes.create 1 in
        ignore (Unix.lseek fd mid Unix.SEEK_SET);
        ignore (Unix.read fd b 0 1);
        Bytes.make 1 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10))
      end
    in
    ignore (Unix.lseek fd mid Unix.SEEK_SET);
    ignore (Unix.write fd bytes 0 (Bytes.length bytes));
    true
  | _ -> false

(** Store-side hook: corrupt the just-written blob at [pos, pos + len)
    of [path] if the plan says so. *)
let after_store t path ~pos ~len =
  match fire t [ Blob_bitflip; Blob_truncate ] with
  | Some (Blob_bitflip | Blob_truncate as k) ->
    (try ignore (corrupt k path ~pos ~len)
     with Sys_error _ | Unix.Unix_error _ -> ())
  | _ -> ()
