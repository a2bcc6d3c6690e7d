(** Deterministic fault injection and structured hang diagnostics for the
    LPSU (the robustness layer around Section II-D's squash/restart
    machinery).

    A {e fault plan} is a seeded, reproducible schedule of transient
    faults to inject into LPSU structures while a specialized loop runs:
    dropped or duplicated CIB forwards, lost LSQ store-broadcasts,
    corrupted IDQ index values, stale MIVT seeds, memory-port stalls and
    frozen lanes.  Event times are {e relative to the start of a
    specialized run}, so the same plan means the same thing on every
    machine configuration; each event fires in the first specialized run
    that reaches its cycle offset and finds an applicable target.

    A {e hang} is what the progress watchdog reports instead of blind
    fuel exhaustion: which shared resource the LPSU is blocked on, at
    which cycle, after how many committed iterations.  The machine either
    surfaces it as a structured failure or — with graceful degradation
    enabled — squashes the loop, restores the architectural checkpoint
    and re-executes traditionally on the GPP (the paper's compatibility
    escape hatch, here exercised under adversarial conditions). *)

type kind =
  | Cib_drop            (** lose the newest cross-iteration forward *)
  | Cib_dup             (** duplicate a CIB value to the next consumer *)
  | Lsq_drop_load       (** forget a lane's newest recorded load *)
  | Lsq_lost_broadcast  (** swallow the next store broadcast *)
  | Idq_corrupt         (** corrupt a running iteration's index value *)
  | Mivt_stale          (** reseed an MIV register with its stale base *)
  | Port_stall          (** jam the shared data-memory port *)
  | Lane_freeze         (** freeze a lane's issue logic for good *)

let all_kinds =
  [ Cib_drop; Cib_dup; Lsq_drop_load; Lsq_lost_broadcast; Idq_corrupt;
    Mivt_stale; Port_stall; Lane_freeze ]

let kind_name = function
  | Cib_drop -> "cib-drop"
  | Cib_dup -> "cib-dup"
  | Lsq_drop_load -> "lsq-drop-load"
  | Lsq_lost_broadcast -> "lsq-lost-broadcast"
  | Idq_corrupt -> "idq-corrupt"
  | Mivt_stale -> "mivt-stale"
  | Port_stall -> "port-stall"
  | Lane_freeze -> "lane-freeze"

let pp_kind ppf k = Fmt.string ppf (kind_name k)

type event = {
  ev_after : int;   (** cycles after the start of a specialized run *)
  ev_lane : int;    (** target lane / structure selector (taken mod) *)
  ev_kind : kind;
}

type t = {
  seed : int;
  mutable pending : event list;          (* sorted by [ev_after] *)
  mutable injected : kind list;          (* newest first *)
}

(* SplitMix-style deterministic generator: no dependence on the global
   Random state, so a (seed, events) pair names one reproducible plan. *)
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

(** Build a plan of [events] faults from [seed].  Kinds are drawn
    round-robin from [kinds] (default {!all_kinds}, with freezes last in
    each round so corruptions land before the watchdog can fire), at
    small jittered offsets so short specialized runs still reach them. *)
let plan ?(kinds = all_kinds) ~seed ~events () =
  if events < 0 then invalid_arg "Fault.plan: negative event count";
  if kinds = [] then invalid_arg "Fault.plan: empty kind list";
  let state = ref (Int64.of_int (seed * 2 + 1)) in
  let nk = List.length kinds in
  let evs =
    List.init events (fun i ->
        { ev_after = 2 + (i / nk) * 24 + rand_int state 20;
          ev_lane = rand_int state 8;
          ev_kind = List.nth kinds (i mod nk) })
  in
  { seed;
    pending = List.stable_sort (fun a b -> compare a.ev_after b.ev_after) evs;
    injected = [] }

(** A hand-written plan (tests, targeted repro). *)
let explicit events =
  { seed = 0;
    pending =
      List.stable_sort (fun a b -> compare a.ev_after b.ev_after) events;
    injected = [] }

(** Offer the events due at [rel] to [apply] in plan order; record the
    applied ones and leave the declined ones in place. *)
let fire t ~rel apply =
  let rec go = function
    | e :: rest when e.ev_after <= rel ->
      if apply e then (t.injected <- e.ev_kind :: t.injected; go rest)
      else e :: go rest
    | later -> later
  in
  t.pending <- go t.pending

let next_due t ~rel =
  match List.find_opt (fun e -> e.ev_after > rel) t.pending with
  | Some e -> e.ev_after
  | None -> max_int

let injected t = List.length t.injected

let injected_kinds t = List.sort_uniq compare t.injected

let pending t = List.length t.pending

let pp_plan ppf t =
  Fmt.pf ppf "@[<v>fault plan (seed %d): %d pending, %d injected@,%a@]"
    t.seed (List.length t.pending) (List.length t.injected)
    (Fmt.list ~sep:Fmt.cut
       (fun ppf e ->
          Fmt.pf ppf "  +%-5d lane%d %a" e.ev_after e.ev_lane pp_kind
            e.ev_kind))
    t.pending

(* -- Hang diagnostics -------------------------------------------------- *)

(** The shared resource the watchdog found the LPSU blocked on. *)
type resource =
  | Cib_chain        (** a cross-iteration register chain never fills *)
  | Lsq_full         (** every lane is load/store-queue bound *)
  | Port_starved     (** the shared memory port never frees up *)
  | Lane_frozen      (** an injected lane freeze pins the commit point *)
  | Fuel             (** cycle budget exhausted without a diagnosis *)
  | Trapped          (** an architectural trap escaped a lane mid-run *)
  | No_progress      (** stalled, but on no single identifiable resource *)

let resource_name = function
  | Cib_chain -> "CIB chain"
  | Lsq_full -> "LSQ full"
  | Port_starved -> "memory-port starvation"
  | Lane_frozen -> "frozen lane"
  | Fuel -> "out of fuel"
  | Trapped -> "architectural trap"
  | No_progress -> "no progress"

type hang = {
  h_resource : resource;
  h_cycle : int;       (** absolute cycle the watchdog fired at *)
  h_committed : int;   (** iterations committed before the hang *)
  h_detail : string;
}

let pp_hang ppf h =
  Fmt.pf ppf "LPSU hang at cycle %d after %d iterations: %s (%s)"
    h.h_cycle h.h_committed (resource_name h.h_resource) h.h_detail
