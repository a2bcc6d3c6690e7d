(** Deterministic fault injection and structured hang diagnostics for
    the LPSU: seeded plans of transient faults (dropped/duplicated CIB
    forwards, lost store broadcasts, corrupted IDQ entries, stale MIVT
    seeds, port stalls, lane freezes) plus the watchdog's structured
    hang reports, which name the blocked resource instead of dying of
    fuel exhaustion. *)

type kind =
  | Cib_drop            (** lose the newest cross-iteration forward *)
  | Cib_dup             (** duplicate a CIB value to the next consumer *)
  | Lsq_drop_load       (** forget a lane's newest recorded load *)
  | Lsq_lost_broadcast  (** swallow the next store broadcast *)
  | Idq_corrupt         (** corrupt a running iteration's index value *)
  | Mivt_stale          (** reseed an MIV register with its stale base *)
  | Port_stall          (** jam the shared data-memory port *)
  | Lane_freeze         (** freeze a lane's issue logic for good *)

val all_kinds : kind list
val kind_name : kind -> string
val pp_kind : Format.formatter -> kind -> unit

type event = {
  ev_after : int;   (** cycles after the start of a specialized run *)
  ev_lane : int;    (** target lane / structure selector (taken mod) *)
  ev_kind : kind;
}

type t

val plan : ?kinds:kind list -> seed:int -> events:int -> unit -> t
(** Reproducible plan: same [(seed, events, kinds)] → same schedule.
    Raises [Invalid_argument] on a negative count or empty kind list. *)

val explicit : event list -> t
(** A hand-written plan (tests, targeted reproduction). *)

val fire : t -> rel:int -> cycle:int -> (event -> bool) -> unit
(** Offer each event due at relative cycle [rel] to the injector, in
    plan order.  One it applies ([true]) leaves the plan and is recorded
    at [cycle]; one it declines stays in its place for a later call. *)

val next_due : t -> rel:int -> int
(** The offset of the first pending event not yet due at [rel], or
    [max_int] if there is none. *)

val injected : t -> int
(** Number of faults actually applied so far. *)

val injected_kinds : t -> kind list
val pending : t -> int
val pp_plan : Format.formatter -> t -> unit

(** {1 Hang diagnostics} *)

type resource =
  | Cib_chain        (** a cross-iteration register chain never fills *)
  | Lsq_full         (** every lane is load/store-queue bound *)
  | Port_starved     (** the shared memory port never frees up *)
  | Lane_frozen      (** an injected lane freeze pins the commit point *)
  | Fuel             (** cycle budget exhausted without a diagnosis *)
  | Trapped          (** an architectural trap escaped a lane mid-run *)
  | No_progress      (** stalled, but on no single identifiable resource *)

val resource_name : resource -> string

type hang = {
  h_resource : resource;
  h_cycle : int;       (** absolute cycle the watchdog fired at *)
  h_committed : int;   (** iterations committed before the hang *)
  h_detail : string;
}

val pp_hang : Format.formatter -> hang -> unit
