(** Shared-resource arbiter: the LPSU lanes and the GPP dynamically
    arbitrate for the data-memory port and the long-latency functional
    unit (Figure 4).  A port grants at most [width] requests per cycle;
    [occupancy] models unpipelined resources (the divider). *)

type t

val create : ?width:int -> string -> t

val try_grant : t -> now:int -> occupancy:int -> bool
(** Attempt to acquire the port at cycle [now]; [occupancy > 1] keeps
    the whole port busy until [now + occupancy] (an unpipelined unit),
    [occupancy = 1] takes one of the cycle's [width] slots. *)

val hold : t -> until:int -> unit
(** Keep the port busy until the given cycle (miss occupancy). *)

val inject_stall : t -> now:int -> cycles:int -> unit
(** Fault-injection hook: jam the port for [cycles] starting at [now],
    modelling a transient resource timeout.  Requesters see ordinary
    conflicts. *)

val busy_until : t -> int
(** The cycle from which the port is free again: every request before
    it is denied, whatever its width.  A cycle at or before the current
    one means the port is only limited by its per-cycle width. *)

val reset : t -> unit
