(** Shared-resource arbiter.  The LPSU lanes and the GPP dynamically
    arbitrate for the data-memory port and for the long-latency functional
    unit (Section II-D, Figure 4).  A port accepts at most [width] requests
    per cycle; [occupancy] additionally models an unpipelined resource that
    stays busy for several cycles (integer divide). *)

type t = {
  name : string;
  width : int;                       (* grants per cycle *)
  mutable cycle : int;               (* cycle the grant counter refers to *)
  mutable granted : int;             (* grants so far in [cycle] *)
  mutable busy_until : int;          (* for unpipelined occupancy *)
}

let create ?(width = 1) name =
  { name; width; cycle = -1; granted = 0; busy_until = 0 }

let sync_cycle t now =
  if now <> t.cycle then begin
    t.cycle <- now;
    t.granted <- 0
  end

(** [try_grant t ~now ~occupancy] attempts to acquire the port at cycle
    [now].  Returns [true] on success; [occupancy > 1] keeps the whole port
    busy (all slots) until [now + occupancy]. *)
let try_grant t ~now ~occupancy =
  sync_cycle t now;
  if now < t.busy_until || t.granted >= t.width then false
  else begin
    t.granted <- t.granted + 1;
    if occupancy > 1 then t.busy_until <- now + occupancy;
    true
  end

(** Extend the port's busy window (e.g. an L1 miss holds the single
    memory port until the fill returns). *)
let hold t ~until = if until > t.busy_until then t.busy_until <- until

(** Fault-injection hook: jam the port for [cycles] starting at [now],
    as if an external agent held the resource (a transient timeout).
    Requesters see ordinary conflicts; only the stall's origin differs. *)
let inject_stall t ~now ~cycles = hold t ~until:(now + cycles)

let busy_until t = t.busy_until

let reset t =
  t.cycle <- -1; t.granted <- 0; t.busy_until <- 0
