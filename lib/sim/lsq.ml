(** Per-lane load-store queue for speculative execution of
    [xloop.{om,orm,ua}] (Section II-D).

    A speculative lane buffers its stores here instead of writing memory,
    records the addresses of its loads for violation detection, and reads
    through a byte-accurate overlay of its own buffered stores on top of
    architectural memory (store-to-load forwarding).

    Both queues are fixed-capacity arrays, oldest entry first: the LPSU
    checks [loads_full]/[stores_full] before every speculative access, so
    [max_loads] and [max_stores] bound them.  A store value is kept as the
    int of its little-endian bytes (low [bytes] bytes significant). *)

open Xloops_isa
module Memory = Xloops_mem.Memory

type t = {
  s_addr : int array;
  s_bytes : int array;
  s_value : int array;
  mutable n_stores : int;
  l_addr : int array;
  l_bytes : int array;
  l_src : int array;    (* forwarding source iteration, -1 if from memory *)
  l_raw : int array;    (* forwarded raw bytes, when [l_src >= 0] *)
  mutable n_loads : int;
}

let create ~max_loads ~max_stores =
  { s_addr = Array.make max_stores 0; s_bytes = Array.make max_stores 0;
    s_value = Array.make max_stores 0; n_stores = 0;
    l_addr = Array.make max_loads 0; l_bytes = Array.make max_loads 0;
    l_src = Array.make max_loads 0; l_raw = Array.make max_loads 0;
    n_loads = 0 }

let loads_full t = t.n_loads >= Array.length t.l_addr
let stores_full t = t.n_stores >= Array.length t.s_addr
let n_stores t = t.n_stores
let is_empty t = t.n_stores = 0 && t.n_loads = 0

let clear t = t.n_stores <- 0; t.n_loads <- 0

let[@inline] ranges_overlap a an b bn = a < b + bn && b < a + an

(** Does any buffered store overlap [addr, addr+bytes)?  (Used to decide
    whether a load can forward without touching the memory port.) *)
let store_overlaps t ~addr ~bytes =
  let i = ref 0 in
  while !i < t.n_stores
        && not (ranges_overlap t.s_addr.(!i) t.s_bytes.(!i) addr bytes) do
    incr i
  done;
  !i < t.n_stores

(** Has this lane already issued a load overlapping [addr, addr+bytes)?
    (Violation check against a broadcast store.) *)
let load_overlaps t ~addr ~bytes =
  let i = ref 0 in
  while !i < t.n_loads
        && not (ranges_overlap t.l_addr.(!i) t.l_bytes.(!i) addr bytes) do
    incr i
  done;
  !i < t.n_loads

let push_load t ~addr ~bytes ~src ~raw =
  let i = t.n_loads in
  if i >= Array.length t.l_addr then invalid_arg "Lsq.record_load: full";
  t.l_addr.(i) <- addr;
  t.l_bytes.(i) <- bytes;
  t.l_src.(i) <- src;
  t.l_raw.(i) <- raw;
  t.n_loads <- i + 1

let record_load t ~addr ~bytes = push_load t ~addr ~bytes ~src:(-1) ~raw:0

let record_forwarded_load t ~addr ~bytes ~from_iter ~raw =
  push_load t ~addr ~bytes ~src:from_iter ~raw

let record_store t ~addr ~bytes ~value =
  let i = t.n_stores in
  if i >= Array.length t.s_addr then invalid_arg "Lsq.record_store: full";
  t.s_addr.(i) <- addr;
  t.s_bytes.(i) <- bytes;
  t.s_value.(i) <- value;
  t.n_stores <- i + 1

let[@inline] byte_of value ~base addr =
  (value lsr ((addr - base) * 8)) land 0xFF

(** Read one byte through the overlay: the youngest buffered store covering
    the byte wins, otherwise architectural memory. *)
let read_byte t mem addr =
  let i = ref (t.n_stores - 1) in
  while !i >= 0
        && not (addr >= t.s_addr.(!i) && addr < t.s_addr.(!i) + t.s_bytes.(!i))
  do decr i done;
  if !i < 0 then Memory.get_u8 mem addr
  else byte_of t.s_value.(!i) ~base:t.s_addr.(!i) addr

let sext v bits =
  let m = 1 lsl (bits - 1) in
  ((v lxor m) - m)

(** Architectural load through the overlay, sign- or zero-extended. *)
let read t mem (w : Insn.width) addr =
  let nbytes = Memory.width_bytes w in
  let raw = ref 0 in
  for i = nbytes - 1 downto 0 do
    raw := (!raw lsl 8) lor read_byte t mem (addr + i)
  done;
  match w with
  | B -> sext !raw 8
  | H -> sext !raw 16
  | Bu | Hu -> !raw
  | W -> sext !raw 32

let store_addr t i = t.s_addr.(i)
let store_bytes t i = t.s_bytes.(i)
let store_value t i = t.s_value.(i)

(** Write the [i]-th oldest buffered store to memory. *)
let drain_store t mem i =
  let base = t.s_addr.(i) and v = t.s_value.(i) in
  for a = base to base + t.s_bytes.(i) - 1 do
    Memory.set_u8 mem a (byte_of v ~base a)
  done

(* Raw little-endian bytes of [addr, addr+bytes) within a value stored
   at [base]. *)
let raw_within value ~base ~addr ~bytes =
  let raw = ref 0 in
  for i = bytes - 1 downto 0 do
    raw := (!raw lsl 8) lor byte_of value ~base (addr + i)
  done;
  !raw

(** Raw bytes over [addr, addr+bytes) of the youngest single buffered
    store fully covering that range, or -1 if none does — the only case
    where an inter-lane forward is attempted (partial covers fall back to
    memory and rely on violation detection). *)
let covering_store t ~addr ~bytes =
  let i = ref (t.n_stores - 1) in
  while !i >= 0
        && not (t.s_addr.(!i) <= addr
                && addr + bytes <= t.s_addr.(!i) + t.s_bytes.(!i)) do
    decr i
  done;
  if !i < 0 then -1
  else raw_within t.s_value.(!i) ~base:t.s_addr.(!i) ~addr ~bytes

(** Is some recorded load violated by a broadcast store of [value] to
    [addr, addr+bytes) from iteration [from_iter]?  Every overlapping
    load is, except one whose value was forwarded from this very
    iteration and which the store still covers with the same bytes. *)
let violated t ~from_iter ~addr ~bytes ~value =
  let hit = ref false and i = ref 0 in
  while not !hit && !i < t.n_loads do
    let la = t.l_addr.(!i) and lb = t.l_bytes.(!i) in
    if ranges_overlap la lb addr bytes then
      hit :=
        not (t.l_src.(!i) = from_iter
             && addr <= la && la + lb <= addr + bytes
             && raw_within value ~base:addr ~addr:la ~bytes:lb
                = t.l_raw.(!i));
    incr i
  done;
  !hit

(** Any load entry forwarded from iteration [iter] (such entries must be
    squashed when [iter] itself squashes). *)
let has_forward_from t iter =
  let i = ref 0 in
  while !i < t.n_loads && t.l_src.(!i) <> iter do incr i done;
  !i < t.n_loads

(* -- Fault-injection hook ---------------------------------------------- *)

(** Forget the newest recorded load (a transiently lost CAM entry): the
    violation check can no longer see it, so a conflicting broadcast
    store slips past undetected.  Returns whether there was one. *)
let drop_newest_load t =
  if t.n_loads = 0 then false
  else begin
    t.n_loads <- t.n_loads - 1;
    true
  end
