(** Byte-addressable little-endian main memory with atomic memory
    operations.  This is the architectural memory shared by the GPP and all
    LPSU lanes; speculative stores are buffered in per-lane LSQs
    ({!Xloops_sim.Lsq}) and only reach this module when they commit. *)

open Xloops_isa

exception Bad_access of { addr : int; what : string }

type t = {
  data : Bytes.t;
  size : int;
  mutable loads : int;   (* event counters for the energy model *)
  mutable stores : int;
  mutable amos : int;
  mutable journal_on : bool;
  mutable jlog : int array;
      (* undo log since [journal_begin], oldest first: one (address lsl 3
         lor length, old little-endian bytes) pair per write of at most
         4 bytes; rollback support for the machine's specialized-loop
         checkpoints *)
  mutable jlen : int;    (* ints of [jlog] in use *)
}

let create ?(size = 1 lsl 20) () =
  { data = Bytes.make size '\000'; size; loads = 0; stores = 0; amos = 0;
    journal_on = false; jlog = [||]; jlen = 0 }

let size t = t.size

(* -- Write journal ----------------------------------------------------- *)

(* The journal is an append-only undo log of the bytes each write
   overwrote; aborting replays it newest first, so every byte ends at its
   oldest pre-image, the value it had at [journal_begin].  Committing
   discards it.  This is the memory half of the architectural checkpoint
   the machine takes at specialized-loop entry (registers being the
   other half), so a faulted or hung LPSU run can be rolled back and
   re-executed traditionally.  The log's array is kept across journals,
   so a write under an active journal allocates only when the log
   outgrows every earlier one. *)

let journal_active t = t.journal_on

let journal_begin t =
  if t.journal_on then
    invalid_arg "Memory.journal_begin: journal already active";
  t.journal_on <- true;
  t.jlen <- 0

let journal_commit t =
  if not t.journal_on then
    invalid_arg "Memory.journal_commit: no active journal";
  t.journal_on <- false

let journal_abort t =
  if not t.journal_on then
    invalid_arg "Memory.journal_abort: no active journal";
  let i = ref (t.jlen - 2) in
  while !i >= 0 do
    let tag = t.jlog.(!i) and old = t.jlog.(!i + 1) in
    let addr = tag lsr 3 in
    for b = 0 to (tag land 7) - 1 do
      Bytes.unsafe_set t.data (addr + b)
        (Char.unsafe_chr ((old lsr (8 * b)) land 0xFF))
    done;
    i := !i - 2
  done;
  t.journal_on <- false

let journal_size t =
  if not t.journal_on then 0
  else begin
    let seen = Hashtbl.create 64 in
    for e = 0 to t.jlen / 2 - 1 do
      let tag = t.jlog.(2 * e) in
      for b = 0 to (tag land 7) - 1 do
        Hashtbl.replace seen ((tag lsr 3) + b) ()
      done
    done;
    Hashtbl.length seen
  end

let log_write t addr n =
  if t.jlen + 2 > Array.length t.jlog then begin
    let bigger = Array.make (2 * Array.length t.jlog + 64) 0 in
    Array.blit t.jlog 0 bigger 0 t.jlen;
    t.jlog <- bigger
  end;
  let old = ref 0 in
  for b = n - 1 downto 0 do
    old := (!old lsl 8) lor Char.code (Bytes.unsafe_get t.data (addr + b))
  done;
  t.jlog.(t.jlen) <- (addr lsl 3) lor n;
  t.jlog.(t.jlen + 1) <- !old;
  t.jlen <- t.jlen + 2

(* Called before every write of [addr, addr+bytes), after its range
   check. *)
let[@inline] note_write t addr bytes =
  if t.journal_on then begin
    let a = ref addr in
    while !a < addr + bytes do
      let n = if addr + bytes - !a < 4 then addr + bytes - !a else 4 in
      log_write t !a n;
      a := !a + n
    done
  end

let check t addr bytes what =
  if addr < 0 || addr + bytes > t.size then
    raise (Bad_access { addr; what })

let check_align addr bytes what =
  if addr mod bytes <> 0 then raise (Bad_access { addr; what })

(* Fused bounds+alignment checks: [Bad_access] carries the same payload
   whether the address is out of range or misaligned, so one combined
   branch per access suffices on the hot path. *)

let[@inline] check1 t addr what =
  if addr < 0 || addr >= t.size then raise (Bad_access { addr; what })

let[@inline] check2 t addr what =
  if addr < 0 || addr + 2 > t.size || addr land 1 <> 0 then
    raise (Bad_access { addr; what })

let[@inline] check4 t addr what =
  if addr < 0 || addr + 4 > t.size || addr land 3 <> 0 then
    raise (Bad_access { addr; what })

(* Raw accessors (no event counting): used for dataset initialization and
   for result checking. *)

let get_u8 t addr =
  check1 t addr "get_u8";
  Char.code (Bytes.unsafe_get t.data addr)

let set_u8 t addr v =
  check1 t addr "set_u8";
  note_write t addr 1;
  Bytes.unsafe_set t.data addr (Char.unsafe_chr (v land 0xFF))

let get_u16 t addr =
  check2 t addr "get_u16";
  Bytes.get_uint16_le t.data addr

let set_u16 t addr v =
  check2 t addr "set_u16";
  note_write t addr 2;
  Bytes.set_uint16_le t.data addr (v land 0xFFFF)

let get_i32 t addr : int32 =
  check4 t addr "get_i32";
  Bytes.get_int32_le t.data addr

let set_i32 t addr (v : int32) =
  check4 t addr "set_i32";
  note_write t addr 4;
  Bytes.set_int32_le t.data addr v

let get_int t addr = Int32.to_int (get_i32 t addr)
let set_int t addr v = set_i32 t addr (Int32.of_int v)

let get_f32 t addr = Int32.float_of_bits (get_i32 t addr)
let set_f32 t addr v = set_i32 t addr (Int32.bits_of_float v)

(* Architectural accessors used by the simulators. *)

let sext8 v = if v land 0x80 <> 0 then v - 0x100 else v
let sext16 v = if v land 0x8000 <> 0 then v - 0x10000 else v

(** [load t width addr] returns the value as a sign/zero-extended int32. *)
let load t (w : Insn.width) addr : int32 =
  t.loads <- t.loads + 1;
  match w with
  | B -> Int32.of_int (sext8 (get_u8 t addr))
  | Bu -> Int32.of_int (get_u8 t addr)
  | H -> Int32.of_int (sext16 (get_u16 t addr))
  | Hu -> Int32.of_int (get_u16 t addr)
  | W -> get_i32 t addr

let store t (w : Insn.width) addr (v : int32) =
  t.stores <- t.stores + 1;
  match w with
  | B | Bu -> set_u8 t addr (Int32.to_int v land 0xFF)
  | H | Hu -> set_u16 t addr (Int32.to_int v land 0xFFFF)
  | W -> set_i32 t addr v

(* Native-int variants of the architectural accessors, for executors
   whose register file is already sign-extended native ints (the
   predecoded executor): same checks, counters and
   journal behavior, but the value crosses the call boundary as an
   unboxed [int] instead of a boxed [int32]. *)

let load_int t (w : Insn.width) addr : int =
  t.loads <- t.loads + 1;
  match w with
  | B -> sext8 (get_u8 t addr)
  | Bu -> get_u8 t addr
  | H -> sext16 (get_u16 t addr)
  | Hu -> get_u16 t addr
  | W ->
    check4 t addr "get_i32";
    Int32.to_int (Bytes.get_int32_le t.data addr)

let store_int t (w : Insn.width) addr (v : int) =
  t.stores <- t.stores + 1;
  match w with
  | B | Bu -> set_u8 t addr (v land 0xFF)
  | H | Hu -> set_u16 t addr (v land 0xFFFF)
  | W ->
    (* [set_i32] inlined so the intermediate int32 never crosses a call
       boundary (a boxed-int32 allocation per store without flambda) *)
    check4 t addr "set_i32";
    note_write t addr 4;
    Bytes.set_int32_le t.data addr (Int32.of_int v)

(** Atomic read-modify-write on a word: returns the old value. *)
let amo t (op : Insn.amo_op) addr (v : int32) : int32 =
  t.amos <- t.amos + 1;
  let old = get_i32 t addr in
  let nv =
    match op with
    | Amo_add -> Int32.add old v
    | Amo_and -> Int32.logand old v
    | Amo_or -> Int32.logor old v
    | Amo_xchg -> v
    | Amo_min -> if Int32.compare old v <= 0 then old else v
    | Amo_max -> if Int32.compare old v >= 0 then old else v
  in
  set_i32 t addr nv;
  old

let amo_sext_shift = Sys.int_size - 32

let amo_int t (op : Insn.amo_op) addr (v : int) : int =
  t.amos <- t.amos + 1;
  check4 t addr "get_i32";
  let old = Int32.to_int (Bytes.get_int32_le t.data addr) in
  let nv =
    match op with
    | Amo_add -> ((old + v) lsl amo_sext_shift) asr amo_sext_shift
    | Amo_and -> old land v
    | Amo_or -> old lor v
    | Amo_xchg -> v
    | Amo_min -> if old <= v then old else v
    | Amo_max -> if old >= v then old else v
  in
  note_write t addr 4;
  Bytes.set_int32_le t.data addr (Int32.of_int nv);
  old

(** Number of bytes a width accesses (for address-overlap checks). *)
let width_bytes : Insn.width -> int = Insn.width_bytes

(* Bulk helpers for dataset setup / checking: one up-front range (and
   alignment) check for the whole transfer, then a raw inner loop —
   datasets are rebuilt for every uncached run, so the per-element
   checks these replace were pure overhead. *)

let check_range t ~addr ~bytes ~align what =
  if bytes > 0 then begin
    check t addr bytes what;
    check_align addr align what
  end

let blit_int_array t ~addr (a : int array) =
  let n = Array.length a in
  check_range t ~addr ~bytes:(4 * n) ~align:4 "blit_int_array";
  note_write t addr (4 * n);
  let d = t.data in
  for i = 0 to n - 1 do
    Bytes.set_int32_le d (addr + 4 * i)
      (Int32.of_int (Array.unsafe_get a i))
  done

let read_int_array t ~addr ~n =
  check_range t ~addr ~bytes:(4 * n) ~align:4 "read_int_array";
  let d = t.data in
  Array.init n (fun i -> Int32.to_int (Bytes.get_int32_le d (addr + 4 * i)))

let blit_f32_array t ~addr (a : float array) =
  let n = Array.length a in
  check_range t ~addr ~bytes:(4 * n) ~align:4 "blit_f32_array";
  note_write t addr (4 * n);
  let d = t.data in
  for i = 0 to n - 1 do
    Bytes.set_int32_le d (addr + 4 * i)
      (Int32.bits_of_float (Array.unsafe_get a i))
  done

let read_f32_array t ~addr ~n =
  check_range t ~addr ~bytes:(4 * n) ~align:4 "read_f32_array";
  let d = t.data in
  Array.init n
    (fun i -> Int32.float_of_bits (Bytes.get_int32_le d (addr + 4 * i)))

let blit_bytes t ~addr (a : int array) =
  let n = Array.length a in
  check_range t ~addr ~bytes:n ~align:1 "blit_bytes";
  note_write t addr n;
  let d = t.data in
  for i = 0 to n - 1 do
    Bytes.unsafe_set d (addr + i)
      (Char.unsafe_chr (Array.unsafe_get a i land 0xFF))
  done

let read_bytes t ~addr ~n =
  check_range t ~addr ~bytes:n ~align:1 "read_bytes";
  let d = t.data in
  Array.init n (fun i -> Char.code (Bytes.unsafe_get d (addr + i)))

let reset_counters t =
  t.loads <- 0; t.stores <- 0; t.amos <- 0
