(** Set-associative cache timing model (tags only — data lives in
    {!Memory}).  Used for the 16 KB L1 instruction and data caches of the
    GPP (Table III / Section V-A: datasets are tailored to fit in the L1,
    so the model mainly classifies cold misses and the occasional conflict
    miss).  Writeback/write-allocate with LRU replacement. *)

type t = {
  sets : int;
  ways : int;
  line_bytes : int;
  line_shift : int;             (* log2 line_bytes, when line_bytes and *)
  set_shift : int;              (* sets are powers of two; else -1 *)
  tags : int array;             (* [set * ways + way] = tag, -1 invalid *)
  lru : int array;              (* higher = more recently used *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ?(size_bytes = 16 * 1024) ?(ways = 2) ?(line_bytes = 32) () =
  let lines = size_bytes / line_bytes in
  let sets = lines / ways in
  if sets <= 0 then invalid_arg "Cache.create: too small";
  let log2 n =
    let rec go k = if 1 lsl k >= n then k else go (k + 1) in
    let k = go 0 in
    if 1 lsl k = n then k else -1
  in
  let line_shift, set_shift =
    if log2 line_bytes >= 0 && log2 sets >= 0 then log2 line_bytes, log2 sets
    else -1, -1
  in
  { sets; ways; line_bytes; line_shift; set_shift;
    tags = Array.make (sets * ways) (-1);
    lru = Array.make (sets * ways) 0;
    tick = 0; accesses = 0; misses = 0 }

(** [access t addr] returns [true] on hit.  On a miss the line is filled
    (victim chosen by LRU). *)
let access t addr =
  t.accesses <- t.accesses + 1;
  t.tick <- t.tick + 1;
  (* Shifts and masks replace the divisions (tens of cycles each) for
     power-of-two geometries; they agree on every address >= 0. *)
  let pow2 = t.line_shift >= 0 && addr >= 0 in
  let line = if pow2 then addr lsr t.line_shift else addr / t.line_bytes in
  let set = if pow2 then line land (t.sets - 1) else line mod t.sets in
  let tag = if pow2 then line lsr t.set_shift else line / t.sets in
  let base = set * t.ways and tags = t.tags and lru = t.lru in
  let w = ref base in
  while !w < base + t.ways && tags.(!w) <> tag do incr w done;
  if !w < base + t.ways then begin
    lru.(!w) <- t.tick;
    true
  end else begin
    t.misses <- t.misses + 1;
    (* Fill into the least-recently-used way. *)
    let victim = ref base in
    for w = base + 1 to base + t.ways - 1 do
      if lru.(w) < lru.(!victim) then victim := w
    done;
    tags.(!victim) <- tag;
    lru.(!victim) <- t.tick;
    false
  end

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0; t.misses <- 0
