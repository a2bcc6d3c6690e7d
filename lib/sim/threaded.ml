(** Block-compiled execution tier.

    The predecoded tier ({!Exec.step}) still pays, per dynamic
    instruction, an 18-arm match on the micro-op, the event-scratch
    reset, and the per-step calling convention.  This tier compiles each
    {!Program.predecoded} once into closures: one single-op closure per
    static instruction, specialized at compile time to its operands, and
    above them one closure per basic block that retires the whole block
    in one dispatch and one retirement bump, with runs of fusible heads
    ({!Xloops_isa.Insn.fusible_head}) fused inside.  Only block leaders
    dispatch a block closure; every other pc keeps its single-op
    closure, so a jump into the middle of a block simply dispatches the
    per-uop code from there.

    Because no event is produced, the driver ({!run_serial_block})
    serves only observer-free functional runs such as
    [Kernel.dynamic_insns].  Anything that watches per-instruction
    events — GPP timing, tracing, the watchdog, fault injection — stays
    on {!Exec.step}.  The LPSU lanes borrow the single-op closures of
    observationally silent pcs ({!lane_meta}) while no observer is
    attached. *)

open Xloops_isa
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module P = Program

type state = {
  regs : int array;
  mem : Memory.t;
  mutable pc : int;
  mutable retired : int;
}

type op = state -> unit

type compiled = {
  pre : Program.predecoded;
  ops : op array;   (** single-op closures, parallel to the uops *)
  blk : op array;
      (** block closures at leaders of multi-uop blocks; [ops] elsewhere *)
  max_block : int;  (** most uops any [blk] dispatch can retire (>= 1) *)
  spans : (int * int) list;
      (** compiled blocks as (leader pc, uop count), ascending *)
  btriples : (int * string) list;
      (** fused-triple head pcs and rule names, ascending *)
  lane : lane_meta array;  (** per-pc LPSU lane fast-path metadata *)
}

and lane_meta =
  | L_slow
  | L_plain of {
      l_op : op;             (** the pc's single-op closure *)
      l_rd : int;            (** dest register, -1 when none *)
      l_s1 : int;            (** source registers, -1 when absent *)
      l_s2 : int;
      l_ctrl : int;
          (** 0 = never redirects; 1 = conditional (taken iff the
              outgoing pc differs from pc+1); 2 = always taken *)
    }

let sext_shift = Sys.int_size - 32
let[@inline] norm v = (v lsl sext_shift) asr sext_shift
let[@inline] g (r : int array) i = Array.unsafe_get r i
let[@inline] s (r : int array) i v = Array.unsafe_set r i v

(* Compile-time validation: closures index the register file unsafely,
   so every register specifier must be proven in range first.  Micro-ops
   that fail (only reachable through hand-built [Program.t] values with
   corrupt specifiers) fall back to [safe_op] below, which reproduces
   {!Exec.step}'s bounds-checked behavior exactly — including the
   [Invalid_argument] it raises when executed. *)
let uop_valid (u : P.uop) =
  let ok r = r >= 0 && r < Reg.num_regs in
  match u with
  | P.U_alu (_, rd, rs, rt) | U_fpu (_, rd, rs, rt)
  | U_xi_add (rd, rs, rt) | U_amo (_, rd, rs, rt) -> ok rd && ok rs && ok rt
  | U_alui (_, rd, rs, _) | U_xi_addi (rd, rs, _) -> ok rd && ok rs
  | U_lui (rd, _) -> ok rd
  | U_load (_, rd, rs, _, _) -> ok rd && ok rs
  | U_store (_, rt, rs, _, _) -> ok rt && ok rs
  | U_branch (_, rs, rt, _) | U_xloop_cmp (rs, rt, _) -> ok rs && ok rt
  | U_jr rs -> ok rs
  | U_xloop_de (rt, _) -> ok rt
  | U_jump _ | U_jal _ | U_sync | U_halt | U_nop -> true

(* Mirrors {!Exec.step} arm for arm with safe (bounds-checked) register
   indexing; pc advances before the body and the retired count bumps
   after, so an escaping exception leaves the same partial state as a
   failed [step]. *)
let safe_op (u : P.uop) pc : op = fun st ->
  let regs = st.regs in
  st.pc <- pc + 1;
  (match u with
   | P.U_alu (op, rd, rs, rt) ->
     if rd <> 0 then regs.(rd) <- Exec.alu_eval_int op regs.(rs) regs.(rt)
   | U_alui (op, rd, rs, imm) ->
     if rd <> 0 then regs.(rd) <- Exec.alu_eval_int op regs.(rs) imm
   | U_fpu (op, rd, rs, rt) ->
     if rd <> 0 then regs.(rd) <- Exec.fpu_eval_int op regs.(rs) regs.(rt)
   | U_lui (rd, v) -> if rd <> 0 then regs.(rd) <- v
   | U_load (w, rd, rs, imm, _) ->
     let v = Memory.load_int st.mem w (regs.(rs) + imm) in
     if rd <> 0 then regs.(rd) <- v
   | U_store (w, rt, rs, imm, _) ->
     Memory.store_int st.mem w (regs.(rs) + imm) regs.(rt)
   | U_amo (op, rd, rs, rt) ->
     let old = Memory.amo_int st.mem op regs.(rs) regs.(rt) in
     if rd <> 0 then regs.(rd) <- old
   | U_branch (c, rs, rt, l) ->
     if Exec.branch_eval_int c regs.(rs) regs.(rt) then st.pc <- l
   | U_jump l -> st.pc <- l
   | U_jal (link, l) -> regs.(Reg.ra) <- link; st.pc <- l
   | U_jr rs -> st.pc <- regs.(rs)
   | U_xloop_de (rt, l) -> if regs.(rt) = 0 then st.pc <- l
   | U_xloop_cmp (rs, rt, l) -> if regs.(rs) < regs.(rt) then st.pc <- l
   | U_xi_addi (rd, rs, imm) ->
     if rd <> 0 then regs.(rd) <- norm (regs.(rs) + imm)
   | U_xi_add (rd, rs, rt) ->
     if rd <> 0 then regs.(rd) <- norm (regs.(rs) + regs.(rt))
   | U_sync | U_nop -> ()
   | U_halt -> st.pc <- pc; raise Exec.Halted);
  st.retired <- st.retired + 1

(* -- Single-op closures ------------------------------------------------ *)

(* One closure per static instruction, all operand decisions folded at
   compile time: the common ALU/branch operators get a dedicated closure
   body; rare operators (mulh/div/rem, all FP) capture the operator and
   call the shared evaluator.  Writes to r0 compile to an advance-only
   closure, matching [step]'s dropped-write semantics. *)

let retire1 nx : op = fun st ->
  st.pc <- nx;
  st.retired <- st.retired + 1

let fast_op (u : P.uop) pc : op =
  let nx = pc + 1 in
  match u with
  | P.U_alu (op, rd, rs, rt) ->
    if rd = 0 then retire1 nx
    else begin
      match op with
      | Insn.Add -> fun st ->
        let r = st.regs in
        s r rd (norm (g r rs + g r rt));
        st.pc <- nx; st.retired <- st.retired + 1
      | Sub -> fun st ->
        let r = st.regs in
        s r rd (norm (g r rs - g r rt));
        st.pc <- nx; st.retired <- st.retired + 1
      | And -> fun st ->
        let r = st.regs in
        s r rd (g r rs land g r rt);
        st.pc <- nx; st.retired <- st.retired + 1
      | Or_ -> fun st ->
        let r = st.regs in
        s r rd (g r rs lor g r rt);
        st.pc <- nx; st.retired <- st.retired + 1
      | Xor -> fun st ->
        let r = st.regs in
        s r rd (g r rs lxor g r rt);
        st.pc <- nx; st.retired <- st.retired + 1
      | Mul -> fun st ->
        let r = st.regs in
        s r rd (norm (g r rs * g r rt));
        st.pc <- nx; st.retired <- st.retired + 1
      | Slt -> fun st ->
        let r = st.regs in
        s r rd (if g r rs < g r rt then 1 else 0);
        st.pc <- nx; st.retired <- st.retired + 1
      | Nor | Sll | Srl | Sra | Sltu | Mulh | Div | Rem -> fun st ->
        let r = st.regs in
        s r rd (Exec.alu_eval_int op (g r rs) (g r rt));
        st.pc <- nx; st.retired <- st.retired + 1
    end
  | U_alui (op, rd, rs, imm) ->
    if rd = 0 then retire1 nx
    else begin
      match op with
      | Insn.Add -> fun st ->
        let r = st.regs in
        s r rd (norm (g r rs + imm));
        st.pc <- nx; st.retired <- st.retired + 1
      | And -> fun st ->
        let r = st.regs in
        s r rd (g r rs land imm);
        st.pc <- nx; st.retired <- st.retired + 1
      | Or_ -> fun st ->
        let r = st.regs in
        s r rd (g r rs lor imm);
        st.pc <- nx; st.retired <- st.retired + 1
      | Xor -> fun st ->
        let r = st.regs in
        s r rd (g r rs lxor imm);
        st.pc <- nx; st.retired <- st.retired + 1
      | Slt -> fun st ->
        let r = st.regs in
        s r rd (if g r rs < imm then 1 else 0);
        st.pc <- nx; st.retired <- st.retired + 1
      | Sub | Nor | Sll | Srl | Sra | Sltu | Mul | Mulh | Div | Rem ->
        fun st ->
          let r = st.regs in
          s r rd (Exec.alu_eval_int op (g r rs) imm);
          st.pc <- nx; st.retired <- st.retired + 1
    end
  | U_fpu (op, rd, rs, rt) ->
    if rd = 0 then retire1 nx
    else fun st ->
      let r = st.regs in
      s r rd (Exec.fpu_eval_int op (g r rs) (g r rt));
      st.pc <- nx; st.retired <- st.retired + 1
  | U_lui (rd, v) ->
    if rd = 0 then retire1 nx
    else fun st ->
      s st.regs rd v;
      st.pc <- nx; st.retired <- st.retired + 1
  | U_load (w, rd, rs, imm, _) ->
    if rd = 0 then fun st ->
      ignore (Memory.load_int st.mem w (g st.regs rs + imm));
      st.pc <- nx; st.retired <- st.retired + 1
    else fun st ->
      let r = st.regs in
      s r rd (Memory.load_int st.mem w (g r rs + imm));
      st.pc <- nx; st.retired <- st.retired + 1
  | U_store (w, rt, rs, imm, _) -> fun st ->
    let r = st.regs in
    Memory.store_int st.mem w (g r rs + imm) (g r rt);
    st.pc <- nx; st.retired <- st.retired + 1
  | U_amo (op, rd, rs, rt) -> fun st ->
    let r = st.regs in
    let old = Memory.amo_int st.mem op (g r rs) (g r rt) in
    if rd <> 0 then s r rd old;
    st.pc <- nx; st.retired <- st.retired + 1
  | U_branch (c, rs, rt, l) ->
    (match c with
     | Insn.Beq -> fun st ->
       let r = st.regs in
       st.pc <- (if g r rs = g r rt then l else nx);
       st.retired <- st.retired + 1
     | Bne -> fun st ->
       let r = st.regs in
       st.pc <- (if g r rs <> g r rt then l else nx);
       st.retired <- st.retired + 1
     | Blt -> fun st ->
       let r = st.regs in
       st.pc <- (if g r rs < g r rt then l else nx);
       st.retired <- st.retired + 1
     | Bge -> fun st ->
       let r = st.regs in
       st.pc <- (if g r rs >= g r rt then l else nx);
       st.retired <- st.retired + 1
     | Bltu -> fun st ->
       let r = st.regs in
       st.pc <-
         (if g r rs land 0xFFFFFFFF < g r rt land 0xFFFFFFFF then l else nx);
       st.retired <- st.retired + 1
     | Bgeu -> fun st ->
       let r = st.regs in
       st.pc <-
         (if g r rs land 0xFFFFFFFF >= g r rt land 0xFFFFFFFF then l else nx);
       st.retired <- st.retired + 1)
  | U_jump l -> fun st ->
    st.pc <- l;
    st.retired <- st.retired + 1
  | U_jal (link, l) -> fun st ->
    s st.regs Reg.ra link;
    st.pc <- l;
    st.retired <- st.retired + 1
  | U_jr rs -> fun st ->
    st.pc <- g st.regs rs;
    st.retired <- st.retired + 1
  | U_xloop_de (rt, l) -> fun st ->
    st.pc <- (if g st.regs rt = 0 then l else nx);
    st.retired <- st.retired + 1
  | U_xloop_cmp (rs, rt, l) -> fun st ->
    let r = st.regs in
    st.pc <- (if g r rs < g r rt then l else nx);
    st.retired <- st.retired + 1
  | U_xi_addi (rd, rs, imm) ->
    if rd = 0 then retire1 nx
    else fun st ->
      let r = st.regs in
      s r rd (norm (g r rs + imm));
      st.pc <- nx; st.retired <- st.retired + 1
  | U_xi_add (rd, rs, rt) ->
    if rd = 0 then retire1 nx
    else fun st ->
      let r = st.regs in
      s r rd (norm (g r rs + g r rt));
      st.pc <- nx; st.retired <- st.retired + 1
  | U_sync | U_nop -> retire1 nx
  | U_halt -> fun st ->
    st.pc <- pc;
    raise Exec.Halted

(* -- Fusible heads ------------------------------------------------------ *)

(* A fusible head's entire effect is one register write, captured as
   compile-time data so the block compiler's fused closures specialize
   against it.  The hottest head shapes (plain add / add-immediate,
   which is also what both [.xi] forms lower to) get fully inlined
   bodies in the fused closures; the rest go through [run_head], a
   per-closure-constant match that predicts perfectly. *)

type head =
  | H_add of int * int * int           (* rd, rs, rt *)
  | H_addi of int * int * int          (* rd, rs, imm *)
  | H_alu of Insn.alu_op * int * int * int
  | H_alui of Insn.alu_op * int * int * int
  | H_const of int * int               (* rd, value *)

let head_of (src : int Insn.t) (u : P.uop) : head option =
  if not (Insn.fusible_head src && uop_valid u) then None
  else
    match u with
    | P.U_alu (Insn.Add, rd, rs, rt) | U_xi_add (rd, rs, rt) ->
      Some (H_add (rd, rs, rt))
    | U_alui (Insn.Add, rd, rs, imm) | U_xi_addi (rd, rs, imm) ->
      Some (H_addi (rd, rs, imm))
    | U_alu (op, rd, rs, rt) -> Some (H_alu (op, rd, rs, rt))
    | U_alui (op, rd, rs, imm) -> Some (H_alui (op, rd, rs, imm))
    | U_lui (rd, v) -> Some (H_const (rd, v))
    | _ -> None

let run_head (h : head) (r : int array) =
  match h with
  | H_add (rd, rs, rt) -> s r rd (norm (g r rs + g r rt))
  | H_addi (rd, rs, imm) -> s r rd (norm (g r rs + imm))
  | H_alu (op, rd, rs, rt) -> s r rd (Exec.alu_eval_int op (g r rs) (g r rt))
  | H_alui (op, rd, rs, imm) -> s r rd (Exec.alu_eval_int op (g r rs) imm)
  | H_const (rd, v) -> s r rd v

(* -- Basic-block compilation ------------------------------------------- *)

(* A block closure executes a whole basic block — from a leader up to
   and including the first control transfer, stopping early at the next
   leader, an invalid uop, or the length cap — in one dispatch, with one
   pc write and one retirement bump at the end.

   Side exits must still materialize {!Exec.step}-precise state.  The
   only mid-block exits are memory traps ([Memory] raising on a bad
   access) and [halt]: memory uops are *sync points* that first publish
   the in-progress pc (advanced past the faulting op, as [step] does)
   and fold the retirement delta accumulated since the previous sync
   point, so an escaping exception observes exactly the state a per-uop
   tier would have left.  Everything between sync points is a *bare*
   closure — no pc or retired writes at all — which is where the block
   tier's headroom over per-uop dispatch comes from.  The delta
   bookkeeping is entirely compile-time. *)

type bkind = K_bare | K_mem | K_term

let kind_of (u : P.uop) : bkind =
  match u with
  | P.U_alu _ | U_alui _ | U_fpu _ | U_lui _ | U_xi_addi _ | U_xi_add _
  | U_sync | U_nop -> K_bare
  | U_load _ | U_store _ | U_amo _ -> K_mem
  | U_branch _ | U_jump _ | U_jal _ | U_jr _ | U_xloop_de _ | U_xloop_cmp _
  | U_halt -> K_term

let nothing : op = fun _ -> ()

(* Bare effect of a straightline uop: registers only, no bookkeeping.
   Requires [uop_valid] and [K_bare]. *)
let bare_op (u : P.uop) : op =
  match u with
  | P.U_alu (op, rd, rs, rt) ->
    if rd = 0 then nothing
    else begin
      match op with
      | Insn.Add -> fun st -> let r = st.regs in s r rd (norm (g r rs + g r rt))
      | Sub -> fun st -> let r = st.regs in s r rd (norm (g r rs - g r rt))
      | And -> fun st -> let r = st.regs in s r rd (g r rs land g r rt)
      | Or_ -> fun st -> let r = st.regs in s r rd (g r rs lor g r rt)
      | Xor -> fun st -> let r = st.regs in s r rd (g r rs lxor g r rt)
      | Mul -> fun st -> let r = st.regs in s r rd (norm (g r rs * g r rt))
      | Slt -> fun st ->
        let r = st.regs in s r rd (if g r rs < g r rt then 1 else 0)
      | Nor | Sll | Srl | Sra | Sltu | Mulh | Div | Rem -> fun st ->
        let r = st.regs in s r rd (Exec.alu_eval_int op (g r rs) (g r rt))
    end
  | U_alui (op, rd, rs, imm) ->
    if rd = 0 then nothing
    else begin
      match op with
      | Insn.Add -> fun st -> let r = st.regs in s r rd (norm (g r rs + imm))
      | And -> fun st -> let r = st.regs in s r rd (g r rs land imm)
      | Or_ -> fun st -> let r = st.regs in s r rd (g r rs lor imm)
      | Xor -> fun st -> let r = st.regs in s r rd (g r rs lxor imm)
      | Slt -> fun st ->
        let r = st.regs in s r rd (if g r rs < imm then 1 else 0)
      | Sub | Nor | Sll | Srl | Sra | Sltu | Mul | Mulh | Div | Rem ->
        fun st ->
          let r = st.regs in s r rd (Exec.alu_eval_int op (g r rs) imm)
    end
  | U_fpu (op, rd, rs, rt) ->
    if rd = 0 then nothing
    else fun st ->
      let r = st.regs in s r rd (Exec.fpu_eval_int op (g r rs) (g r rt))
  | U_lui (rd, v) ->
    if rd = 0 then nothing else fun st -> s st.regs rd v
  | U_xi_addi (rd, rs, imm) ->
    if rd = 0 then nothing
    else fun st -> let r = st.regs in s r rd (norm (g r rs + imm))
  | U_xi_add (rd, rs, rt) ->
    if rd = 0 then nothing
    else fun st -> let r = st.regs in s r rd (norm (g r rs + g r rt))
  | U_sync | U_nop -> nothing
  | U_load _ | U_store _ | U_amo _ | U_branch _ | U_jump _ | U_jal _
  | U_jr _ | U_xloop_de _ | U_xloop_cmp _ | U_halt -> assert false

(* Memory sync point: publish the advanced pc and the [delta] uops
   completed since the previous sync point *before* touching memory, so
   a trap escapes with exactly [step]'s partial state (pc past the
   faulting op, retired excluding it). *)
let mem_op (u : P.uop) pc ~delta : op =
  let nx = pc + 1 in
  match u with
  | P.U_load (w, rd, rs, imm, _) ->
    if rd = 0 then fun st ->
      st.pc <- nx; st.retired <- st.retired + delta;
      ignore (Memory.load_int st.mem w (g st.regs rs + imm))
    else fun st ->
      st.pc <- nx; st.retired <- st.retired + delta;
      let r = st.regs in
      s r rd (Memory.load_int st.mem w (g r rs + imm))
  | U_store (w, rt, rs, imm, _) -> fun st ->
    st.pc <- nx; st.retired <- st.retired + delta;
    let r = st.regs in
    Memory.store_int st.mem w (g r rs + imm) (g r rt)
  | U_amo (op, rd, rs, rt) -> fun st ->
    st.pc <- nx; st.retired <- st.retired + delta;
    let r = st.regs in
    let old = Memory.amo_int st.mem op (g r rs) (g r rt) in
    if rd <> 0 then s r rd old
  | _ -> assert false

(* Block terminator: run the fused-head prefix [pre] (if any), decide
   the outgoing pc, and retire the whole tail in one bump.  [dt] counts
   every uop since the last sync point including the terminator itself;
   the [halt] arm retires one less (halt never retires) and leaves pc on
   the halt, matching [fast_op]. *)
let term_op ?pre (u : P.uop) pc ~dt : op =
  let nx = pc + 1 in
  let p = match pre with Some f -> f | None -> nothing in
  match u with
  | P.U_branch (c, rs, rt, l) ->
    (match c with
     | Insn.Beq -> fun st ->
       p st;
       let r = st.regs in
       st.pc <- (if g r rs = g r rt then l else nx);
       st.retired <- st.retired + dt
     | Bne -> fun st ->
       p st;
       let r = st.regs in
       st.pc <- (if g r rs <> g r rt then l else nx);
       st.retired <- st.retired + dt
     | Blt -> fun st ->
       p st;
       let r = st.regs in
       st.pc <- (if g r rs < g r rt then l else nx);
       st.retired <- st.retired + dt
     | Bge -> fun st ->
       p st;
       let r = st.regs in
       st.pc <- (if g r rs >= g r rt then l else nx);
       st.retired <- st.retired + dt
     | Bltu -> fun st ->
       p st;
       let r = st.regs in
       st.pc <-
         (if g r rs land 0xFFFFFFFF < g r rt land 0xFFFFFFFF then l else nx);
       st.retired <- st.retired + dt
     | Bgeu -> fun st ->
       p st;
       let r = st.regs in
       st.pc <-
         (if g r rs land 0xFFFFFFFF >= g r rt land 0xFFFFFFFF then l else nx);
       st.retired <- st.retired + dt)
  | U_xloop_cmp (rs, rt, l) -> fun st ->
    p st;
    let r = st.regs in
    st.pc <- (if g r rs < g r rt then l else nx);
    st.retired <- st.retired + dt
  | U_xloop_de (rt, l) -> fun st ->
    p st;
    st.pc <- (if g st.regs rt = 0 then l else nx);
    st.retired <- st.retired + dt
  | U_jump l -> fun st ->
    p st;
    st.pc <- l;
    st.retired <- st.retired + dt
  | U_jal (link, l) -> fun st ->
    p st;
    s st.regs Reg.ra link;
    st.pc <- l;
    st.retired <- st.retired + dt
  | U_jr rs -> fun st ->
    p st;
    st.pc <- g st.regs rs;
    st.retired <- st.retired + dt
  | U_halt -> fun st ->
    p st;
    st.pc <- pc;
    st.retired <- st.retired + (dt - 1);
    raise Exec.Halted
  | _ -> assert false

(* Hot head+terminator pairs, fully inlined (the addi+bne / addi+blt
   back edges and the [.xi] bump + xloop back edge that dominate the
   kernel registry's loops); the rest compose [run_head] in front of
   [term_op]'s generic arms. *)
let term_op1 (h : head) (u : P.uop) pc ~dt : op =
  let nx = pc + 1 in
  match h, u with
  | H_addi (rd, rs, imm), P.U_branch (Insn.Bne, brs, brt, l) -> fun st ->
    let r = st.regs in
    s r rd (norm (g r rs + imm));
    st.pc <- (if g r brs <> g r brt then l else nx);
    st.retired <- st.retired + dt
  | H_addi (rd, rs, imm), U_branch (Insn.Blt, brs, brt, l) -> fun st ->
    let r = st.regs in
    s r rd (norm (g r rs + imm));
    st.pc <- (if g r brs < g r brt then l else nx);
    st.retired <- st.retired + dt
  | H_addi (rd, rs, imm), U_xloop_cmp (xrs, xrt, l) -> fun st ->
    let r = st.regs in
    s r rd (norm (g r rs + imm));
    st.pc <- (if g r xrs < g r xrt then l else nx);
    st.retired <- st.retired + dt
  | H_add (rd, rs, rt), U_xloop_cmp (xrs, xrt, l) -> fun st ->
    let r = st.regs in
    s r rd (norm (g r rs + g r rt));
    st.pc <- (if g r xrs < g r xrt then l else nx);
    st.retired <- st.retired + dt
  | _ ->
    let pre st = run_head h st.regs in
    term_op ~pre u pc ~dt

(* Bare head pairs/triples in one closure, add/addi combos inlined:
   for the short bare stretches between memory ops, a branch-free
   specialized closure beats the cell loop below, and the surrounding
   out-of-order window hides the register-array round trips that
   dominate long dependent chains. *)
let fuse2_bare (h1 : head) (h2 : head) : op =
  match h1, h2 with
  | H_add (d1, a1, b1), H_add (d2, a2, b2) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + g r b1));
    s r d2 (norm (g r a2 + g r b2))
  | H_add (d1, a1, b1), H_addi (d2, a2, i2) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + g r b1));
    s r d2 (norm (g r a2 + i2))
  | H_addi (d1, a1, i1), H_add (d2, a2, b2) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + i1));
    s r d2 (norm (g r a2 + g r b2))
  | H_addi (d1, a1, i1), H_addi (d2, a2, i2) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + i1));
    s r d2 (norm (g r a2 + i2))
  | _ -> fun st ->
    let r = st.regs in
    run_head h1 r;
    run_head h2 r

let fuse3_bare (h1 : head) (h2 : head) (h3 : head) : op =
  match h1, h2, h3 with
  | H_add (d1, a1, b1), H_add (d2, a2, b2), H_add (d3, a3, b3) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + g r b1));
    s r d2 (norm (g r a2 + g r b2));
    s r d3 (norm (g r a3 + g r b3))
  | H_add (d1, a1, b1), H_add (d2, a2, b2), H_addi (d3, a3, i3) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + g r b1));
    s r d2 (norm (g r a2 + g r b2));
    s r d3 (norm (g r a3 + i3))
  | H_addi (d1, a1, i1), H_add (d2, a2, b2), H_add (d3, a3, b3) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + i1));
    s r d2 (norm (g r a2 + g r b2));
    s r d3 (norm (g r a3 + g r b3))
  | H_addi (d1, a1, i1), H_addi (d2, a2, i2), H_addi (d3, a3, i3) -> fun st ->
    let r = st.regs in
    s r d1 (norm (g r a1 + i1));
    s r d2 (norm (g r a2 + i2));
    s r d3 (norm (g r a3 + i3))
  | _ -> fun st ->
    let r = st.regs in
    run_head h1 r;
    run_head h2 r;
    run_head h3 r

(* A *long* run of fusible heads inside a block compiles into a
   micro-code cell array interpreted by one closure.  Every
   architectural register write still happens in order, but an operand
   that names the *previous* op's destination reads the forwarded value
   — a local the compiler keeps in a machine register — instead of
   loading the register array back.  A dependent chain (acc <- acc + x,
   the reduction and induction-variable idiom) therefore never pays the
   store-to-load forward that dominates its latency on the per-op
   tiers.  Forwarding is resolved here, at compile time, against the
   previous op's destination: [f_s1]/[f_s2] are register numbers, or
   [-1] for the forwarded value, or (s2 only) [-2] for the immediate. *)
type fcell = {
  f_kind : int;  (* 0 = add (sign-extending), 1 = generic alu, 2 = const *)
  f_rd : int;
  f_s1 : int;
  f_s2 : int;
  f_imm : int;
  f_op : Insn.alu_op;
}

let head_rd = function
  | H_add (rd, _, _) | H_addi (rd, _, _) | H_alu (_, rd, _, _)
  | H_alui (_, rd, _, _) | H_const (rd, _) -> rd

let fcell_of (prev_rd : int) (h : head) : fcell =
  let fwd x = if x = prev_rd then -1 else x in
  match h with
  | H_add (rd, rs, rt) ->
    { f_kind = 0; f_rd = rd; f_s1 = fwd rs; f_s2 = fwd rt; f_imm = 0;
      f_op = Insn.Add }
  | H_addi (rd, rs, imm) ->
    { f_kind = 0; f_rd = rd; f_s1 = fwd rs; f_s2 = -2; f_imm = imm;
      f_op = Insn.Add }
  | H_alu (op, rd, rs, rt) ->
    { f_kind = 1; f_rd = rd; f_s1 = fwd rs; f_s2 = fwd rt; f_imm = 0;
      f_op = op }
  | H_alui (op, rd, rs, imm) ->
    { f_kind = 1; f_rd = rd; f_s1 = fwd rs; f_s2 = -2; f_imm = imm;
      f_op = op }
  | H_const (rd, v) ->
    { f_kind = 2; f_rd = rd; f_s1 = 0; f_s2 = -2; f_imm = v;
      f_op = Insn.Add }

let fuse_run (hs : head list) : op =
  let rec cells prev = function
    | [] -> []
    | h :: tl -> fcell_of prev h :: cells (head_rd h) tl
  in
  let arr = Array.of_list (cells (-1) hs) in
  let n = Array.length arr in
  if Array.for_all (fun c -> c.f_kind = 0) arr then begin
    (* All-add run (the dominant case by far: induction variables,
       address arithmetic, reductions), packed as (rd, s1, s2, imm)
       quads in a flat int array.  The forwarded value is carried
       *unnormalized*: addition is congruent mod 2^32, and 2^32 divides
       2^63, so 63-bit wrap-around preserves the congruence and
       [norm v] remains exact no matter how long the chain grows.  Each
       store still publishes the normalized architectural value, but
       the sign-extension shifts sit off the loop-carried path, leaving
       a 1-cycle add as the chain's whole latency. *)
    let p =
      Array.init (4 * n)
        (fun idx ->
           let c = arr.(idx / 4) in
           match idx mod 4 with
           | 0 -> c.f_rd
           | 1 -> c.f_s1
           | 2 -> c.f_s2
           | _ -> c.f_imm)
    in
    let m = 4 * n in
    fun st ->
      let r = st.regs in
      let v = ref 0 in
      let k = ref 0 in
      while !k < m do
        let s1 = Array.unsafe_get p (!k + 1) in
        let s2 = Array.unsafe_get p (!k + 2) in
        let x1 = if s1 >= 0 then g r s1 else !v in
        let x2 =
          if s2 >= 0 then g r s2
          else if s2 = -1 then !v
          else Array.unsafe_get p (!k + 3)
        in
        let x = x1 + x2 in
        s r (Array.unsafe_get p !k) (norm x);
        v := x;
        k := !k + 4
      done
  end
  else fun st ->
    let r = st.regs in
    let v = ref 0 in
    for k = 0 to n - 1 do
      let c = Array.unsafe_get arr k in
      let x1 = if c.f_s1 >= 0 then g r c.f_s1 else !v in
      let x =
        match c.f_kind with
        | 0 ->
          let x2 =
            if c.f_s2 >= 0 then g r c.f_s2
            else if c.f_s2 = -1 then !v
            else c.f_imm
          in
          norm (x1 + x2)
        | 1 ->
          let x2 =
            if c.f_s2 >= 0 then g r c.f_s2
            else if c.f_s2 = -1 then !v
            else c.f_imm
          in
          Exec.alu_eval_int c.f_op x1 x2
        | _ -> c.f_imm
      in
      s r c.f_rd x;
      v := x
    done

(* Address-gen + load + bump: the other dominant block triple.  The
   load is still a sync point inside the fused closure — the delta
   published covers the head and everything before it. *)
let fuse3_load (h1 : head) (u : P.uop) pc ~delta (h3 : head) : op =
  let nx = pc + 1 in
  match u, h1, h3 with
  | P.U_load (w, rd, rs, imm, _), H_add (d1, a1, b1), H_addi (d3, a3, i3) ->
    fun st ->
      let r = st.regs in
      s r d1 (norm (g r a1 + g r b1));
      st.pc <- nx; st.retired <- st.retired + delta;
      s r rd (Memory.load_int st.mem w (g r rs + imm));
      s r d3 (norm (g r a3 + i3))
  | U_load (w, rd, rs, imm, _), H_addi (d1, a1, i1), H_addi (d3, a3, i3) ->
    fun st ->
      let r = st.regs in
      s r d1 (norm (g r a1 + i1));
      st.pc <- nx; st.retired <- st.retired + delta;
      s r rd (Memory.load_int st.mem w (g r rs + imm));
      s r d3 (norm (g r a3 + i3))
  | U_load (w, rd, rs, imm, _), _, _ -> fun st ->
    let r = st.regs in
    run_head h1 r;
    st.pc <- nx; st.retired <- st.retired + delta;
    s r rd (Memory.load_int st.mem w (g r rs + imm));
    run_head h3 r
  | _ -> assert false

(* Chain segments with three calls per closure level. *)
let rec chain (fs : op list) : op =
  match fs with
  | [] -> nothing
  | [ f ] -> f
  | [ f; g ] -> fun st -> f st; g st
  | [ f; g; h ] -> fun st -> f st; g st; h st
  | f :: g :: h :: rest ->
    let tl = chain rest in
    fun st -> f st; g st; h st; tl st

(* Compile the block spanning [l..e] (every uop valid; only uop [e] may
   be a terminator) into one closure, fusing greedily left to right:
   maximal head runs become forwarded chains ({!fuse_run}), a lone
   address-gen head in front of a load with an index bump behind it
   becomes the load triple ({!fuse3_load}), a lone head in front of the
   terminator inlines into it ({!term_op1}).  Returns the closure and
   the fused groups fired, as (head pc, "class+class+...") — the block
   plan {!block_plan} reports. *)
let compile_block (src : int Insn.t array) (uops : P.uop array) l e
  : op * (int * string) list =
  let rules = ref [] in
  let rule a len =
    rules :=
      (a,
       String.concat "+"
         (List.init len (fun k -> P.uop_class uops.(a + k))))
      :: !rules
  in
  let hd j =
    if j <= e && kind_of uops.(j) = K_bare then head_of src.(j) uops.(j)
    else None
  in
  (* [since] = uops completed since the last sync point, compile-time. *)
  let rec seg i since : op list =
    if i > e then
      let nx = e + 1 and dt = since in
      [ (fun st -> st.pc <- nx; st.retired <- st.retired + dt) ]
    else
      let u = uops.(i) in
      match kind_of u with
      | K_term -> [ term_op u i ~dt:(since + 1) ]
      | K_mem -> mem_op u i ~delta:since :: seg (i + 1) 1
      | K_bare ->
        match head_of src.(i) u with
        | None -> bare_op u :: seg (i + 1) (since + 1)
        | Some h1 ->
          (* maximal run of fusible heads starting at [i] *)
          let rec collect j acc =
            match hd j with
            | Some h -> collect (j + 1) (h :: acc)
            | None -> (j, List.rev acc)
          in
          let j, hs = collect (i + 1) [ h1 ] in
          match hs with
          | [ _ ] ->
            (match (if i + 1 <= e then Some uops.(i + 1) else None),
                   hd (i + 2) with
             | Some (P.U_load (_, rd, _, _, _) as lu), Some h3
               when rd <> 0 ->
               rule i 3;
               fuse3_load h1 lu (i + 1) ~delta:(since + 1) h3
               :: seg (i + 3) 2
             | _ ->
               if i + 1 = e && kind_of uops.(e) = K_term then
                 [ term_op1 h1 uops.(e) e ~dt:(since + 2) ]
               else bare_op u :: seg (i + 1) (since + 1))
          | [ _; h2 ] ->
            if i + 2 = e && kind_of uops.(e) = K_term then begin
              rule i 3;
              [ term_op ~pre:(fuse2_bare h1 h2) uops.(e) e ~dt:(since + 3) ]
            end
            else begin
              rule i 2;
              fuse2_bare h1 h2 :: seg (i + 2) (since + 2)
            end
          | [ _; h2; h3 ] ->
            rule i 3;
            fuse3_bare h1 h2 h3 :: seg (i + 3) (since + 3)
          | _ ->
            let len = List.length hs in
            rule i len;
            fuse_run hs :: seg j (since + len)
  in
  let f = chain (seg l 0) in
  (f, List.rev !rules)

(* Blocks longer than this split; bounds the fuel the driver must
   reserve to keep out-of-fuel reports bit-identical. *)
let max_block_len = 64

(* -- LPSU lane metadata ------------------------------------------------ *)

(* Which pcs an LPSU lane may execute through the compiled closure
   instead of {!Exec.step}.  Plain = single-cycle, portless, trapless,
   and observationally silent: no memory traffic (ports, LSQ, store
   broadcasts), no long-latency unit, no loop bookkeeping, and a control
   transfer only when "taken" is recoverable from the outgoing pc — a
   conditional branch targeting its own fall-through is indistinguishable
   either way, so it stays slow.  The LPSU demotes further pcs it
   observes (CIR registers, last-CIR-write pcs, dynamic-bound writes)
   and bypasses the whole array under any attached observer. *)
let lane_meta_of (src : int Insn.t array) (uops : P.uop array)
    (ops : op array) : lane_meta array =
  Array.init (Array.length uops) (fun pc ->
      let insn = src.(pc) and u = uops.(pc) in
      let plain =
        uop_valid u && not (Insn.is_mem insn) && not (Insn.is_llfu insn)
        && (match u with
            | P.U_xloop_de _ | U_xloop_cmp _ | U_halt -> false
            | U_branch (_, _, _, l) -> l <> pc + 1
            | _ -> true)
      in
      if not plain then L_slow
      else
        let ctrl = match u with
          | P.U_branch _ -> 1
          | U_jump _ | U_jal _ | U_jr _ -> 2
          | _ -> 0
        in
        L_plain { l_op = ops.(pc);
                  l_rd = Insn.dest_reg insn;
                  l_s1 = Insn.src1 insn; l_s2 = Insn.src2 insn;
                  l_ctrl = ctrl })

(* -- Compilation ------------------------------------------------------- *)

let compile_fresh (pre : Program.predecoded) : compiled =
  let uops = pre.P.uops in
  let src = pre.P.source.P.insns in
  let n = Array.length uops in
  let ops =
    Array.init n (fun pc ->
        let u = uops.(pc) in
        if uop_valid u then fast_op u pc else safe_op u pc)
  in
  (* Block closures at the leaders of multi-uop blocks; every other pc
     (jr targets, mid-block branch destinations in hand-built code)
     keeps its single-op closure, so any dynamic pc is dispatchable. *)
  let leaders = pre.P.leaders in
  let blk = Array.copy ops in
  let spans = ref [] and btriples = ref [] and max_block = ref 1 in
  let block_end l =
    let rec go j =
      if j >= n || (j > l && leaders.(j)) || j - l >= max_block_len
         || not (uop_valid uops.(j))
      then j - 1
      else if kind_of uops.(j) = K_term then j
      else go (j + 1)
    in
    go l
  in
  for l = n - 1 downto 0 do
    if leaders.(l) then begin
      let e = block_end l in
      if e > l then begin
        let f, rls = compile_block src uops l e in
        blk.(l) <- f;
        spans := (l, e - l + 1) :: !spans;
        btriples := rls @ !btriples;
        max_block := max !max_block (e - l + 1)
      end
    end
  done;
  { pre; ops; blk; max_block = !max_block;
    spans = !spans; btriples = !btriples;
    lane = lane_meta_of src uops ops }

(* Per-domain memo keyed by physical equality, same shape as the
   predecode memo: sweeps re-run the same few programs thousands of
   times, so compilation is paid once per program per domain. *)

let memo : (Program.predecoded * compiled) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let memo_cap = 8

let compile (pre : Program.predecoded) : compiled =
  let cache = Domain.DLS.get memo in
  match List.find_opt (fun (p, _) -> p == pre) !cache with
  | Some (_, c) -> c
  | None ->
    let c = compile_fresh pre in
    let rest =
      if List.length !cache >= memo_cap
      then List.filteri (fun i _ -> i < memo_cap - 1) !cache
      else !cache
    in
    cache := (pre, c) :: rest;
    c

let block_plan prog =
  let c = compile (Program.predecode prog) in
  (c.spans, c.btriples)

let lane_meta pre = (compile pre).lane

(* -- Driver ------------------------------------------------------------ *)

(* Block-dispatch driver.  A block dispatch retires at most [max_block]
   uops in one bump, so the main loop only runs while that much fuel
   provably remains; the residue executes on the per-uop closures, which
   stop on the exact instruction the per-step tiers would — out-of-fuel
   reports stay bit-identical. *)
let run_serial_block ?(entry = 0) ?(fuel = 200_000_000) prog
    (m : Memory.t) : (Exec.run, Exec.stop) result =
  let c = compile (Program.predecode prog) in
  let blk = c.blk and ops = c.ops in
  let n = Array.length blk in
  let st = { regs = Array.make Reg.num_regs 0; mem = m;
             pc = entry; retired = 0 } in
  try
    let lim = fuel - c.max_block in
    while st.retired <= lim do
      let pc = st.pc in
      if pc < 0 || pc >= n then
        raise (Exec.Trap (Printf.sprintf "pc out of range: %d" pc));
      (Array.unsafe_get blk pc) st
    done;
    while st.retired < fuel do
      let pc = st.pc in
      if pc < 0 || pc >= n then
        raise (Exec.Trap (Printf.sprintf "pc out of range: %d" pc));
      (Array.unsafe_get ops pc) st
    done;
    Error (Exec.Out_of_fuel { pc = st.pc; insns = st.retired;
                              cycle = st.retired })
  with Exec.Halted ->
    Ok { Exec.dynamic_insns = st.retired;
         final = { Exec.regs = st.regs; pc = st.pc } }
