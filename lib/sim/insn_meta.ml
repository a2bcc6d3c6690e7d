(** Per-pc timing metadata: what the GPP and LPSU timing models need to
    know about a static instruction, decoded once per program instead of
    re-matching [Insn.t] several times per dynamic instruction. *)

open Xloops_isa
module Program = Xloops_asm.Program

(* Functional-unit classes, one per {!Stats} execute counter. *)
type fu = Fu_alu | Fu_mul | Fu_div | Fu_fpu | Fu_xi | Fu_amo

type latency = Lat_alu | Lat_mul | Lat_div | Lat_fpu

type t = {
  s1 : int;              (* source registers, -1 when absent *)
  s2 : int;
  rd : int;              (* destination register, -1 when none *)
  rf_reads : int;        (* number of present sources *)
  fu : fu;
  lat : latency;
  unpipelined : bool;    (* occupies the divider: div, rem, fdiv *)
  llfu : bool;           (* executes on the shared long-latency unit *)
  mem : bool;            (* load, store or AMO *)
  branch : bool;         (* any control transfer, xloop included *)
  predicted : bool;      (* conditional: branch or xloop *)
  sync : bool;
}

let of_insn (i : int Insn.t) =
  let s1 = Insn.src1 i and s2 = Insn.src2 i in
  let fu =
    match i with
    | Alu ((Mul | Mulh), _, _, _) | Alui ((Mul | Mulh), _, _, _) -> Fu_mul
    | Alu ((Div | Rem), _, _, _) | Alui ((Div | Rem), _, _, _) -> Fu_div
    | Fpu _ -> Fu_fpu
    | Xi_addi _ | Xi_add _ -> Fu_xi
    | Amo _ -> Fu_amo
    | _ -> Fu_alu
  in
  let lat =
    match i with
    | Alu ((Mul | Mulh), _, _, _) | Alui ((Mul | Mulh), _, _, _) -> Lat_mul
    | Alu ((Div | Rem), _, _, _) | Alui ((Div | Rem), _, _, _)
    | Fpu (Fdiv, _, _, _) -> Lat_div
    | Fpu _ -> Lat_fpu
    | _ -> Lat_alu
  in
  { s1; s2; rd = Insn.dest_reg i;
    rf_reads = (if s1 >= 0 then 1 else 0) + (if s2 >= 0 then 1 else 0);
    fu; lat;
    unpipelined = lat = Lat_div;
    llfu = Insn.is_llfu i;
    mem = Insn.is_mem i;
    branch = Insn.is_branch i;
    predicted = (match i with Branch _ | Xloop _ -> true | _ -> false);
    sync = (match i with Sync -> true | _ -> false) }

let of_program (p : Program.t) = Array.map of_insn p.Program.insns

(* Issues are counted per pc on the hot paths (an array increment) and
   turned into {!Stats} events here, once per run. *)
let add_events (s : Stats.t) m n =
  s.decodes <- s.decodes + n;
  s.rf_reads <- s.rf_reads + n * m.rf_reads;
  if m.rd >= 0 then s.rf_writes <- s.rf_writes + n;
  (match m.fu with
   | Fu_alu -> s.alu_ops <- s.alu_ops + n
   | Fu_mul -> s.mul_ops <- s.mul_ops + n
   | Fu_div -> s.div_ops <- s.div_ops + n
   | Fu_fpu -> s.fpu_ops <- s.fpu_ops + n
   | Fu_xi -> s.xi_ops <- s.xi_ops + n
   | Fu_amo -> s.amo_ops <- s.amo_ops + n);
  if m.branch then s.branches <- s.branches + n

let fold_counts meta counts ~lo ~hi stats =
  for pc = lo to hi - 1 do
    let n = counts.(pc) in
    if n > 0 then begin
      add_events stats meta.(pc) n;
      counts.(pc) <- 0
    end
  done
