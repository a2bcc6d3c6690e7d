(** Scan-phase static analysis of an [xloop] body (Section II-D).

    When the GPP reaches an [xloop] instruction it scans the loop body —
    the static instruction sequence between the label [L] and the [xloop] —
    into the LPSU, renaming registers and building three structures:

    - the {b MIVT} (mutual-induction-variable table) from the [.xi]
      instructions: (register, loop-invariant increment) pairs;
    - the {b CIR set} for [xloop.{or,orm}]: registers that are read before
      they are written, discovered with two bit-vectors in one static pass
      over the body, plus the largest PC that writes each CIR (the
      "last CIR write" bit);
    - the loop-index step, taken from the index register's MIVT entry or a
      plain immediate add.

    The same analysis decides whether the LPSU can specialize the loop at
    all ([fallback] lists the reasons it cannot). *)

open Xloops_isa
module Program = Xloops_asm.Program

type miv = {
  m_reg : Reg.t;
  m_inc : int32;   (** per-iteration increment (resolved at scan time) *)
}

type cir = {
  c_reg : Reg.t;
  c_last_write_pc : int;  (** -1 if the CIR is never written in the body *)
}

type fallback_reason =
  | Body_too_large of int
  | Pattern_unsupported of Insn.dpattern
  | Has_call                  (** jal/jalr in body: lanes have no link stack *)
  | Bad_index_step            (** non-positive or undiscoverable step *)
  | Malformed_body            (** label does not precede the xloop *)

let pp_fallback ppf = function
  | Body_too_large n -> Fmt.pf ppf "body too large (%d insns)" n
  | Pattern_unsupported p ->
    Fmt.pf ppf "pattern %s unsupported" (Insn.show_dpattern p)
  | Has_call -> Fmt.string ppf "body contains a call"
  | Bad_index_step -> Fmt.string ppf "bad index step"
  | Malformed_body -> Fmt.string ppf "malformed body"

type t = {
  xloop_pc : int;
  body_start : int;
  body_len : int;
  pat : Insn.xpat;
  r_idx : Reg.t;
  r_bound : Reg.t;
  idx_step : int32;
  mivs : miv list;        (** excludes the index register itself *)
  cirs : cir list;        (** empty unless pattern is or/orm *)
}

let has_cirs (pat : Insn.xpat) =
  match pat.dp with Or | Orm -> true | Uc | Om | Ua -> false

let is_speculative_pattern (pat : Insn.xpat) =
  (* A data-dependent exit is control speculation: iterations beyond the
     exit must leave no trace, so every .de loop buffers its stores. *)
  pat.cp = De
  || (match pat.dp with Om | Orm | Ua -> true | Uc | Or -> false)

(* The register-independent part of a scan: the body's bit-vectors and
   write positions, and the [.xi] increments split into their immediate
   sum and the [addu.xi] increment registers.  A machine keeps one per
   xloop pc; only the register increments are read again per loop
   instance, and a body without them resolves to one fixed result. *)
type shape = {
  prog : Program.t;
  s_xloop_pc : int;
  s_body_start : int;
  s_pat : Insn.xpat;
  s_r_idx : Reg.t;
  s_r_bound : Reg.t;
  read_first : bool array;
  written : bool array;
  last_write : int array;
  imm_inc : int32 array;      (* per register: [addiu.xi] immediates *)
  miv_clean : bool array;     (* written only by [.xi] with rd = rs *)
  reg_incs : (Reg.t * Reg.t) list;  (* [addu.xi rd, rd, rt]: (rd, rt) *)
  fixed : (t, fallback_reason) result option;  (* when [reg_incs = []] *)
}

(* The scan result given each register's resolved MIV increment. *)
let build sh (miv_inc : int32 array) : (t, fallback_reason) result =
  let insns = sh.prog.Program.insns in
  let body_start = sh.s_body_start and xloop_pc = sh.s_xloop_pc in
  let r_idx = sh.s_r_idx and r_bound = sh.s_r_bound and pat = sh.s_pat in
  let written = sh.written and miv_clean = sh.miv_clean in
  (* Index step: the index register's MIVT entry, or a plain
     self-increment [addi r_idx, r_idx, imm]. *)
  let idx_step =
    if written.(r_idx) && miv_clean.(r_idx)
    && miv_inc.(r_idx) <> 0l then miv_inc.(r_idx)
    else begin
      let step = ref 0l in
      for pc = body_start to xloop_pc - 1 do
        match insns.(pc) with
        | Alui (Add, rd, rs, imm) when rd = r_idx && rs = r_idx ->
          step := Int32.add !step (Int32.of_int imm)
        | Xi_addi (rd, rs, imm) when rd = r_idx && rs = r_idx ->
          step := Int32.add !step (Int32.of_int imm)
        | _ -> ()
      done;
      !step
    end
  in
  if Int32.compare idx_step 0l <= 0 then Error Bad_index_step
  else begin
    let mivs = ref [] in
    for r = Reg.num_regs - 1 downto 0 do
      if r <> r_idx && r <> Reg.zero && written.(r)
      && miv_clean.(r) && miv_inc.(r) <> 0l then
        mivs := { m_reg = r; m_inc = miv_inc.(r) } :: !mivs
    done;
    let cirs =
      if not (has_cirs pat) then []
      else begin
        (* A last-CIR-write instruction inside an inner loop of the
           body can execute more than once per iteration; forwarding
           on each execution would expose non-final values to the
           next iteration, so such CIRs forward only via the
           end-of-iteration copy (last-write bit unset). *)
        let in_backward_range pc =
          let hit = ref false in
          for bpc = body_start to xloop_pc - 1 do
            match insns.(bpc) with
            | Insn.Branch (_, _, _, target)
            | Insn.Jump target
            | Insn.Xloop (_, _, _, target)
              when target <= bpc && target > body_start ->
              if pc >= target && pc <= bpc then hit := true
            | _ -> ()
          done;
          !hit
        in
        let acc = ref [] in
        for r = Reg.num_regs - 1 downto 1 do
          let is_miv =
            List.exists (fun m -> m.m_reg = r) !mivs in
          if r <> r_idx && r <> r_bound && not is_miv
          && sh.read_first.(r) && written.(r) then begin
            let lw =
              if in_backward_range sh.last_write.(r) then -1
              else sh.last_write.(r)
            in
            acc := { c_reg = r; c_last_write_pc = lw } :: !acc
          end
        done;
        !acc
      end
    in
    Ok { xloop_pc; body_start; body_len = xloop_pc - body_start; pat; r_idx;
         r_bound; idx_step; mivs = !mivs; cirs }
  end

(** [shape prog ~xloop_pc ~lpsu] inspects the xloop at [xloop_pc] as far
    as no register value is needed.  Returns [Error] with the fallback
    reason when the LPSU cannot run this loop whatever the registers. *)
let shape (prog : Program.t) ~xloop_pc ~(lpsu : Config.lpsu)
  : (shape, fallback_reason) result =
  let insns = prog.Program.insns in
  match insns.(xloop_pc) with
  | Xloop (pat, r_idx, r_bound, body_start) ->
    if body_start >= xloop_pc then Error Malformed_body
    else begin
      let body_len = xloop_pc - body_start in
      if body_len > lpsu.ib_entries then Error (Body_too_large body_len)
      else if not (List.mem pat.dp lpsu.supported) then
        Error (Pattern_unsupported pat.dp)
      else begin
        (* One static pass: MIVT, read-first/written bit-vectors,
           last-write PCs, calls. *)
        let read_first = Array.make Reg.num_regs false in
        let written = Array.make Reg.num_regs false in
        let last_write = Array.make Reg.num_regs (-1) in
        let imm_inc = Array.make Reg.num_regs 0l in
        let miv_clean = Array.make Reg.num_regs true in
        let reg_incs = ref [] in
        let has_call = ref false in
        for pc = body_start to xloop_pc - 1 do
          let i = insns.(pc) in
          (match i with
           | Jal _ | Jr _ -> has_call := true
           | _ -> ());
          List.iter
            (fun r -> if not written.(r) then read_first.(r) <- true)
            (Insn.sources i);
          (match i with
           | Xi_addi (rd, rs, imm) when rd = rs ->
             imm_inc.(rd) <- Int32.add imm_inc.(rd) (Int32.of_int imm)
           | Xi_add (rd, rs, rt) when rd = rs ->
             reg_incs := (rd, rt) :: !reg_incs
           | _ ->
             (match Insn.dest i with
              | Some rd -> miv_clean.(rd) <- false
              | None -> ()));
          (match Insn.dest i with
           | Some rd ->
             written.(rd) <- true;
             last_write.(rd) <- pc
           | None -> ())
        done;
        if !has_call then Error Has_call
        else begin
          let sh =
            { prog; s_xloop_pc = xloop_pc; s_body_start = body_start;
              s_pat = pat; s_r_idx = r_idx; s_r_bound = r_bound;
              read_first; written; last_write; imm_inc; miv_clean;
              reg_incs = !reg_incs; fixed = None }
          in
          Ok (match sh.reg_incs with
              | [] -> { sh with fixed = Some (build sh imm_inc) }
              | _ :: _ -> sh)
        end
      end
    end
  | _ -> invalid_arg "Scan.analyze: not an xloop"

(** The scan result of [sh] under GPP registers [regs], which resolve
    the loop-invariant increments of [addu.xi]. *)
let resolve sh ~(regs : int array) =
  match sh.fixed with
  | Some r -> r
  | None ->
    let inc = Array.copy sh.imm_inc in
    List.iter
      (fun (rd, rt) -> inc.(rd) <- Int32.add inc.(rd) (Int32.of_int regs.(rt)))
      sh.reg_incs;
    build sh inc

let analyze prog ~xloop_pc ~regs ~lpsu =
  match shape prog ~xloop_pc ~lpsu with
  | Ok sh -> resolve sh ~regs
  | Error _ as e -> e
