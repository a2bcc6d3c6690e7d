(* LPSU lane fast path: every [L_plain] closure must have exactly
   [Exec.step]'s register effect and outgoing pc, and the metadata the
   LPSU reads must describe that effect — it rebuilds the RAW scoreboard
   from [Insn_meta]'s [s1]/[s2]/[rd] and the taken-branch bubble from
   [l_ctrl] alone.

   Layers:
   - single-step differential: for every plain pc of a random program
     and random register files, [l_op] and [Exec.step] agree, only
     [Insn_meta]'s [rd] changes, changing any register other than [s1]
     and [s2] changes neither the outgoing pc nor the written value, and
     [l_ctrl] predicts the event's [taken] flag;
   - classification: plain and slow pcs fall where the rules say.
   Whole-kernel invisibility of the fast path is checked in test_lpsu
   ("fast-path compiled lanes invisible"). *)

open Xloops_isa
module B = Xloops_asm.Builder
module Program = Xloops_asm.Program
module Memory = Xloops_mem.Memory
module Exec = Xloops_sim.Exec
module Lane_ops = Xloops_sim.Lane_ops
module Insn_meta = Xloops_sim.Insn_meta

(* -- random programs ---------------------------------------------------- *)

(* The test_predecode instruction mix plus [jal], [jr] and r0
   destinations: every uop shape the classifier has to place.  Programs
   are only single-stepped from random register files, never run, so
   memory operands and termination do not matter. *)

let gen_int32 =
  let open QCheck.Gen in
  frequency
    [ 4, map Int32.of_int (int_range (-1000) 1000);
      2, map Int32.of_int (int_range (-4) 4);
      2, map Int32.of_int (int_bound 0x7FFFFFFF);
      1, oneofl [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 31l; 32l ] ]

let all_alu_ops =
  [ Insn.Add; Sub; And; Or_; Xor; Nor; Sll; Srl; Sra; Slt; Sltu;
    Mul; Mulh; Div; Rem ]

let all_fpu_ops =
  [ Insn.Fadd; Fsub; Fmul; Fdiv; Fmin; Fmax; Feq; Flt; Fle;
    Fcvt_sw; Fcvt_ws ]

let all_widths = [ Insn.B; Bu; H; Hu; W ]

let all_amo_ops =
  [ Insn.Amo_add; Amo_and; Amo_or; Amo_xchg; Amo_min; Amo_max ]

let all_branch_conds = [ Insn.Beq; Bne; Blt; Bge; Bltu; Bgeu ]

let gen_insn ~pc ~len =
  let open QCheck.Gen in
  let reg = int_range 0 15 in
  let fwd = int_range (pc + 1) len in   (* the Halt sits at [len] *)
  frequency
    [ 8, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Alu (op, rd, rs, rt)));
      6, (let* op = oneofl all_alu_ops in
          let* rd = reg in
          let* rs = reg in
          let* imm = int_range (-40000) 40000 in
          return (Insn.Alui (op, rd, rs, imm)));
      2, (let* op = oneofl all_fpu_ops in
          let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Fpu (op, rd, rs, rt)));
      1, (let* rd = reg in
          let* imm = int_range 0 0xFFFF in
          return (Insn.Lui (rd, imm)));
      2, (let* rd = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          return (Insn.Load (w, rd, 20, off)));
      2, (let* rt = reg in
          let* off = int_range 0 15 in
          let* w = oneofl all_widths in
          return (Insn.Store (w, rt, 20, off)));
      1, (let* op = oneofl all_amo_ops in
          let* rd = reg in
          let* rt = reg in
          return (Insn.Amo (op, rd, 21, rt)));
      4, (let* c = oneofl all_branch_conds in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Branch (c, rs, rt, l)));
      1, (let* l = fwd in return (Insn.Jump l));
      1, (let* l = fwd in return (Insn.Jal l));
      1, (let* rs = reg in return (Insn.Jr rs));
      1, (let* dp = oneofl [ Insn.Uc; Or; Om; Orm; Ua ] in
          let* cp = oneofl [ Insn.Fixed; Dyn; De ] in
          let* rs = reg in
          let* rt = reg in
          let* l = fwd in
          return (Insn.Xloop ({ dp; cp }, rs, rt, l)));
      1, (let* rd = reg in
          let* rs = reg in
          let* imm = int_range (-100) 100 in
          return (Insn.Xi_addi (rd, rs, imm)));
      1, (let* rd = reg in
          let* rs = reg in
          let* rt = reg in
          return (Insn.Xi_add (rd, rs, rt)));
      1, oneofl [ Insn.Sync; Nop ] ]

let gen_program =
  let open QCheck.Gen in
  let* len = int_range 5 60 in
  let* body =
    let rec go pc acc =
      if pc = len then return (List.rev acc)
      else
        let* i = gen_insn ~pc ~len in
        go (pc + 1) (i :: acc)
    in
    go 0 []
  in
  return { Program.insns = Array.of_list (body @ [ Insn.Halt ]);
           symbols = [] }

(* A register file in the hart's representation: sign-extended 32-bit
   values, r0 = 0. *)
let gen_regs =
  QCheck.Gen.(
    map
      (fun l ->
         Array.of_list
           (0 :: List.map Int32.to_int (List.tl l)))
      (list_repeat Reg.num_regs gen_int32))

(* -- single-step differential ------------------------------------------ *)

let prop_lane_op_matches_step =
  QCheck.Test.make
    ~name:"l_op == Exec.step on every plain pc, metadata exact" ~count:400
    (QCheck.make
       QCheck.Gen.(pair gen_program (list_size (int_range 1 4) gen_regs))
       ~print:(fun (p, _) -> Fmt.str "%a" Program.pp p))
    (fun (p, files) ->
       let pre = Program.predecode p in
       let lane = Lane_ops.lane_meta pre in
       let meta = Insn_meta.of_program p in
       let mem = Exec.direct_mem (Memory.create ~size:1024 ()) in
       let ev = Exec.create_event () in
       let check pc regs =
         match lane.(pc) with
         | Lane_ops.L_slow -> true
         | L_plain { l_op; l_ctrl } ->
           let { Insn_meta.s1; s2; rd; _ } = meta.(pc) in
           let fast = Array.copy regs in
           let next = l_op fast in
           let h = { Exec.regs = Array.copy regs; pc } in
           Exec.step pre h mem ev;
           let taken =
             l_ctrl = 2 || (l_ctrl = 1 && next <> pc + 1) in
           let ok =
             fast = h.Exec.regs && next = h.Exec.pc
             && (l_ctrl <> 0 || next = pc + 1)
             && taken = ev.Exec.taken
           in
           let only_rd = ref true in
           Array.iteri
             (fun r v -> if r <> rd && v <> regs.(r) then only_rd := false)
             fast;
           (* Read set: perturb each non-source register (r0 is
              hard-wired) and re-run; the outgoing pc and the value
              written to [rd] must not move. *)
           let non_source = ref (-1) in
           for r = Reg.num_regs - 1 downto 1 do
             if r <> s1 && r <> s2 then begin
               let other = Array.copy regs in
               other.(r) <- lnot regs.(r);
               let next' = l_op other in
               if next' <> next || (rd > 0 && other.(rd) <> fast.(rd)) then
                 non_source := r
             end
           done;
           if not (ok && !only_rd && !non_source < 0) then
             QCheck.Test.fail_reportf
               "pc %d (%a): fast pc %d regs %s, step pc %d, rd %d s1 %d \
                s2 %d, writes only rd %b, reads r%d, l_ctrl %d, taken %b"
               pc (Insn.pp Fmt.int) p.Program.insns.(pc) next
               (if fast = h.Exec.regs then "equal" else "differ")
               h.Exec.pc rd s1 s2 !only_rd !non_source l_ctrl ev.Exec.taken;
           true
       in
       let pcs = List.init (Array.length lane) Fun.id in
       List.for_all (fun regs -> List.for_all (fun pc -> check pc regs) pcs)
         files)

(* -- classification ----------------------------------------------------- *)

let test_classification () =
  let b = B.create () in
  B.label b "top";
  B.add b 8 8 9;                     (* 0: plain *)
  B.addi b 9 9 (-1);                 (* 1: plain *)
  B.mul b 10 8 9;                    (* 2: long latency *)
  B.lw b 11 8 0;                     (* 3: memory *)
  B.beq b 8 9 "next";                (* 4: targets its own fall-through *)
  B.label b "next";
  B.bne b 9 0 "top";                 (* 5: plain conditional *)
  B.halt b;                          (* 6 *)
  let p = B.assemble b in
  let lane = Lane_ops.lane_meta (Program.predecode p) in
  let kind pc =
    match lane.(pc) with
    | Lane_ops.L_slow -> "slow"
    | L_plain { l_ctrl; _ } -> Fmt.str "plain/%d" l_ctrl
  in
  Alcotest.(check (list string)) "per-pc classes"
    [ "plain/0"; "plain/0"; "slow"; "slow"; "slow"; "plain/1"; "slow" ]
    (List.init (Array.length lane) kind)

let () =
  Alcotest.run "lane_ops"
    [ ("differential",
       [ QCheck_alcotest.to_alcotest prop_lane_op_matches_step ]);
      ("classification",
       [ Alcotest.test_case "plain and slow pcs" `Quick test_classification ]);
    ]
