(** Compiler driver: Loopc kernel -> assembled program.

    Targets mirror the paper's three binary flavours:
    - {!Lower.general}: the general-purpose ISA (annotated loops compile
      to plain branch loops) — the serial baselines of Table II;
    - {!Lower.xloops_isa}: full XLOOPS ISA with [.xi] strength reduction;
    - {!Lower.xloops_no_xi}: XLOOPS without [.xi] (the RTL/VLSI evaluation
      mode of Section V, which disables [.xi] generation in loop strength
      reduction and recomputes addresses instead). *)

open Ast

type target = Lower.target = { xloops : bool; use_xi : bool }

let general = Lower.general
let xloops = Lower.xloops_isa
let xloops_no_xi = Lower.xloops_no_xi

exception Error = Lower.Compile_error

type compiled = {
  program : Xloops_asm.Program.t;
  layout : Xloops_asm.Layout.t;
  array_base : string -> int;       (** data address of an array *)
  spill_slots : int;
  mem_bytes : int;                  (** simulated memory size of a run *)
  target : target;
  kernel : kernel;
}

(* The smallest power of two, at least 4 KiB, that covers every region
   of [layout], the spill area included: the data footprint rounded up.
   A run's access past it raises [Memory.Bad_access]. *)
let mem_bytes_of_layout layout =
  let top =
    List.fold_left
      (fun acc (r : Xloops_asm.Layout.region) -> max acc (r.base + r.bytes))
      0 (Xloops_asm.Layout.regions layout)
  in
  let rec up n = if n >= top then n else up (2 * n) in
  up 4096

(** Reject spill stores inside xloop bodies: spill slots live in shared
    memory, so a store from inside a specialized loop would race across
    lanes.  (Read-only reloads of live-ins are fine and are allowed.) *)
let check_no_spill_stores_in_xloops (p : Xloops_asm.Program.t) =
  let insns = p.insns in
  Array.iteri
    (fun xpc insn ->
       match insn with
       | Xloops_isa.Insn.Xloop (_, _, _, body) ->
         for pc = body to xpc - 1 do
           match insns.(pc) with
           | Xloops_isa.Insn.Store (_, _, base, _)
             when base = Xloops_isa.Reg.sp ->
             raise (Error
                      (Printf.sprintf
                         "register pressure too high: spill store at pc %d \
                          inside the xloop body ending at %d" pc xpc))
           | _ -> ()
         done
       | _ -> ())
    insns

(** Compile [k] for [target].  Array placement and the spill area are
    allocated from a fresh {!Xloops_asm.Layout}. *)
let compile ?(target = xloops) (k : kernel) : compiled =
  let layout = Xloops_asm.Layout.create () in
  let arrays =
    List.map
      (fun a ->
         let base =
           Xloops_asm.Layout.alloc layout ~name:a.a_name
             ~bytes:(a.a_len * elem_bytes a.a_ty)
         in
         (a.a_name, { Lower.ai_base = base; ai_ty = a.a_ty }))
      k.arrays
  in
  let k = Ast.subst_consts k in
  let lowered = Lower.lower_kernel ~target ~arrays k in
  let phys_ir, slots = Regalloc.run lowered.ir ~num_vregs:lowered.num_vregs in
  let spill_base =
    if slots = 0 then 0
    else Xloops_asm.Layout.alloc layout ~name:(k.k_name ^ "$spill")
        ~bytes:(slots * 4)
  in
  let program = Codegen.emit ~spill_base phys_ir in
  if target.xloops then check_no_spill_stores_in_xloops program;
  { program; layout;
    array_base =
      (fun name ->
         match List.assoc_opt name arrays with
         | Some i -> i.Lower.ai_base
         | None -> invalid_arg ("array_base: " ^ name));
    spill_slots = slots;
    mem_bytes = mem_bytes_of_layout layout;
    target; kernel = k }

(** Static instruction count of each xloop body in the program: (body
    start pc, xloop pc, body length).  Used for Table II's loop
    statistics. *)
let xloop_bodies (p : Xloops_asm.Program.t) =
  let acc = ref [] in
  Array.iteri
    (fun xpc insn ->
       match insn with
       | Xloops_isa.Insn.Xloop (_, _, _, body) ->
         acc := (body, xpc, xpc - body) :: !acc
       | _ -> ())
    p.insns;
  List.rev !acc
