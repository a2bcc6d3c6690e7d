(** The process-wide program cache: each registry kernel is compiled at
    most once per {!Compile.target} for the life of the process, with its
    disassembly listing and the listing's MD5.

    The paper's methodology runs one binary per ISA on every machine and
    mode; only the machine changes, never the program.  So every library
    path that needs a registry kernel's program — result-cache keys,
    execution, kernel metadata — shares one compiled value per
    (kernel, target) pair.  Shared programs are only ever read: the
    simulator builds its own memory and machine state per run. *)

module Kernel = Xloops_kernels.Kernel
module Registry = Xloops_kernels.Registry
module Compile = Xloops_compiler.Compile

type entry = {
  compiled : Compile.compiled;
  listing : string;
  listing_digest : Digest.t;
}

(* The disassembly listing, not [Program.encode]: the simulator executes
   [Insn.t] values directly, so programs may carry immediates the binary
   encoder would reject, and the digest must be total over anything the
   simulator can run.  Kept with the entry because printing it costs more
   than hashing it (a few KiB per program). *)
let compile ~target (k : Kernel.t) =
  let compiled = Compile.compile ~target k.kernel in
  let listing = Xloops_asm.Program.to_string compiled.program in
  { compiled; listing; listing_digest = Digest.string listing }

(* Keyed by name, but only ever filled for the registry's own descriptor
   values (physical identity), so a synthetic kernel that reuses a
   registry name can never read or replace a registry entry. *)
let table : (string * Compile.target, entry) Hashtbl.t = Hashtbl.create 128
let mu = Mutex.create ()

let registered (k : Kernel.t) = List.exists (fun r -> r == k) Registry.all

(* Compiling under the lock keeps "once per pair" exact even when worker
   domains race on a cold pair; a compile is well under a millisecond and
   happens once per pair per process. *)
let find ~target (k : Kernel.t) =
  if not (registered k) then compile ~target k
  else
    Mutex.protect mu (fun () ->
        let key = (k.name, target) in
        match Hashtbl.find_opt table key with
        | Some e -> e
        | None ->
          let e = compile ~target k in
          Hashtbl.add table key e;
          e)
