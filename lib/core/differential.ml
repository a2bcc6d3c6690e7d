(** Differential checker for the graceful-degradation safety net.

    The guarantee under test: a specialized run with faults injected into
    the LPSU, protected by the watchdog and checkpoint/rollback, must
    leave memory {e bit-identical} to a plain traditional run of the same
    kernel — every corrupted or hung loop is rolled back to its entry
    checkpoint and re-executed with traditional semantics, so the fault
    must be architecturally invisible.

    Registers are deliberately not compared: the post-loop values of
    registers that are not live-out of an xloop are unspecified by the
    ISA, so only memory (plus the kernel's own self-check) is
    authoritative. *)

module Memory = Xloops_mem.Memory
module Machine = Xloops_sim.Machine
module Fault = Xloops_sim.Fault
module Config = Xloops_sim.Config
module Kernel = Xloops_kernels.Kernel
module Compile = Xloops_compiler.Compile

type outcome = {
  kernel : string;
  failure : Machine.failure option;  (** faulted run failed outright *)
  identical : bool;                  (** memory matches traditional *)
  check_ok : bool;                   (** kernel self-check on faulted run *)
  injected : Fault.kind list;        (** distinct kinds actually injected *)
  degradations : int;
  hangs : Fault.hang list;
}

let ok o = o.failure = None && o.identical && o.check_ok

let pp_outcome ppf o =
  Fmt.pf ppf "%-14s %s inj=[%a] degr=%d hangs=%d"
    o.kernel
    (match o.failure with
     | Some f -> Fmt.str "FAIL(%a)" Machine.pp_failure f
     | None ->
       if not o.identical then "MEM-DIVERGED"
       else if not o.check_ok then "CHECK-FAILED"
       else "identical")
    Fmt.(list ~sep:comma Fault.pp_kind) o.injected
    o.degradations (List.length o.hangs)

(** Run [k] twice from identical initial state — plain traditional, then
    specialized under [faults] with the watchdog and safety net on — and
    compare final memories byte for byte. *)
let run_kernel ?(cfg = Config.io_x) ?(mode = Machine.Specialized)
    ?(watchdog = 20_000) ~faults (k : Kernel.t) : outcome =
  let compiled = (Program_cache.find ~target:Compile.xloops k).compiled in
  let mem_ref = Memory.create ~size:compiled.mem_bytes () in
  k.init compiled.array_base mem_ref;
  (match Machine.simulate ~cfg ~mode:Machine.Traditional
           compiled.program mem_ref with
   | Ok _ -> ()
   | Error f ->
     failwith (Fmt.str "Differential.run_kernel %s: reference run: %a"
                 k.name Machine.pp_failure f));
  let mem = Memory.create ~size:compiled.mem_bytes () in
  k.init compiled.array_base mem;
  let m = Machine.create ~cfg ~mode ~prog:compiled.program ~mem
      ~faults ~watchdog () in
  match Machine.run m with
  | Error f ->
    { kernel = k.name; failure = Some f; identical = false;
      check_ok = false; injected = Fault.injected_kinds faults;
      degradations = 0; hangs = Machine.hangs m }
  | Ok r ->
    { kernel = k.name;
      failure = None;
      identical = Bytes.equal mem_ref.Memory.data mem.Memory.data;
      check_ok = (k.check compiled.array_base mem = Ok ());
      injected = Fault.injected_kinds faults;
      degradations = r.Machine.stats.Xloops_sim.Stats.degradations;
      hangs = Machine.hangs m }

(** Sweep every Table II kernel under a fresh fault plan derived from
    [seed] (one deterministic sub-seed per kernel) and return the
    outcomes plus the union of fault kinds injected anywhere in the
    sweep.  [events] is the number of fault events per kernel. *)
let check_table2 ?cfg ?mode ?watchdog ?(events = 12) ~seed () =
  let outcomes =
    List.mapi
      (fun i k ->
         let faults = Fault.plan ~seed:(seed + (i * 7919)) ~events () in
         run_kernel ?cfg ?mode ?watchdog ~faults k)
      Xloops_kernels.Registry.table2
  in
  let kinds =
    List.sort_uniq compare (List.concat_map (fun o -> o.injected) outcomes)
  in
  (outcomes, kinds)
