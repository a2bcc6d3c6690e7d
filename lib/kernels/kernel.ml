(** Kernel descriptor: a Loopc program plus its dataset initializer and a
    self-check against an OCaml-computed reference.  Every Table II / IV
    application kernel in this library is one of these. *)

module Memory = Xloops_mem.Memory

(** Array base resolver: [base "name"] is the data address the compiler
    placed the array at. *)
type bases = string -> int

type t = {
  name : string;
  suite : string;           (** Po / M / P / C, as in Table II *)
  dominant : string;        (** dominant dependence pattern, e.g. "uc" *)
  kernel : Xloops_compiler.Ast.kernel;
  init : bases -> Memory.t -> unit;
  check : bases -> Memory.t -> (unit, string) result;
}

(** Array declaration shorthand for kernel definitions. *)
let arr name ty len : Xloops_compiler.Ast.array_decl =
  { a_name = name; a_ty = ty; a_len = len }

(* -- Check helpers ------------------------------------------------------ *)

let check_int_array ~what ~(expected : int array) (actual : int array) =
  let n = Array.length expected in
  if Array.length actual <> n then
    Error (Printf.sprintf "%s: length %d, expected %d" what
             (Array.length actual) n)
  else begin
    let bad = ref None in
    for i = n - 1 downto 0 do
      if expected.(i) <> actual.(i) then bad := Some i
    done;
    match !bad with
    | None -> Ok ()
    | Some i ->
      Error (Printf.sprintf "%s[%d] = %d, expected %d" what i actual.(i)
               expected.(i))
  end

let check_f32_array ~what ~(expected : float array) ?(eps = 1e-3)
    (actual : float array) =
  let n = Array.length expected in
  let bad = ref None in
  for i = n - 1 downto 0 do
    if Float.abs (expected.(i) -. actual.(i)) > eps
       *. Float.max 1.0 (Float.abs expected.(i))
    then bad := Some i
  done;
  match !bad with
  | None -> Ok ()
  | Some i ->
    Error (Printf.sprintf "%s[%d] = %g, expected %g" what i actual.(i)
             expected.(i))

let check_sorted ~what (a : int array) =
  let bad = ref None in
  for i = 0 to Array.length a - 2 do
    if a.(i) > a.(i + 1) then bad := Some i
  done;
  match !bad with
  | None -> Ok ()
  | Some i ->
    Error (Printf.sprintf "%s not sorted at %d: %d > %d" what i a.(i)
             a.(i + 1))

let check_permutation ~what ~(of_ : int array) (a : int array) =
  let sa = Array.copy a and sb = Array.copy of_ in
  Array.sort compare sa;
  Array.sort compare sb;
  if sa = sb then Ok ()
  else Error (Printf.sprintf "%s is not a permutation of the input" what)

let all_checks cs = List.fold_left (fun acc c ->
    match acc with Ok () -> c | e -> e) (Ok ()) cs

(* -- Convenience: compile and run a kernel on a config ------------------ *)

module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Compile = Xloops_compiler.Compile

type run = {
  result : Machine.result;
  compiled : Compile.compiled;
  mem : Memory.t;
  check_result : (unit, string) result;
  hangs : Xloops_sim.Fault.hang list;
      (** LPSU watchdog diagnostics, oldest first; degraded ones included *)
}

(** Initialize a fresh memory for [k], simulate its already-compiled
    program on [cfg]/[mode], and self-check the output.  [compiled] is
    only read, so one compiled value may back any number of runs.  A
    simulation failure (fuel, un-degraded hang) comes back as [Error]. *)
let run_compiled ?(cfg = Config.io) ?(mode = Machine.Traditional)
    ?adaptive ?faults ?watchdog ?degrade ?fuel ?trace (k : t)
    (compiled : Compile.compiled) : (run, Machine.failure) result =
  let mem = Memory.create ~size:compiled.mem_bytes () in
  k.init compiled.array_base mem;
  let m = Machine.create ?adaptive ?faults ?watchdog ?degrade ?trace ~cfg
      ~mode ~prog:compiled.program ~mem () in
  match Machine.run ?fuel m with
  | Error f -> Error f
  | Ok result ->
    let check_result = k.check compiled.array_base mem in
    Ok { result; compiled; mem; check_result; hangs = Machine.hangs m }

(** Compile [k] for [target], then {!run_compiled}. *)
let run_result ?(target = Compile.xloops) ?cfg ?mode ?adaptive ?faults
    ?watchdog ?degrade ?fuel ?trace (k : t) : (run, Machine.failure) result =
  run_compiled ?cfg ?mode ?adaptive ?faults ?watchdog ?degrade ?fuel ?trace
    k (Compile.compile ~target k.kernel)

(** Like {!run_result}, raising [Failure] on a simulation failure — the
    convenience form for tests and experiments where kernels are expected
    to complete. *)
let run ?target ?cfg ?mode ?adaptive ?faults ?watchdog ?degrade ?fuel
    ?trace (k : t) : run =
  match run_result ?target ?cfg ?mode ?adaptive ?faults ?watchdog
          ?degrade ?fuel ?trace k with
  | Ok r -> r
  | Error f -> failwith (Fmt.str "Kernel.run %s: %a" k.name
                           Machine.pp_failure f)

(** Dynamic instruction count of the serial functional execution —
    Table II's dynamic-instruction columns — of [compiled], [k]
    compiled for the ISA being counted, through
    {!Xloops_sim.Exec.run_serial}. *)
let dynamic_insns (k : t) (compiled : Compile.compiled) =
  let mem = Memory.create ~size:compiled.mem_bytes () in
  k.init compiled.array_base mem;
  match Xloops_sim.Exec.run_serial compiled.program mem with
  | Ok r -> Ok r.dynamic_insns
  | Error stop -> Error (Fmt.str "%s: %a" k.name Xloops_sim.Exec.pp_stop stop)
