(** First-class run plans: one value describes one self-contained
    simulation — which kernel, which machine, which mode, which compile
    target, plus the robustness knobs (fuel, fault plan, watchdog,
    degradation).  A spec owns its whole machine state: executing one
    builds a fresh memory and machine and returns plain data, so any
    number of specs can execute concurrently (no shared mutable
    [Machine.t] ever escapes).  The program is the one thing specs
    share: a registry kernel is compiled once per (kernel, target) per
    process by {!Program_cache} and only ever read.

    Specs have a canonical binary encoding and an MD5 digest; the digest
    of [encoding ++ program listing digest] is the content address the
    on-disk result cache ({!Run_cache}) files results under. *)

module Kernel = Xloops_kernels.Kernel
module Registry = Xloops_kernels.Registry
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Stats = Xloops_sim.Stats
module Fault = Xloops_sim.Fault
module Trace = Xloops_sim.Trace
module Compile = Xloops_compiler.Compile
module Energy = Xloops_energy.Model
module Insn = Xloops_isa.Insn

type t = {
  kernel : string;                  (** registry name *)
  cfg : Config.t;
  mode : Machine.mode;
  target : Compile.target;
  fuel : int option;                (** GPP instruction budget *)
  fault_seed : (int * int) option;  (** (seed, events) of a fault plan *)
  watchdog : int;                   (** LPSU no-progress threshold, 0 = off *)
  degrade : bool;                   (** traditional-fallback safety net *)
}

let make ?(target = Compile.xloops) ?fuel ?fault_seed ?(watchdog = 50_000)
    ?(degrade = true) ~cfg ~mode kernel =
  { kernel; cfg; mode; target; fuel; fault_seed; watchdog; degrade }

let what t =
  Fmt.str "%s/%s" t.cfg.Config.name (Machine.mode_name t.mode)

let pp ppf t =
  Fmt.pf ppf "%s on %s%s%s" t.kernel (what t)
    (match t.fault_seed with
     | Some (s, n) -> Fmt.str " faults(seed=%d,events=%d)" s n
     | None -> "")
    (if t.degrade then "" else " no-degrade")

(* -- Canonical binary encoding ------------------------------------------ *)

(* Deterministic field-by-field serialization: length-prefixed strings,
   decimal integers with a terminator, one-byte constructor tags.  Unlike
   [Marshal] output this is stable by construction, so it can key an
   on-disk cache. *)

open Field_codec

let dpattern_tag : Insn.dpattern -> int = function
  | Uc -> 0 | Or -> 1 | Om -> 2 | Orm -> 3 | Ua -> 4

(* Written field by field, with no list built to iterate over: encoding
   is on the warm path of every cache lookup. *)
let enc_gpp b (g : Config.gpp) =
  (match g.kind with
   | Config.Inorder -> Buffer.add_char b 'I'
   | Config.Ooo { width; window } ->
     Buffer.add_char b 'O'; enc_int b width; enc_int b window);
  enc_int b g.l1_size; enc_int b g.l1_ways; enc_int b g.l1_line;
  enc_int b g.load_use_latency; enc_int b g.miss_penalty;
  enc_int b g.branch_penalty; enc_int b g.mul_latency;
  enc_int b g.div_latency; enc_int b g.fpu_latency

let rec enc_patterns b = function
  | [] -> ()
  | dp :: rest -> enc_int b (dpattern_tag dp); enc_patterns b rest

let enc_lpsu b (l : Config.lpsu) =
  enc_int b l.lanes; enc_int b l.ib_entries; enc_int b l.idq_entries;
  enc_int b l.lsq_loads; enc_int b l.lsq_stores; enc_int b l.mem_ports;
  enc_int b l.llfu_ports; enc_int b l.threads_per_lane;
  enc_int b l.lane_issue_width;
  enc_bool b l.inter_lane_fwd;
  enc_int b l.scan_fixed; enc_int b l.scan_per_insn;
  enc_int b (List.length l.supported);
  enc_patterns b l.supported;
  enc_int b l.squash_penalty

let enc_cfg b (c : Config.t) =
  enc_str b c.name;
  enc_gpp b c.gpp;
  match c.lpsu with
  | None -> Buffer.add_char b 'N'
  | Some l -> Buffer.add_char b 'L'; enc_lpsu b l

(* A plan names a handful of [Config.t] values thousands of times, and
   a config is immutable, so its bytes are taken once per value: a
   short list of (config, bytes) pairs searched by physical identity.
   The list is replaced whole, by compare-and-set, so any domain may
   read it; a lost race only forgoes one entry.  An insert past
   [cfg_memo_limit] starts a new list, so configs built on the fly (a
   fuzzer's) cost an encoding each and pin at most that many. *)
let cfg_memo_limit = 32
let cfg_memo : (Config.t * string) list Atomic.t = Atomic.make []

let rec cfg_find (c : Config.t) = function
  | [] -> ""                                 (* no encoding is empty *)
  | (c', s) :: rest -> if c' == c then s else cfg_find c rest

let cfg_bytes (c : Config.t) =
  let memo = Atomic.get cfg_memo in
  match cfg_find c memo with
  | "" ->
    let b = Buffer.create 96 in
    enc_cfg b c;
    let s = Buffer.contents b in
    let keep = if List.length memo >= cfg_memo_limit then [] else memo in
    ignore (Atomic.compare_and_set cfg_memo memo ((c, s) :: keep));
    s
  | s -> s

let encode (t : t) =
  let cfg = cfg_bytes t.cfg in
  let b = Buffer.create (String.length t.kernel + String.length cfg + 48) in
  Buffer.add_string b "XRS1";                (* format magic + revision *)
  enc_str b t.kernel;
  Buffer.add_string b cfg;
  Buffer.add_char b
    (match t.mode with
     | Machine.Traditional -> 'T' | Specialized -> 'S' | Adaptive -> 'A');
  enc_bool b t.target.Compile.xloops;
  enc_bool b t.target.Compile.use_xi;
  enc_int_opt b t.fuel;
  (match t.fault_seed with
   | None -> Buffer.add_char b 'n'
   | Some (seed, events) ->
     Buffer.add_char b 's'; enc_int b seed; enc_int b events);
  enc_int b t.watchdog;
  enc_bool b t.degrade;
  Buffer.contents b

let digest t = Digest_hex.of_digest (Digest.string (encode t))

(* -- Decoding ------------------------------------------------------------ *)

(* The inverse of [encode], for specs arriving over a process boundary
   (the service wire protocol).  Strict: every field must parse and the
   input must be fully consumed, so a truncated or tampered frame is an
   [Error], never a half-filled spec. *)

let dpattern_of_tag c : int -> Insn.dpattern = function
  | 0 -> Uc | 1 -> Or | 2 -> Om | 3 -> Orm | 4 -> Ua
  | _ -> fail_at c "unknown dependence-pattern tag"

let dec_gpp c : Config.gpp =
  let kind =
    match dec_char c with
    | 'I' -> Config.Inorder
    | 'O' ->
      let width = dec_int c in
      let window = dec_int c in
      Config.Ooo { width; window }
    | _ -> fail_at c "unknown GPP kind tag"
  in
  let l1_size = dec_int c in
  let l1_ways = dec_int c in
  let l1_line = dec_int c in
  let load_use_latency = dec_int c in
  let miss_penalty = dec_int c in
  let branch_penalty = dec_int c in
  let mul_latency = dec_int c in
  let div_latency = dec_int c in
  let fpu_latency = dec_int c in
  { Config.kind; l1_size; l1_ways; l1_line; load_use_latency; miss_penalty;
    branch_penalty; mul_latency; div_latency; fpu_latency }

let dec_lpsu c : Config.lpsu =
  let lanes = dec_int c in
  let ib_entries = dec_int c in
  let idq_entries = dec_int c in
  let lsq_loads = dec_int c in
  let lsq_stores = dec_int c in
  let mem_ports = dec_int c in
  let llfu_ports = dec_int c in
  let threads_per_lane = dec_int c in
  let lane_issue_width = dec_int c in
  let inter_lane_fwd = dec_bool c in
  let scan_fixed = dec_int c in
  let scan_per_insn = dec_int c in
  let n_supported = dec_int c in
  if n_supported < 0 || n_supported > 8 then
    fail_at c "implausible supported-pattern count";
  let supported =
    List.init n_supported (fun _ -> dpattern_of_tag c (dec_int c)) in
  let squash_penalty = dec_int c in
  { Config.lanes; ib_entries; idq_entries; lsq_loads; lsq_stores; mem_ports;
    llfu_ports; threads_per_lane; lane_issue_width; inter_lane_fwd;
    scan_fixed; scan_per_insn; supported; squash_penalty }

let dec_cfg c : Config.t =
  let name = dec_str c in
  let gpp = dec_gpp c in
  let lpsu =
    match dec_char c with
    | 'N' -> None
    | 'L' -> Some (dec_lpsu c)
    | _ -> fail_at c "unknown LPSU tag"
  in
  { Config.name; gpp; lpsu }

let decode_at c =
  if not (String.starts_with ~prefix:"XRS1" c.s) then
    raise (Bad "bad magic (want XRS1)");
  c.pos <- 4;
  let kernel = dec_str c in
  let cfg = dec_cfg c in
  let mode =
    match dec_char c with
    | 'T' -> Machine.Traditional
    | 'S' -> Machine.Specialized
    | 'A' -> Machine.Adaptive
    | _ -> fail_at c "unknown mode tag"
  in
  let xloops = dec_bool c in
  let use_xi = dec_bool c in
  let target = { Compile.xloops; use_xi } in
  let fuel = dec_int_opt c in
  let fault_seed =
    match dec_char c with
    | 'n' -> None
    | 's' -> let seed = dec_int c in Some (seed, dec_int c)
    | _ -> fail_at c "unknown fault tag"
  in
  let watchdog = dec_int c in
  let degrade = dec_bool c in
  finish c { kernel; cfg; mode; target; fuel; fault_seed; watchdog; degrade }

let decode_error msg = Error ("Run_spec.decode: " ^ msg)

(** Inverse of {!encode}: strict parse of the canonical encoding. *)
let decode s : (t, string) result =
  match decode_at (cursor s) with
  | spec -> Ok spec
  | exception Bad msg -> decode_error msg

(* -- Content addressing -------------------------------------------------- *)

(* A [?kernel] override compiles its own kernel and never touches the
   program cache: it may be a synthetic kernel under a registry name. *)
let resolve ?kernel (t : t) : Kernel.t * Program_cache.entry =
  match kernel with
  | Some k -> (k, Program_cache.compile ~target:t.target k)
  | None ->
    let k = Registry.find t.kernel in
    (k, Program_cache.find ~target:t.target k)

(* The key over a spec's canonical bytes: MD5 of those bytes followed
   by the program listing's MD5. *)
let key_of_bytes ?kernel spec bytes =
  let _, p = resolve ?kernel spec in
  Digest_hex.of_digest (Digest.string (bytes ^ p.listing_digest))

(* A spec that crossed a process boundary arrives as its encoding; its
   digest and cache key are taken over those bytes instead of encoding
   the decoded spec again.  That is only sound for the bytes [encode]
   writes, so a non-canonical spelling is replaced by the encoding. *)
module Encoded = struct
  type nonrec t = { spec : t; bytes : string }

  let spec e = e.spec
  let bytes e = e.bytes

  let decode s =
    let c = cursor s in
    match decode_at c with
    | spec -> Ok { spec; bytes = (if c.canonical then s else encode spec) }
    | exception Bad msg -> decode_error msg

  let digest e = Digest_hex.of_digest (Digest.string e.bytes)

  let cache_key e = key_of_bytes e.spec e.bytes
end

(** The content address of a spec's result: digest over the canonical
    spec encoding {e and} the MD5 of the compiled program's listing.
    The listing digest comes from {!Program_cache}, so a registry
    kernel is compiled once per process, not once per key; the key
    still tracks the compiler and the kernel source, because the digest
    is taken over the listing the current build produces. *)
let cache_key ?kernel t = key_of_bytes ?kernel t (encode t)

(** Content address of a kernel's target-independent metadata (dynamic
    instruction counts, body statistics): digest over its name and the
    listings of its general and XLOOPS programs, both taken from
    {!Program_cache}. *)
let kernel_digest (k : Kernel.t) =
  let listing target = (Program_cache.find ~target k).listing in
  Digest_hex.of_digest
    (Digest.string
       (k.Kernel.name ^ "\x00" ^ listing Compile.general ^ "\x00"
        ^ listing Compile.xloops))

(* -- Execution ----------------------------------------------------------- *)

type run_data = {
  cfg : Config.t;
  mode : Machine.mode;
  cycles : int;
  insns : int;
  stats : Stats.t;
  energy : Energy.breakdown;
}

(* Defined in [Failure] so the taxonomy can classify it without a
   dependency cycle; aliased here for the historical spelling. *)
exception Check_failed = Failure.Check_failed

(** Low-level execution: the full {!Kernel.run} (memory, compiled
    program, check result) without raising on a failed self-check — the
    form the CLIs want.  [kernel] overrides the registry lookup, for
    synthetic kernels that are not registered; an override is compiled
    afresh, outside the program cache. *)
let run_result ?kernel ?trace (t : t)
  : (Kernel.run, Machine.failure) result =
  let k, e = resolve ?kernel t in
  let faults =
    Option.map (fun (seed, events) -> Fault.plan ~seed ~events ())
      t.fault_seed
  in
  Kernel.run_compiled ~cfg:t.cfg ~mode:t.mode ?faults ~watchdog:t.watchdog
    ~degrade:t.degrade ?fuel:t.fuel ?trace k e.compiled

(** Checked execution distilled to plain {!run_data}, with every
    failure mode folded into the orchestration layer's taxonomy: a
    simulation failure becomes [Failure.Sim], a failed self-check
    [Failure.Check].  Records the wall-clock of the simulation in
    [stats.wall_ns]. *)
let execute_result ?kernel (t : t)
  : (run_data, Failure.t) result =
  let t0 = Unix.gettimeofday () in
  match run_result ?kernel t with
  | Error f -> Error (Failure.Sim f)
  | Ok r ->
    match r.Kernel.check_result with
    | Error msg ->
      Error (Failure.Check { kernel = t.kernel; what = what t; msg })
    | Ok () ->
      let result = r.Kernel.result in
      result.Machine.stats.wall_ns <-
        int_of_float (1e9 *. (Unix.gettimeofday () -. t0));
      Ok { cfg = t.cfg; mode = t.mode;
           cycles = result.Machine.cycles;
           insns = result.Machine.insns;
           stats = result.Machine.stats;
           energy = Energy.of_stats t.cfg result.Machine.stats }

(** Raising form of {!execute_result}: {!Check_failed} on a failed
    self-check, [Failure.Sim_failed] on a simulation failure — both
    round-trip through [Failure.of_exn] without losing structure. *)
let execute ?kernel (t : t) : run_data =
  match execute_result ?kernel t with
  | Ok rd -> rd
  | Error (Failure.Check { kernel; what; msg }) ->
    raise (Check_failed { kernel; what; msg })
  | Error (Failure.Sim f) -> raise (Failure.Sim_failed f)
  | Error f ->
    failwith (Fmt.str "Run_spec.execute %s: %a" t.kernel Failure.pp f)
