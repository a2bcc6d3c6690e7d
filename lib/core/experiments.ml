(** The evaluation engine: everything needed to regenerate the paper's
    tables and figures from the simulator.

    An {!eval} bundles, for one application kernel, all twelve runs of
    Section IV's methodology: the serial (general-purpose ISA) baseline on
    each of io / ooo2 / ooo4, and the XLOOPS binary in traditional /
    specialized / adaptive mode on the corresponding +x machine.  Every
    run self-checks its outputs; a failed check raises, so the tables can
    never silently report numbers from a broken execution. *)

module Kernel = Xloops_kernels.Kernel
module Registry = Xloops_kernels.Registry
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Stats = Xloops_sim.Stats
module Compile = Xloops_compiler.Compile
module Energy = Xloops_energy.Model

type run_data = Run_spec.run_data = {
  cfg : Config.t;
  mode : Machine.mode;
  cycles : int;
  insns : int;
  stats : Stats.t;
  energy : Energy.breakdown;
}

exception Check_failed = Run_spec.Check_failed

(** One checked run, described as a {!Run_spec} and executed in place —
    the serial convenience the ablations and tests use. *)
let run_checked ?(target = Compile.xloops) ~cfg ~mode (k : Kernel.t)
  : run_data =
  Run_spec.execute ~kernel:k (Run_spec.make ~target ~cfg ~mode k.name)

(* The three host pairs of Table II: baseline GPP and its +x machine. *)
let hosts = [ (Config.io, Config.io_x);
              (Config.ooo2, Config.ooo2_x);
              (Config.ooo4, Config.ooo4_x) ]

type host_eval = {
  base : run_data;          (** serial baseline on the bare GPP *)
  trad : run_data;          (** XLOOPS binary, traditional *)
  spec : run_data;          (** XLOOPS binary, specialized *)
  adapt : run_data;         (** XLOOPS binary, adaptive *)
}

type eval = {
  kernel : Kernel.t;
  gpi_dyn : int;            (** serial dynamic instructions, general ISA *)
  xli_dyn : int;            (** serial dynamic instructions, XLOOPS ISA *)
  body_min : int;           (** smallest static xloop body *)
  body_max : int;
  per_host : (string * host_eval) list;   (** keyed by GPP name *)
}

(* Registry kernels come compiled from the shared program cache. *)
let compiled ~target k = (Program_cache.find ~target k).compiled

let body_stats (k : Kernel.t) =
  match Compile.xloop_bodies (compiled ~target:Compile.xloops k).program with
  | [] -> (0, 0)
  | bodies ->
    let lens = List.map (fun (_, _, l) -> l) bodies in
    (List.fold_left min max_int lens, List.fold_left max 0 lens)

(* ------------------------------------------------------------------ *)
(* The run engine: how specs get executed and metadata gets computed   *)
(* ------------------------------------------------------------------ *)

type kernel_meta = {
  gpi_dyn : int;
  xli_dyn : int;
  body_min : int;
  body_max : int;
}

(** How the producers below obtain results: [run] executes one
    {!Run_spec} (directly, memoized, cached — the producer does not
    care), [meta] computes a kernel's dynamic-instruction counts and
    body statistics.  Producers only ever consume what the engine hands
    back, so warming the engine in parallel ({!Pool.map} over a spec
    list) and then assembling tables serially yields byte-identical
    output to a fully serial sweep. *)
type engine = {
  run : Run_spec.t -> run_data;
  meta : Kernel.t -> kernel_meta;
}

let compute_meta (k : Kernel.t) : kernel_meta =
  let dyn target =
    match Kernel.dynamic_insns k (compiled ~target k) with
    | Ok n -> n
    | Error msg -> failwith ("Experiments.evaluate: " ^ msg)
  in
  let body_min, body_max = body_stats k in
  { gpi_dyn = dyn Compile.general; xli_dyn = dyn Compile.xloops;
    body_min; body_max }

let direct_engine =
  { run = (fun spec -> Run_spec.execute spec); meta = compute_meta }

(** An engine that memoizes every result in memory (thread-safe, so it
    can be warmed by a {!Pool}) and, when [cache] is given, reads and
    writes the on-disk result cache.  With a cache, runs served from
    disk get [stats.cache_hits = 1] and freshly simulated ones
    [stats.cache_misses = 1]; without one, neither flag is set, as in a
    cacheless daemon's results. *)
let caching_engine ?cache () : engine =
  let memo_runs : (Digest_hex.t, run_data) Hashtbl.t = Hashtbl.create 256 in
  let memo_meta : (Digest_hex.t, kernel_meta) Hashtbl.t =
    Hashtbl.create 64 in
  let mu = Mutex.create () in
  let locked f =
    Mutex.lock mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
  in
  (* First writer wins: if two domains raced on the same key, every
     later reader sees one canonical record. *)
  let publish memo key v =
    locked (fun () ->
        match Hashtbl.find_opt memo key with
        | Some v' -> v'
        | None -> Hashtbl.replace memo key v; v)
  in
  let run spec =
    let key = Run_spec.cache_key spec in
    match locked (fun () -> Hashtbl.find_opt memo_runs key) with
    | Some rd -> rd
    | None ->
      let rd =
        match cache with
        | None -> Run_spec.execute spec
        | Some c ->
          match Run_cache.find_run c ~key with
          | Some rd -> rd.stats.Stats.cache_hits <- 1; rd
          | None ->
            let rd = Run_spec.execute spec in
            Run_cache.store_run c ~key rd;
            rd.stats.Stats.cache_misses <- 1;
            rd
      in
      publish memo_runs key rd
  in
  let meta k =
    let key = Run_spec.kernel_digest k in
    match locked (fun () -> Hashtbl.find_opt memo_meta key) with
    | Some m -> m
    | None ->
      let m =
        match Option.bind cache (fun c -> Run_cache.find_meta c ~key) with
        | Some [| g; x; bmin; bmax |] ->
          { gpi_dyn = g; xli_dyn = x; body_min = bmin; body_max = bmax }
        | Some _ | None ->
          let m = compute_meta k in
          Option.iter
            (fun c ->
               Run_cache.store_meta c ~key
                 [| m.gpi_dyn; m.xli_dyn; m.body_min; m.body_max |])
            cache;
          m
      in
      publish memo_meta key m
  in
  { run; meta }

(* ------------------------------------------------------------------ *)
(* Fault-tolerant sweep orchestration                                  *)
(* ------------------------------------------------------------------ *)

(** One sweep item's fate: [None] when the journal said it was already
    complete (resume), otherwise the structured per-item result. *)
type sweep_outcome = {
  so_spec : Run_spec.t;
  so_digest : Digest_hex.t;         (** {!Run_spec.digest} — journal key *)
  so_attempts : int;
  so_result : (run_data, Failure.t) result option;
}

type sweep_report = {
  sr_outcomes : sweep_outcome list; (** in plan order *)
  sr_executed : int;                (** items actually run (ok or failed) *)
  sr_skipped : int;                 (** items served by the journal *)
  sr_failures : (Run_spec.t * Failure.t) list;
}

(** Execute a spec plan under the full fault-tolerance stack: per-item
    crash isolation, deadlines and seeded retry ({!Pool.run_each} with
    [policy]), journaled checkpoint/resume (specs whose digest [journal]
    already holds are skipped; each completed spec is durably recorded
    the moment it finishes, so a killed sweep resumes from exactly where
    it died), and optional infrastructure chaos ([chaos] stalls/crashes
    workers and may abort the sweep — {!Failure.Abort} propagates to the
    caller with the journal intact).

    The engine's memo/cache still holds every successful result, so the
    assembly passes that follow a sweep are unchanged: skipped items are
    served from the on-disk cache, executed ones from the memo — stdout
    stays byte-identical to an uninterrupted serial sweep. *)
let sweep ?jobs ?(policy = Pool.default_policy) ?journal ?chaos
    (engine : engine) (plan : Run_spec.t list) : sweep_report =
  let items =
    List.map (fun spec -> (spec, Run_spec.digest spec)) plan in
  let todo, skipped =
    match journal with
    | None -> (items, [])
    | Some j ->
      List.partition (fun (_, dg) -> not (Journal.member j dg)) items
  in
  let worker (spec, dg) =
    Option.iter Chaos.before_item chaos;
    let rd = engine.run spec in
    (* Journal from inside the worker, not after the join: completion
       must be durable the moment it happens or a killed sweep forfeits
       in-flight progress. *)
    Option.iter (fun j -> Journal.record j dg) journal;
    rd
  in
  let outcomes =
    Pool.run_each ?jobs ~policy
      ~salt:(fun (_, dg) -> Digest_hex.to_hex dg) worker todo in
  let by_digest = Hashtbl.create (List.length todo * 2 + 1) in
  List.iter2
    (fun (_, dg) (o : run_data Pool.outcome) ->
       Hashtbl.replace by_digest dg o)
    todo outcomes;
  let sr_outcomes =
    List.map
      (fun (spec, dg) ->
         match Hashtbl.find_opt by_digest dg with
         | None ->
           { so_spec = spec; so_digest = dg; so_attempts = 0;
             so_result = None }
         | Some o ->
           { so_spec = spec; so_digest = dg; so_attempts = o.Pool.attempts;
             so_result = Some o.Pool.result })
      items
  in
  let sr_failures =
    List.filter_map
      (fun so ->
         match so.so_result with
         | Some (Error f) -> Some (so.so_spec, f)
         | _ -> None)
      sr_outcomes
  in
  { sr_outcomes;
    sr_executed = List.length todo;
    sr_skipped = List.length skipped;
    sr_failures }

let pp_sweep_failure ppf ((spec : Run_spec.t), f) =
  Fmt.pf ppf "%a: %a" Run_spec.pp spec Failure.pp_tagged f

(* One host's (base, trad, spec, adapt) specs for kernel [name]. *)
let host_specs name (gpp, gpp_x) =
  ( Run_spec.make ~target:Compile.general ~cfg:gpp
      ~mode:Machine.Traditional name,
    Run_spec.make ~cfg:gpp_x ~mode:Machine.Traditional name,
    Run_spec.make ~cfg:gpp_x ~mode:Machine.Specialized name,
    Run_spec.make ~cfg:gpp_x ~mode:Machine.Adaptive name )

(** The twelve specs of one kernel's Table II methodology, in canonical
    order: (base, trad, spec, adapt) per host. *)
let specs_for (k : Kernel.t) : Run_spec.t list =
  List.concat_map
    (fun host ->
       let b, t, s, a = host_specs k.name host in
       [ b; t; s; a ])
    hosts

(** Run the full Table II methodology for one kernel.  Without [engine]
    every spec executes directly against the passed kernel value (which
    need not be registered); with one, specs resolve through the kernel
    registry and may be served memoized or from the cache. *)
let evaluate ?engine (k : Kernel.t) : eval =
  let run, meta_of =
    match engine with
    | Some e -> (e.run, e.meta)
    | None -> ((fun spec -> Run_spec.execute ~kernel:k spec), compute_meta)
  in
  let m = meta_of k in
  let per_host =
    List.map
      (fun ((gpp, _) as host) ->
         let b, t, s, a = host_specs k.name host in
         (gpp.Config.name,
          { base = run b; trad = run t; spec = run s; adapt = run a }))
      hosts
  in
  { kernel = k; gpi_dyn = m.gpi_dyn; xli_dyn = m.xli_dyn;
    body_min = m.body_min; body_max = m.body_max; per_host }

let host ev name =
  match List.assoc_opt name ev.per_host with
  | Some h -> h
  | None -> invalid_arg ("Experiments.host: " ^ name)

(** Speedup of a run relative to the serial baseline on the same GPP. *)
let speedup (h : host_eval) (r : run_data) =
  float_of_int h.base.cycles /. float_of_int r.cycles

(** Energy efficiency relative to the serial baseline on the same GPP
    (>1 means less energy than the baseline). *)
let energy_eff (h : host_eval) (r : run_data) =
  Energy.efficiency ~baseline:h.base.energy r.energy

(** Relative dynamic power (energy/time) vs the baseline. *)
let rel_power (h : host_eval) (r : run_data) =
  Energy.power ~cycles:r.cycles r.energy
  /. Energy.power ~cycles:h.base.cycles h.base.energy

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

type table2_row = {
  t2_name : string;
  t2_suite : string;
  t2_type : string;
  t2_body : int * int;
  t2_gpi : int;
  t2_xg : float;               (** XLI/GPI dynamic-instruction ratio *)
  (* (T, S, A) per host, in io / ooo2 / ooo4 order *)
  t2_speedups : (string * (float * float * float)) list;
}

let table2_row (ev : eval) : table2_row =
  { t2_name = ev.kernel.name;
    t2_suite = ev.kernel.suite;
    t2_type = ev.kernel.dominant;
    t2_body = (ev.body_min, ev.body_max);
    t2_gpi = ev.gpi_dyn;
    t2_xg = float_of_int ev.xli_dyn /. float_of_int ev.gpi_dyn;
    t2_speedups =
      List.map
        (fun (name, h) ->
           (name, (speedup h h.trad, speedup h h.spec, speedup h h.adapt)))
        ev.per_host }

let pp_table2_header ppf () =
  Fmt.pf ppf
    "%-14s %-3s %-6s %-9s %9s %5s │ %-17s │ %-17s │ %-17s@."
    "name" "st" "type" "body" "GPI-dyn" "X/G"
    "io: T    S    A" "ooo2: T   S    A" "ooo4: T   S    A"

let pp_table2_row ppf (r : table2_row) =
  let tri (t, s, a) = Fmt.str "%4.2f %4.2f %4.2f" t s a in
  let get n = tri (List.assoc n r.t2_speedups) in
  Fmt.pf ppf "%-14s %-3s %-6s %4d-%-4d %9d %5.2f │ %s │ %s │ %s@."
    r.t2_name r.t2_suite r.t2_type (fst r.t2_body) (snd r.t2_body)
    r.t2_gpi r.t2_xg (get "io") (get "ooo/2") (get "ooo/4")

(* ------------------------------------------------------------------ *)
(* Figure 6: LPSU lane-cycle breakdown for specialized execution       *)
(* ------------------------------------------------------------------ *)

let fig6_row (ev : eval) =
  let h = host ev "io" in
  (ev.kernel.name, Stats.lane_breakdown h.spec.stats)

let pp_fig6 ppf rows =
  Fmt.pf ppf "%-14s" "kernel";
  (match rows with
   | (_, cats) :: _ ->
     List.iter (fun (c, _) -> Fmt.pf ppf " %6s" c) cats
   | [] -> ());
  Fmt.pf ppf "@.";
  List.iter
    (fun (name, cats) ->
       Fmt.pf ppf "%-14s" name;
       List.iter (fun (_, f) -> Fmt.pf ppf " %6.3f" f) cats;
       Fmt.pf ppf "@.")
    rows

(* ------------------------------------------------------------------ *)
(* Figure 8: energy efficiency vs performance                          *)
(* ------------------------------------------------------------------ *)

type fig8_point = {
  f8_kernel : string;
  f8_host : string;
  f8_mode : string;
  f8_speedup : float;
  f8_energy_eff : float;
  f8_rel_power : float;
}

let fig8_points (ev : eval) : fig8_point list =
  List.concat_map
    (fun (name, h) ->
       List.map
         (fun (mode, r) ->
            { f8_kernel = ev.kernel.name; f8_host = name; f8_mode = mode;
              f8_speedup = speedup h r;
              f8_energy_eff = energy_eff h r;
              f8_rel_power = rel_power h r })
         [ ("S", h.spec); ("A", h.adapt) ])
    ev.per_host

let pp_fig8 ppf points =
  Fmt.pf ppf "%-14s %-6s %-2s %8s %8s %8s@." "kernel" "host" "m"
    "speedup" "en-eff" "power";
  List.iter
    (fun p ->
       Fmt.pf ppf "%-14s %-6s %-2s %8.2f %8.2f %8.2f@."
         p.f8_kernel p.f8_host p.f8_mode p.f8_speedup p.f8_energy_eff
         p.f8_rel_power)
    points

(* ------------------------------------------------------------------ *)
(* Figure 9: LPSU design-space exploration                             *)
(* ------------------------------------------------------------------ *)

let fig9_kernels =
  [ "sgemm-uc"; "viterbi-uc"; "kmeans-or"; "covar-or"; "btree-ua" ]

let fig9_base name =
  Run_spec.make ~target:Compile.general ~cfg:Config.ooo4
    ~mode:Machine.Traditional name

let fig9_specs () =
  List.concat_map
    (fun name ->
       fig9_base name
       :: List.map
         (fun cfg -> Run_spec.make ~cfg ~mode:Machine.Specialized name)
         Config.design_space)
    fig9_kernels

(** Speedups of specialized execution on each design-space LPSU over the
    serial baseline on the ooo/4 host. *)
let fig9 ?(engine = direct_engine) () =
  List.map
    (fun name ->
       let base = engine.run (fig9_base name) in
       let points =
         List.map
           (fun cfg ->
              let r =
                engine.run (Run_spec.make ~cfg ~mode:Machine.Specialized
                              name) in
              (cfg.Config.name,
               float_of_int base.cycles /. float_of_int r.cycles))
           Config.design_space
       in
       (name, points))
    fig9_kernels

let pp_fig9 ppf rows =
  (match rows with
   | (_, points) :: _ ->
     Fmt.pf ppf "%-14s" "kernel";
     List.iter (fun (n, _) -> Fmt.pf ppf " %10s" n) points;
     Fmt.pf ppf "@."
   | [] -> ());
  List.iter
    (fun (name, points) ->
       Fmt.pf ppf "%-14s" name;
       List.iter (fun (_, s) -> Fmt.pf ppf " %10.2f" s) points;
       Fmt.pf ppf "@.")
    rows

(* ------------------------------------------------------------------ *)
(* Table IV: case studies                                              *)
(* ------------------------------------------------------------------ *)

let table4_pair (k : Kernel.t) (gpp, gpp_x) =
  ( Run_spec.make ~target:Compile.general ~cfg:gpp
      ~mode:Machine.Traditional k.name,
    Run_spec.make ~cfg:gpp_x ~mode:Machine.Specialized k.name )

let table4_specs () =
  List.concat_map
    (fun (k : Kernel.t) ->
       List.concat_map
         (fun host -> let b, s = table4_pair k host in [ b; s ])
         hosts)
    Registry.table4

(** Specialized-execution speedups of the Table IV variants on each +x
    host, relative to the serial baseline of the {e original} algorithm
    (the paper normalizes to the general-purpose kernels). *)
let table4 ?(engine = direct_engine) () =
  List.map
    (fun (k : Kernel.t) ->
       let speedups =
         List.map
           (fun ((_, gpp_x) as host) ->
              let b, s = table4_pair k host in
              let base = engine.run b and spec = engine.run s in
              (gpp_x.Config.name,
               float_of_int base.cycles /. float_of_int spec.cycles))
           hosts
       in
       (k.name, k.dominant, speedups))
    Registry.table4

let pp_table4 ppf rows =
  Fmt.pf ppf "%-16s %-6s %8s %8s %8s@." "name" "type" "io+x" "ooo2+x"
    "ooo4+x";
  List.iter
    (fun (name, ty, speedups) ->
       Fmt.pf ppf "%-16s %-6s" name ty;
       List.iter (fun (_, s) -> Fmt.pf ppf " %8.2f" s) speedups;
       Fmt.pf ppf "@.")
    rows

(* ------------------------------------------------------------------ *)
(* Figure 10: VLSI-mode evaluation (uc kernels, no .xi, uc-only LPSU)  *)
(* ------------------------------------------------------------------ *)

let fig10_kernels =
  [ "rgb2cmyk-uc"; "sgemm-uc"; "ssearch-uc"; "symm-uc"; "viterbi-uc";
    "war-uc" ]

let fig10_rtl_cfg =
  Config.with_lpsu Config.io "+rtl"
    ~lpsu:(Xloops_vlsi.Area.rtl_lpsu ~ib_entries:128 ~lanes:4)

let fig10_pair name =
  ( Run_spec.make ~target:Compile.xloops_no_xi ~cfg:Config.io
      ~mode:Machine.Traditional name,
    Run_spec.make ~target:Compile.xloops_no_xi ~cfg:fig10_rtl_cfg
      ~mode:Machine.Specialized name )

let fig10_specs () =
  List.concat_map (fun name -> let b, s = fig10_pair name in [ b; s ])
    fig10_kernels

let fig10 ?(engine = direct_engine) () =
  List.map
    (fun name ->
       let b, s = fig10_pair name in
       let base = engine.run b and spec = engine.run s in
       let eff =
         Energy.efficiency ~baseline:base.energy spec.energy in
       (name,
        float_of_int base.cycles /. float_of_int spec.cycles,
        eff))
    fig10_kernels

let pp_fig10 ppf rows =
  Fmt.pf ppf "%-14s %8s %8s@." "kernel" "speedup" "en-eff";
  List.iter
    (fun (name, s, e) -> Fmt.pf ppf "%-14s %8.2f %8.2f@." name s e)
    rows

(* -- The find-de extension and the quick plan ------------------------- *)

let extension_runs =
  [ ("serial (general, io)",
     Run_spec.make ~target:Compile.general ~cfg:Config.io
       ~mode:Machine.Traditional "find-de");
    ("traditional (io)",
     Run_spec.make ~cfg:Config.io ~mode:Machine.Traditional "find-de");
    ("specialized (io+x)",
     Run_spec.make ~cfg:Config.io_x ~mode:Machine.Specialized "find-de");
    ("specialized (ooo/4+x)",
     Run_spec.make ~cfg:Config.ooo4_x ~mode:Machine.Specialized "find-de") ]

let quick_kernels =
  [ "sgemm-uc"; "war-uc"; "kmeans-or"; "adpcm-or"; "ksack-sm-om";
    "bfs-uc-db" ]

let dedupe_specs specs =
  let seen = Hashtbl.create 512 in
  List.filter
    (fun s ->
       let d = Run_spec.digest s in
       if Hashtbl.mem seen d then false else (Hashtbl.add seen d (); true))
    specs

let quick_plan () =
  dedupe_specs
    (List.concat
       [ List.concat_map (fun n -> specs_for (Registry.find n)) quick_kernels;
         fig9_specs (); table4_specs (); fig10_specs ();
         List.map snd extension_runs ])
