(* The paper plan every workload runs: the specs behind Table II (all 25
   kernels), Figure 9, Table IV, Figure 10 and the find-de extension,
   deduplicated by spec digest, in an order shuffled by the workload
   seed.  Also the table assembly that turns a warmed engine into the
   text `bench/main.exe` prints, and the seed-independent digest of a
   set of results. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine
module Compile = Xloops.Compiler.Compile
module Digest_hex = Xloops.Digest_hex

(* The extension rows of `bench/main.exe`. *)
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

let dedupe plan =
  let seen = Hashtbl.create 512 in
  List.filter
    (fun s ->
       let d = Run_spec.digest s in
       if Hashtbl.mem seen d then false else (Hashtbl.add seen d (); true))
    plan

let shuffle ~seed xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Build, dedupe and order the plan: the first part of a sweep's set-up. *)
let build ~seed =
  shuffle ~seed
    (dedupe
       (List.concat
          [ List.concat_map E.specs_for Registry.table2;
            E.fig9_specs (); E.table4_specs (); E.fig10_specs ();
            List.map snd extension_runs ]))

(* Everything `bench/main.exe` prints with no section flags, in the same
   order and format, so assembly costs what it costs the product (five
   [E.evaluate] per kernel, one per Table II derived section). *)
let assemble (engine : E.engine) =
  let b = Buffer.create 32_768 in
  let ppf = Format.formatter_of_buffer b in
  let section title = Fmt.pf ppf "@.=== %s ===@.@." title in
  let evaluate k = E.evaluate ~engine k in
  let kernels = Registry.table2 in
  section "Table II: application kernels and cycle-level results";
  Fmt.pf ppf "%a" E.pp_table2_header ();
  List.iter
    (fun k -> Fmt.pf ppf "%a" E.pp_table2_row (E.table2_row (evaluate k)))
    kernels;
  section "Figure 5: speedup summary (normalized to serial on io)";
  Fmt.pf ppf "%-14s %8s %8s %8s %8s@." "kernel" "io" "ooo2" "ooo4"
    "ooo2+x:S";
  List.iter
    (fun k ->
       let ev = evaluate k in
       let io = (E.host ev "io").base.cycles in
       let rel (r : E.run_data) = float_of_int io /. float_of_int r.cycles in
       Fmt.pf ppf "%-14s %8.2f %8.2f %8.2f %8.2f@." k.Kernel.name 1.0
         (rel (E.host ev "ooo/2").base)
         (rel (E.host ev "ooo/4").base)
         (rel (E.host ev "ooo/2").spec))
    kernels;
  section "Figure 6: LPSU lane-cycle breakdown (specialized on io+x)";
  Fmt.pf ppf "%a" E.pp_fig6
    (List.map (fun k -> E.fig6_row (evaluate k)) kernels);
  section "Figure 7: specialized vs adaptive on ooo/4+x";
  Fmt.pf ppf "%-14s %8s %8s@." "kernel" "S" "A";
  List.iter
    (fun k ->
       let ev = evaluate k in
       let h = E.host ev "ooo/4" in
       Fmt.pf ppf "%-14s %8.2f %8.2f@." k.Kernel.name (E.speedup h h.spec)
         (E.speedup h h.adapt))
    kernels;
  section "Figure 8: energy efficiency vs performance (S and A per host)";
  Fmt.pf ppf "%a" E.pp_fig8
    (List.concat_map (fun k -> E.fig8_points (evaluate k)) kernels);
  section "Figure 9: LPSU design-space exploration (vs serial on ooo/4)";
  Fmt.pf ppf "%a" E.pp_fig9 (E.fig9 ~engine ());
  section "Table IV: case studies (hand-scheduled or / transformed uc)";
  Fmt.pf ppf "%a" E.pp_table4 (E.table4 ~engine ());
  section "Table V: VLSI area and cycle time";
  Fmt.pf ppf "%a" Xloops.Vlsi.Area.pp_table_v (Xloops.Vlsi.Area.table_v ());
  section "Figure 10: VLSI-mode energy efficiency vs performance \
           (uc kernels, no .xi, uc-only LPSU on io)";
  Fmt.pf ppf "%a" E.pp_fig10 (E.fig10 ~engine ());
  section "Extension: data-dependent exit (xloop.uc.de, paper future work)";
  Fmt.pf ppf "%-28s %10s %12s@." "run" "cycles" "squashed";
  List.iter
    (fun (label, spec) ->
       let r = engine.E.run spec in
       Fmt.pf ppf "%-28s %10d %12d@." label r.E.cycles
         r.E.stats.squashed_insns)
    extension_runs;
  Fmt.pf ppf "@.(iterations past the exit run control-speculatively on the \
              lanes@.and are discarded — the squashed-instruction column)@.";
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* The simulated content of a result: cycles, instructions and every
   [Stats] counter except the three that describe how the result was
   produced (host wall time, cache hit, cache miss). *)
let simulated (rd : E.run_data) =
  ( rd.cycles, rd.insns,
    { rd.stats with wall_ns = 0; cache_hits = 0; cache_misses = 0 } )

(* Digest of a result set, independent of the order results arrived in:
   entries are sorted by spec digest first. *)
let digest (results : (Run_spec.t * E.run_data) list) =
  List.map
    (fun (spec, rd) ->
       Digest_hex.to_hex (Run_spec.digest spec)
       ^ Marshal.to_string (simulated rd) [])
    results
  |> List.sort_uniq compare
  |> String.concat ""
  |> Digest.string
  |> Digest.to_hex
