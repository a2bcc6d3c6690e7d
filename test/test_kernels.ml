(* Application-kernel correctness across compilation targets and execution
   modes.  Every Table II / Table IV kernel self-checks its outputs
   against an OCaml reference after running on:
   - the general-purpose target, traditionally (the serial baseline);
   - the XLOOPS target, traditionally (xloop as branch, .xi as add);
   - the XLOOPS target, specialized on io+x (real LPSU execution);
   - the XLOOPS target without .xi, specialized (the VLSI-mode binary). *)

module Kernel = Xloops_kernels.Kernel
module Registry = Xloops_kernels.Registry
module Machine = Xloops_sim.Machine
module Config = Xloops_sim.Config
module Compile = Xloops_compiler.Compile

let check_run name (r : Kernel.run) =
  match r.check_result with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" name msg

let run_case ~target ~cfg ~mode (k : Kernel.t) () =
  let r = Kernel.run ~target ~cfg ~mode k in
  check_run k.name r;
  Alcotest.(check bool) "made progress" true (r.result.cycles > 0)

let cases (k : Kernel.t) =
  [ Alcotest.test_case (k.name ^ " general/trad") `Quick
      (run_case ~target:Compile.general ~cfg:Config.io
         ~mode:Machine.Traditional k);
    Alcotest.test_case (k.name ^ " xloops/trad") `Quick
      (run_case ~target:Compile.xloops ~cfg:Config.io
         ~mode:Machine.Traditional k);
    Alcotest.test_case (k.name ^ " xloops/spec") `Quick
      (run_case ~target:Compile.xloops ~cfg:Config.io_x
         ~mode:Machine.Specialized k);
    Alcotest.test_case (k.name ^ " noxi/spec") `Quick
      (run_case ~target:Compile.xloops_no_xi ~cfg:Config.io_x
         ~mode:Machine.Specialized k) ]

(* A few heavier cross-checks on the out-of-order hosts and adaptive
   mode, on kernels covering each dependence pattern. *)
let representative = [ "sgemm-uc"; "adpcm-or"; "ksack-sm-om"; "mm-orm";
                       "btree-ua"; "bfs-uc-db" ]

let deep_cases name =
  let k = Registry.find name in
  [ Alcotest.test_case (name ^ " ooo4+x spec") `Quick
      (run_case ~target:Compile.xloops ~cfg:Config.ooo4_x
         ~mode:Machine.Specialized k);
    Alcotest.test_case (name ^ " ooo2+x adaptive") `Quick
      (run_case ~target:Compile.xloops ~cfg:Config.ooo2_x
         ~mode:Machine.Adaptive k) ]

(* Pattern-selection audit: the dominant pattern the kernel advertises
   must actually appear among the xloops the compiler emitted. *)
let test_dominant_pattern (k : Kernel.t) () =
  let c = Compile.compile ~target:Compile.xloops k.kernel in
  let pats =
    Array.to_list c.program.insns
    |> List.filter_map (fun insn ->
        match insn with
        | Xloops_isa.Insn.Xloop (p, _, _, _) ->
          Some (Fmt.str "%a" Xloops_isa.Insn.pp_xpat_suffix p)
        | _ -> None)
  in
  if not (List.mem k.dominant pats) then
    Alcotest.failf "%s: dominant %s not among emitted patterns [%s]"
      k.name k.dominant (String.concat "; " pats)

(* Memory sizing: every registry kernel, on every target, runs in the
   smallest power-of-two memory of at least 4 KiB covering its layout,
   and the bounds check still traps just past it. *)
let test_mem_bytes () =
  List.iter
    (fun (k : Kernel.t) ->
       List.iter
         (fun (tname, target) ->
            let c = Compile.compile ~target k.kernel in
            let n = c.mem_bytes in
            let what fmt = Printf.sprintf ("%s/%s: " ^^ fmt) k.name tname in
            let top =
              List.fold_left
                (fun acc (r : Xloops_asm.Layout.region) ->
                   max acc (r.base + r.bytes))
                0 (Xloops_asm.Layout.regions c.layout)
            in
            Alcotest.(check bool) (what "%d is a power of two" n) true
              (n land (n - 1) = 0);
            Alcotest.(check bool) (what "%d covers the layout (%d)" n top)
              true (n >= top);
            Alcotest.(check bool) (what "%d at most 64 KiB" n) true
              (n <= 1 lsl 16);
            let mem = Kernel.Memory.create ~size:n () in
            ignore (Kernel.Memory.load mem Xloops_isa.Insn.W (n - 4));
            Alcotest.(check bool) (what "load at %d traps" n) true
              (match Kernel.Memory.load mem Xloops_isa.Insn.W n with
               | _ -> false
               | exception Kernel.Memory.Bad_access _ -> true))
         [ ("xloops", Compile.xloops); ("general", Compile.general);
           ("xloops_no_xi", Compile.xloops_no_xi) ])
    Registry.all

(* Registry invariants: unique names, lookup works, expected counts. *)
let test_registry () =
  let names = Registry.names in
  Alcotest.(check int) "25 Table II kernels" 25
    (List.length Registry.table2);
  Alcotest.(check int) "8 Table IV variants" 8
    (List.length Registry.table4);
  Alcotest.(check bool) "extensions present" true
    (List.length Registry.extensions >= 1);
  Alcotest.(check int) "unique names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n -> ignore (Registry.find n))
    names;
  Alcotest.(check bool) "unknown rejected" true
    (try ignore (Registry.find "nope"); false
     with Invalid_argument _ -> true)

let () =
  let correctness =
    List.concat_map cases Registry.all in
  let deep = List.concat_map deep_cases representative in
  let patterns =
    List.map
      (fun (k : Kernel.t) ->
         Alcotest.test_case k.name `Quick (test_dominant_pattern k))
      Registry.all
  in
  Alcotest.run "kernels"
    [ ("registry",
       [ Alcotest.test_case "invariants" `Quick test_registry;
         Alcotest.test_case "memory size" `Quick test_mem_bytes ]);
      ("correctness", correctness);
      ("deep", deep);
      ("patterns", patterns) ]
