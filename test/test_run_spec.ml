(* Program-cache tests: every registry kernel is compiled once per target
   per process and shared by [Run_spec.cache_key], [Run_spec.kernel_digest]
   and execution.  The keys must still be exactly what a from-scratch
   compile gives, a [?kernel] override must never see or touch a shared
   program, racing domains must agree, and no run may mutate the program
   it shares. *)

module E = Xloops.Experiments
module Run_spec = Xloops.Run_spec
module Program_cache = Xloops.Program_cache
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel
module Compile = Xloops.Compiler.Compile
module Program = Xloops.Asm.Program
module Config = Xloops.Sim.Config
module Machine = Xloops.Sim.Machine
module Stats = Xloops.Sim.Stats
module Digest_hex = Xloops.Digest_hex

let targets =
  [ ("general", Compile.general); ("xloops", Compile.xloops);
    ("xloops_no_xi", Compile.xloops_no_xi) ]

let key = Alcotest.testable Digest_hex.pp ( = )

let spec_for ~target (k : Kernel.t) =
  Run_spec.make ~target ~cfg:Config.io_x ~mode:Machine.Specialized k.name

(* The keys recomputed from scratch: a fresh compile, its listing, MD5. *)
let fresh_listing ~target (k : Kernel.t) =
  Program.to_string (Compile.compile ~target k.kernel).program

let fresh_cache_key (spec : Run_spec.t) =
  let k = Registry.find spec.kernel in
  Digest_hex.of_digest
    (Digest.string
       (Run_spec.encode spec
        ^ Digest.string (fresh_listing ~target:spec.target k)))

let fresh_kernel_digest (k : Kernel.t) =
  Digest_hex.of_digest
    (Digest.string
       (k.name ^ "\x00" ^ fresh_listing ~target:Compile.general k ^ "\x00"
        ^ fresh_listing ~target:Compile.xloops k))

let plan =
  List.concat_map E.specs_for Registry.table2
  @ List.map (spec_for ~target:Compile.xloops_no_xi) Registry.all

(* First in the suite, so both domains race on a cold cache. *)
let test_domains_agree () =
  let keys () = List.map Run_spec.cache_key plan in
  let d1 = Domain.spawn keys and d2 = Domain.spawn keys in
  let k1 = Domain.join d1 and k2 = Domain.join d2 in
  Alcotest.(check (list key)) "two domains, same keys" k1 k2;
  Alcotest.(check (list key)) "and the from-scratch keys"
    (List.map fresh_cache_key plan) k1

let test_keys_match_fresh_compile () =
  List.iter
    (fun (k : Kernel.t) ->
       List.iter
         (fun (tname, target) ->
            let spec = spec_for ~target k in
            Alcotest.check key
              (Printf.sprintf "cache_key %s/%s" k.name tname)
              (fresh_cache_key spec) (Run_spec.cache_key spec))
         targets;
       Alcotest.check key ("kernel_digest " ^ k.name)
         (fresh_kernel_digest k) (Run_spec.kernel_digest k))
    Registry.all

let test_shared_program () =
  let k = Registry.find "war-uc" in
  List.iter
    (fun (tname, target) ->
       let a = Program_cache.find ~target k in
       let b = Program_cache.find ~target k in
       Alcotest.(check bool) ("same entry " ^ tname) true (a == b))
    targets;
  (* All twelve Table II runs of one kernel read the cached programs. *)
  List.iter
    (fun (spec : Run_spec.t) ->
       match Run_spec.run_result spec with
       | Ok r ->
         Alcotest.(check bool) ("run reads the cached program: " ^
                                Run_spec.what spec) true
           (r.Kernel.compiled.program
            == (Program_cache.find ~target:spec.target k).compiled.program)
       | Error f -> Alcotest.failf "%a" Machine.pp_failure f)
    (E.specs_for k)

(* A synthetic kernel under a registry name: sgemm's body, war-uc's
   name.  It keys and runs on its own program, and leaves war-uc's
   cache entry alone. *)
let test_override_bypasses_cache () =
  let war = Registry.find "war-uc" in
  let impostor =
    { (Registry.find "sgemm-uc") with Kernel.name = war.name } in
  let spec = spec_for ~target:Compile.xloops war in
  let cached = Program_cache.find ~target:Compile.xloops war in
  let registry_key = Run_spec.cache_key spec in
  let override_key = Run_spec.cache_key ~kernel:impostor spec in
  Alcotest.(check bool) "override keys differ" false
    (registry_key = override_key);
  Alcotest.check key "override key is its own program's"
    (Digest_hex.of_digest
       (Digest.string
          (Run_spec.encode spec
           ^ Digest.string (fresh_listing ~target:Compile.xloops impostor))))
    override_key;
  (match Run_spec.run_result ~kernel:impostor spec with
   | Error f -> Alcotest.failf "%a" Machine.pp_failure f
   | Ok r ->
     Alcotest.(check bool) "override passes its own check" true
       (r.Kernel.check_result = Ok ());
     Alcotest.(check bool) "override runs a fresh program" false
       (r.Kernel.compiled.program == cached.compiled.program);
     Alcotest.(check string) "override runs its own body"
       (fresh_listing ~target:Compile.xloops impostor)
       (Program.to_string r.Kernel.compiled.program));
  Alcotest.(check bool) "impostor is never cached" false
    (Program_cache.find ~target:Compile.xloops impostor
     == Program_cache.find ~target:Compile.xloops impostor);
  Alcotest.(check bool) "registry entry untouched" true
    (Program_cache.find ~target:Compile.xloops war == cached);
  Alcotest.check key "registry key unchanged" registry_key
    (Run_spec.cache_key spec)

let test_faulted_run_leaves_program () =
  let k = Registry.find "war-om" in
  let spec =
    Run_spec.make ~cfg:Config.io_x ~mode:Machine.Specialized
      ~fault_seed:(42, 8) k.name
  in
  let e = Program_cache.find ~target:spec.target k in
  let rd = Run_spec.execute spec in
  Alcotest.(check bool) "faults were injected" true
    (rd.stats.Stats.faults_injected > 0);
  Alcotest.(check string) "listing byte-identical to the compile's"
    e.listing (Program.to_string e.compiled.program)

let () =
  Alcotest.run "run_spec"
    [ ("program-cache",
       [ Alcotest.test_case "domains agree" `Quick test_domains_agree;
         Alcotest.test_case "keys match a fresh compile" `Quick
           test_keys_match_fresh_compile;
         Alcotest.test_case "shared program" `Quick test_shared_program;
         Alcotest.test_case "override bypasses cache" `Quick
           test_override_bypasses_cache;
         Alcotest.test_case "faulted run leaves program" `Quick
           test_faulted_run_leaves_program ]) ]
