(* Program-cache tests: every registry kernel is compiled once per target
   per process and shared by [Run_spec.cache_key], [Run_spec.kernel_digest]
   and execution.  The keys must still be exactly what a from-scratch
   compile gives, a [?kernel] override must never see or touch a shared
   program, racing domains must agree, and no run may mutate the program
   it shares.

   Codec tests: [Field_codec] writes and parses integers by hand, and
   must agree byte for byte with [string_of_int] and with the
   [String.sub] + [int_of_string] decoder it replaced; specs round-trip;
   [Run_spec.Encoded] digests and keys exactly like [Run_spec]; and the
   spec keys and a decode stay within a minor-heap allocation budget. *)

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
module Codec = Xloops.Field_codec

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


(* -- Field codec ---------------------------------------------------------- *)

let enc n =
  let b = Buffer.create 24 in
  Codec.enc_int b n;
  Buffer.contents b

(* The decoder [Field_codec.dec_int] replaced, kept as the oracle: scan
   the digits, then [int_of_string] on a [String.sub] of them. *)
let old_dec_int (c : Codec.cursor) =
  let fail msg = raise (Codec.Bad (Printf.sprintf "%s at byte %d" msg c.pos)) in
  let start = c.pos in
  if c.pos < String.length c.s && c.s.[c.pos] = '-' then c.pos <- c.pos + 1;
  let digits0 = c.pos in
  while c.pos < String.length c.s
        && (match c.s.[c.pos] with '0' .. '9' -> true | _ -> false) do
    c.pos <- c.pos + 1
  done;
  if c.pos = digits0 then fail "expected an integer";
  if c.pos >= String.length c.s then fail "unexpected end of input";
  c.pos <- c.pos + 1;
  if c.s.[c.pos - 1] <> ';' then fail "expected ';' after integer";
  match int_of_string (String.sub c.s start (c.pos - 1 - start)) with
  | n -> n
  | exception Stdlib.Failure _ -> fail "integer out of range"

(* Value and end position, or the error message (which names the
   position).  Decoding starts after a two-byte prefix, so positions are
   checked away from the start of the input too. *)
let run_dec dec s =
  let c = Codec.cursor ("xx" ^ s) in
  c.pos <- 2;
  match dec c with
  | n -> Ok (n, c.pos)
  | exception Codec.Bad msg -> Error msg

let dec_outcome =
  Alcotest.(result (pair int int) string)

(* [s] with its last digit one higher: past [max_int], below [min_int]. *)
let bump_last s =
  let n = String.length s in
  assert (s.[n - 1] < '9');
  String.sub s 0 (n - 1) ^ String.make 1 (Char.chr (Char.code s.[n - 1] + 1))

let test_enc_int_fixed () =
  let rec powers p acc = if p > max_int / 10 then p :: acc
    else powers (p * 10) (p :: acc) in
  let ps = powers 1 [] in
  List.iter
    (fun n ->
       Alcotest.(check string) (string_of_int n) (string_of_int n ^ ";") (enc n))
    ([ 0; 1; -1; 9; -9; 10; -10; 99; -99; 100; max_int; min_int;
       max_int - 1; min_int + 1 ]
     @ ps @ List.map (fun p -> -p) ps
     @ List.map (fun p -> p - 1) ps @ List.map (fun p -> 1 - p) ps)

let prop_enc_int =
  QCheck.Test.make ~name:"enc_int is string_of_int and ';'" ~count:2000
    QCheck.(oneof [ int; small_signed_int ])
    (fun n -> enc n = string_of_int n ^ ";")

let test_dec_int_fixed () =
  let max_s = string_of_int max_int and min_s = string_of_int min_int in
  List.iter
    (fun s ->
       Alcotest.check dec_outcome (Printf.sprintf "%S" s)
         (run_dec old_dec_int s) (run_dec Codec.dec_int s))
    [ "0;"; "-0;"; "007;"; "-007;"; "00;"; "-;"; "-"; ""; ";"; "12"; "12x";
      "12;trailing"; "+5;"; "1_000;"; "0x10;"; " 1;"; "--1;"; "1-;";
      max_s ^ ";"; min_s ^ ";"; "0" ^ max_s ^ ";"; "-0" ^ String.sub min_s 1
        (String.length min_s - 1) ^ ";";
      bump_last max_s ^ ";"; bump_last min_s ^ ";";
      bump_last max_s; bump_last min_s ^ "x";
      max_s ^ "0;"; min_s ^ "0;"; "99999999999999999999999999;";
      "-99999999999999999999999999;" ]

(* Inputs near the grammar: random bytes over the codec's alphabet, and
   encodings of random ints with one byte overwritten. *)
let gen_dec_input =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:(oneofl [ '-'; '0'; '1'; '9'; ';'; 'x' ])
          (int_bound 24);
        map3
          (fun n i ch ->
             let b = Bytes.of_string (enc n) in
             Bytes.set b (i mod Bytes.length b) ch;
             Bytes.to_string b)
          int nat (oneofl [ '-'; '0'; '5'; '9'; ';'; 'x' ]);
        map (fun n -> "0" ^ enc n) int;
        map enc int ])

let prop_dec_int =
  QCheck.Test.make ~name:"dec_int agrees with int_of_string" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_dec_input)
    (fun s -> run_dec old_dec_int s = run_dec Codec.dec_int s)

(* [canonical] stays set exactly when the bytes read are [enc_int]'s. *)
let prop_dec_int_canonical =
  QCheck.Test.make ~name:"dec_int flags non-canonical spellings" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_dec_input)
    (fun s ->
       let c = Codec.cursor s in
       match Codec.dec_int c with
       | n -> c.canonical = (String.sub s 0 c.pos = enc n)
       | exception Codec.Bad _ -> true)

(* -- Spec round trip ------------------------------------------------------ *)

let gen_any_int =
  QCheck.Gen.(
    oneof [ int; small_signed_int; oneofl [ 0; -1; max_int; min_int ] ])

let gen_cfg : Config.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* name = string_size (int_bound 12) in
  let* kind =
    oneof
      [ return Config.Inorder;
        map2 (fun width window -> Config.Ooo { width; window })
          gen_any_int gen_any_int ]
  in
  let* g = array_repeat 9 gen_any_int in
  let gpp =
    { Config.kind; l1_size = g.(0); l1_ways = g.(1); l1_line = g.(2);
      load_use_latency = g.(3); miss_penalty = g.(4);
      branch_penalty = g.(5); mul_latency = g.(6); div_latency = g.(7);
      fpu_latency = g.(8) }
  in
  let* l = array_repeat 11 gen_any_int in
  let* inter_lane_fwd = bool in
  let* supported =
    list_size (int_bound 8) (oneofl Xloops.Isa.Insn.[ Uc; Or; Om; Orm; Ua ])
  in
  let lpsu =
    { Config.lanes = l.(0); ib_entries = l.(1); lsq_loads = l.(2);
      lsq_stores = l.(3); mem_ports = l.(4); llfu_ports = l.(5);
      threads_per_lane = l.(6); lane_issue_width = l.(7); inter_lane_fwd;
      scan_fixed = l.(8); scan_per_insn = l.(9); supported;
      squash_penalty = l.(10) }
  in
  map (fun has -> { Config.name; gpp; lpsu = (if has then Some lpsu else None) })
    bool

let gen_spec : Run_spec.t QCheck.Gen.t =
  let open QCheck.Gen in
  let* kernel =
    oneof
      [ oneofl (List.map (fun (k : Kernel.t) -> k.name) Registry.all);
        string_size (int_bound 16) ]
  in
  let* cfg = oneof [ gen_cfg; oneofl Config.(baselines @ specialized) ] in
  let* mode = oneofl Machine.[ Traditional; Specialized; Adaptive ] in
  let* xloops = bool and* use_xi = bool in
  let* fuel = opt (oneof [ gen_any_int; return max_int ]) in
  let* fault_seed = opt (pair gen_any_int gen_any_int) in
  let* watchdog = gen_any_int and* degrade = bool in
  return
    { Run_spec.kernel; cfg; mode; target = { Compile.xloops; use_xi };
      fuel; fault_seed; watchdog; degrade }

let print_spec s = Printf.sprintf "%S" (Run_spec.encode s)

let key_result f = match f () with k -> Ok k | exception e -> Error e

(* A spec naming no registry kernel raises from both keys alike. *)
let prop_spec_roundtrip =
  QCheck.Test.make ~name:"decode (encode s) = Ok s" ~count:500
    (QCheck.make ~print:print_spec gen_spec)
    (fun s ->
       let bytes = Run_spec.encode s in
       Run_spec.decode bytes = Ok s
       && (match Run_spec.Encoded.decode bytes with
           | Ok e ->
             Run_spec.Encoded.spec e = s
             && String.equal (Run_spec.Encoded.bytes e) bytes
             && Run_spec.Encoded.digest e = Run_spec.digest s
             && key_result (fun () -> Run_spec.Encoded.cache_key e)
                = key_result (fun () -> Run_spec.cache_key s)
           | Error _ -> false))

(* [Digest_hex.of_hex] as it was written with [String.for_all] and a
   predicate per character: the direct loop must accept the same
   strings and word its errors the same way. *)
let of_hex_ref s =
  let is_hex_char = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  if String.length s <> 32 then
    Error
      (Printf.sprintf "digest must be 32 hex chars, got %d" (String.length s))
  else if not (String.for_all is_hex_char s) then
    Error "digest must be lowercase hex"
  else Ok s

(* A valid digest, the same with one character swapped for a neighbour
   of a hex range ('/', ':', '`', 'g', 'A'-'G') or any byte, or a string
   of another length. *)
let gen_hexish =
  let open QCheck.Gen in
  let hex = oneofl (List.of_seq (String.to_seq "0123456789abcdef")) in
  let odd = oneof [ oneofl [ '/'; ':'; '`'; 'g'; 'A'; 'F'; 'G' ]; char ] in
  let* d = string_size ~gen:hex (return 32) in
  frequency
    [ (2, return d);
      (3,
       let* i = int_bound 31 and* c = odd in
       return (String.mapi (fun j x -> if j = i then c else x) d));
      (1, string_size ~gen:(oneof [ hex; odd ]) (int_bound 40)) ]

let prop_of_hex =
  QCheck.Test.make ~name:"Digest_hex.of_hex = the String.for_all check"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_hexish)
    (fun s ->
       Result.map Digest_hex.to_hex (Digest_hex.of_hex s) = of_hex_ref s)

(* [encode] reuses a config's bytes by the value's physical identity.
   Over every spec the plans name, a repeat encoding (memoized) equals
   the encoding of the same spec over a structurally equal fresh copy
   of its config (a value the table has never seen, so encoded field
   by field), and a copy that differs in one field encodes differently.
   The copies are then encoded again, from the table. *)
let test_cfg_bytes_memo () =
  let specs =
    E.dedupe_specs
      (List.concat_map E.specs_for Registry.all
       @ E.quick_plan () @ E.fig9_specs () @ E.table4_specs ()
       @ E.fig10_specs () @ List.map snd E.extension_runs)
  in
  let copy (c : Config.t) : Config.t =
    Marshal.from_string (Marshal.to_string c []) 0 in
  List.iter
    (fun (s : Run_spec.t) ->
       let what = Run_spec.what s in
       let memoized = Run_spec.encode s in
       Alcotest.(check string) (what ^ ": repeat") memoized
         (Run_spec.encode s);
       let fresh = { s with cfg = copy s.cfg } in
       Alcotest.(check bool) (what ^ ": a new value") false
         (fresh.cfg == s.cfg);
       Alcotest.(check string) (what ^ ": fresh copy") memoized
         (Run_spec.encode fresh);
       Alcotest.(check string) (what ^ ": fresh copy, again") memoized
         (Run_spec.encode fresh);
       let renamed = { s with cfg = { (copy s.cfg) with name = "x" } } in
       Alcotest.(check bool) (what ^ ": another config") true
         (Run_spec.encode renamed <> memoized
          && Run_spec.decode (Run_spec.encode renamed) = Ok renamed))
    specs;
  Alcotest.(check bool) "the plans name several configs" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun (s : Run_spec.t) -> s.cfg) specs))
     > 4)

let test_spec_edges () =
  let base = List.hd (E.specs_for (Registry.find "war-uc")) in
  List.iter
    (fun (what, s) ->
       Alcotest.(check bool) what true (Run_spec.decode (Run_spec.encode s) = Ok s))
    [ ("fuel max_int", { base with fuel = Some max_int });
      ("fuel min_int", { base with fuel = Some min_int });
      ("negative fault seed", { base with fault_seed = Some (-7, 3) });
      ("min_int fault seed", { base with fault_seed = Some (min_int, max_int) });
      ("negative watchdog", { base with watchdog = -1 }) ];
  let bytes = Run_spec.encode base in
  let n = String.length bytes in
  Alcotest.(check (result unit string)) "trailing bytes"
    (Error (Printf.sprintf "Run_spec.decode: trailing bytes at byte %d" n))
    (Result.map ignore (Run_spec.decode (bytes ^ "x")));
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Run_spec.decode (String.sub bytes 0 (n - 1))));
  (* The kernel name's length prefix spelled with a leading zero. *)
  let padded = String.sub bytes 0 4 ^ "0" ^ String.sub bytes 4 (n - 4) in
  (match Run_spec.Encoded.decode padded with
   | Error m -> Alcotest.failf "padded spelling rejected: %s" m
   | Ok e ->
     Alcotest.(check bool) "padded spelling decodes" true
       (Run_spec.Encoded.spec e = base);
     Alcotest.(check string) "and is keyed by the canonical bytes" bytes
       (Run_spec.Encoded.bytes e);
     Alcotest.check key "digest unchanged" (Run_spec.digest base)
       (Run_spec.Encoded.digest e);
     Alcotest.check key "cache key unchanged" (Run_spec.cache_key base)
       (Run_spec.Encoded.cache_key e))

(* A spelling of the previous revision, XRS1: war-uc on io+x,
   specialized, default knobs.  Its LPSU block has one more field (the
   third, 4) than XRS2's, so both decoders must refuse it rather than
   shift every later LPSU field by one. *)
let xrs1_war_uc_io_x_s =
  "XRS16;war-uc4;io+xI16384;2;32;2;20;2;4;12;4;L4;128;4;8;8;1;1;1;1;f8;1;5;\
   0;1;2;3;4;2;Sttnn50000;t"

let test_old_revision_rejected () =
  Alcotest.(check bool) "Run_spec.decode" true
    (Result.is_error (Run_spec.decode xrs1_war_uc_io_x_s));
  Alcotest.(check bool) "Encoded.decode" true
    (Result.is_error (Run_spec.Encoded.decode xrs1_war_uc_io_x_s))

(* -- Allocation budget of the spec keys ---------------------------------- *)

(* Minor-heap words per call over one kernel's twelve Table II specs;
   the heap is emptied around the loop (see test_machine), and a first,
   discarded round warms the program cache. *)
let minor_words_per_call prepare f =
  let inputs =
    List.map prepare (E.specs_for (Registry.find "sgemm-uc")) in
  let rounds = 200 in
  let run () =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs
    done;
    Gc.minor ();
    (Gc.minor_words () -. w0) /. float_of_int (rounds * List.length inputs)
  in
  ignore (run ());
  run ()

(* An encoding is a string of at most ~110 bytes built in a buffer
   sized for it, around the config's bytes reused from [encode]'s table;
   a digest is its MD5 in hex, and a cache key hashes the encoding
   followed by the listing's MD5.  Formatting each integer through
   [string_of_int] cost 160, 170 and 208 words; an intermediate copy of
   the encoding (~15 words) also breaks a bound, and so would encoding
   the config into its own string on every call.  A decode builds the
   spec and its config. *)
let test_key_allocation () =
  List.iter
    (fun (what, w, budget) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s: %.1f minor words/call <= %.0f" what w budget)
         true (w <= budget))
    [ ("encode", minor_words_per_call Fun.id Run_spec.encode, 40.);
      ("digest", minor_words_per_call Fun.id Run_spec.digest, 60.);
      ("cache_key", minor_words_per_call Fun.id Run_spec.cache_key, 100.);
      ("Encoded.decode",
       minor_words_per_call Run_spec.encode Run_spec.Encoded.decode, 90.) ]

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
           test_faulted_run_leaves_program ]);
      ("codec",
       [ Alcotest.test_case "enc_int fixed points" `Quick test_enc_int_fixed;
         QCheck_alcotest.to_alcotest prop_enc_int;
         Alcotest.test_case "dec_int fixed inputs" `Quick test_dec_int_fixed;
         QCheck_alcotest.to_alcotest prop_dec_int;
         QCheck_alcotest.to_alcotest prop_dec_int_canonical;
         QCheck_alcotest.to_alcotest prop_spec_roundtrip;
         QCheck_alcotest.to_alcotest prop_of_hex;
         Alcotest.test_case "spec edges" `Quick test_spec_edges;
         Alcotest.test_case "config bytes memo" `Quick test_cfg_bytes_memo;
         Alcotest.test_case "old revision rejected" `Quick
           test_old_revision_rejected ]);
      ("allocation",
       [ Alcotest.test_case "spec keys" `Quick test_key_allocation ]) ]
