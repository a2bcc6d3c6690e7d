(* Interpreter micro-benchmark: host-side throughput (MIPS) and
   allocation rate (bytes/instruction) of the two functional
   interpreters — the raw-decoding reference and the predecoded
   [Exec.step] path — on a synthetic straight-line kernel and a few
   representative compiled kernels.

   Usage:
     dune exec bench/micro.exe                   # table + BENCH_interp.json
     dune exec bench/micro.exe -- --check        # also enforce the committed
                                                 # bytes/insn + MIPS gates
     dune exec bench/micro.exe -- --repeat 5 --json out.json
     dune exec bench/micro.exe -- --diff-schema BENCH_interp.json out.json

   MIPS numbers are host- and load-dependent (the table reports the best
   of [--repeat] timing windows); bytes/insn is deterministic, which is
   why the --check regression gate is primarily on allocation.  The MIPS
   gate is deliberately loose: absolute floors far below any healthy
   host, plus relative floors (each tier must beat the one below it)
   that are host-independent. *)

module B = Xloops.Asm.Builder
module Memory = Xloops.Mem.Memory
module Exec = Xloops.Sim.Exec
module Registry = Xloops.Kernels.Registry
module Kernel = Xloops.Kernels.Kernel
module Compile = Xloops.Compiler.Compile

(* The measured tiers, slowest first. *)
let tiers =
  [ "ref", (fun prog mem -> Exec.run_serial_ref prog mem);
    "predecode", (fun prog mem -> Exec.run_serial prog mem) ]

(* Pre-optimization reference, measured with the same workloads on the
   same host immediately before the zero-allocation interpreter core
   landed (boxed registers, fresh event record and memory closures per
   step).  Kept for the speedup column of BENCH_interp.json. *)
let baseline = [
  (* name, MIPS, bytes/insn *)
  "straightline", 55.0, 168.9;
  "sgemm-uc", 52.0, 147.4;
  "war-uc", 39.0, 167.1;
  "bfs-uc-db", 38.0, 118.8;
  "adpcm-or", 49.0, 144.5;
]

(* Committed allocation budgets in bytes per dynamic instruction; a
   regression past these fails --check (and CI).  The predecode tier
   allocates nothing per instruction (memory values cross [mem_iface]
   as native ints); its budgets leave headroom for per-run set-up.  The
   ref tier legitimately allocates (int32 register views); its loose
   budget only catches catastrophic drift. *)
let alloc_budget ~tier name =
  match tier with
  | "ref" -> Some 200.0
  | _ ->
    List.assoc_opt name
      [ "straightline", 0.10;
        "sgemm-uc", 1.00;
        "war-uc", 2.00;
        "bfs-uc-db", 2.00;
        "adpcm-or", 0.50 ]

(* Absolute MIPS floors: far below a healthy run on any plausible host
   (the predecode tier measures 80-100 MIPS locally), so they
   catch order-of-magnitude regressions — an accidental re-compile per
   run, a debug path left on — without flaking on slow CI runners.
   Every workload carries a floor on every tier: the bfs-uc-db
   episode (a sub-millisecond timing window absorbing the previous
   tier's deferred minor collection read as a predecode regression)
   showed that unfloored kernels let measurement artifacts into the
   committed file unchallenged.  The host-independent gates are the
   relative floors below. *)
let mips_floor ~tier name =
  match tier, name with
  | "ref", _ -> Some 15.0
  | _, "straightline" -> Some 40.0
  | _ -> Some 25.0

(* Host-independent gates: each pair is (workload, faster tier, baseline
   tier, minimum MIPS ratio), both sides measured in the same process.
   The predecode-vs-ref rows at 1.0 pin the bfs-uc-db fix: the predecode
   tier strictly dominates the boxed reference on every kernel, so any
   recurrence of a predecode-loses row fails --check instead of landing
   in the committed file. *)
let relative_floors =
  List.map (fun (name, _, _) -> (name, "predecode", "ref", 1.0)) baseline

(* 16 dependent adds + decrement + branch per iteration: pure register
   ALU work, the worst case for interpreter dispatch overhead. *)
let straightline ~iters =
  let b = B.create () in
  B.li b 8 1;
  B.li b 9 iters;
  B.li b 10 0;
  B.label b "top";
  for _ = 0 to 15 do B.add b 10 10 8 done;
  B.addi b 9 9 (-1);
  B.bne b 9 0 "top";
  B.halt b;
  B.assemble b

type sample = {
  s_name : string;
  s_tier : string;
  s_insns : int;
  s_mips : float;          (* best of the repeats *)
  s_bytes_per_insn : float;
}

(* Minimum timing-window length.  The compiled kernels retire only
   19k–60k instructions (~0.2–0.6 ms), which is small enough for timer
   quantization — and for whichever run happens to absorb the previous
   tier's deferred minor collection — to swing a single-sample MIPS
   number by 30%+ in either direction.  That is exactly how the
   committed bfs-uc-db predecode row came to read slower than ref: the
   first post-warm-up predecode run paid the minor GC of the ref tier's
   ~7 B/insn garbage inside a 0.24 ms window.  Short workloads are
   therefore batched back to back (fresh memories built outside the
   window) until the window is at least this long, and the minor heap is
   drained before the clock starts so no sample inherits another tier's
   collection debt. *)
let min_window = 0.02

let insns_of name = function
  | Ok r -> r.Exec.dynamic_insns
  | Error stop -> Fmt.failwith "%s: %a" name Exec.pp_stop stop

(* Per-tier set-up for one workload: a warm-up run, which also sizes the
   batch for the minimum window, then the allocation probe. *)
let prepare (tier, run) name prog mem_of =
  (* Warm-up run: caches, branch predictors and GC state. *)
  let t0 = Unix.gettimeofday () in
  let insns = insns_of name (run prog (mem_of ())) in
  let t1 = Unix.gettimeofday () -. t0 in
  let batch =
    max 1 (min 256 (int_of_float (ceil (min_window /. Float.max t1 1e-6))))
  in
  (* Allocation is measured over a single un-batched run, minor heap
     drained first: on OCaml 5.1 a minor collection inside the counted
     region credits roughly the whole minor arena to
     [Gc.allocated_bytes], so a batched window that crosses a minor GC
     over-reports the compiled kernels' ~17 KB/run by 100x.  One run
     stays under the trigger, and the committed budgets were measured
     this way. *)
  let alloc_mem = mem_of () in
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let ai = insns_of name (run prog alloc_mem) in
  let bytes = (Gc.allocated_bytes () -. a0) /. float_of_int ai in
  (run, batch,
   { s_name = name; s_tier = tier; s_insns = insns; s_mips = 0.0;
     s_bytes_per_insn = bytes })

(* MIPS of one timing window: [batch] back-to-back runs. *)
let window run name prog mem_of batch =
  (* fresh memories outside the window: runs mutate their memory *)
  let mems = Array.init batch (fun _ -> mem_of ()) in
  Gc.minor ();
  let total = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to batch - 1 do
    total := !total + insns_of name (run prog mems.(i))
  done;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int !total /. dt /. 1e6

(* Every tier of one workload, best of [repeat] windows each.  Each
   repeat times one window per tier, back to back, so the tiers the
   relative floors compare see the same stretch of host time; timing
   all of one tier's windows before the next would let host speed drift
   read as a tier regression. *)
let measure ~repeat name prog mem_of =
  let preps = List.map (fun tier -> prepare tier name prog mem_of) tiers in
  let best = Array.make (List.length preps) 0.0 in
  for _ = 1 to repeat do
    List.iteri
      (fun i (run, batch, _) ->
         best.(i) <- Float.max best.(i) (window run name prog mem_of batch))
      preps
  done;
  List.mapi (fun i (_, _, s) -> { s with s_mips = best.(i) }) preps

let kernel_workload name =
  let k = Registry.find name in
  let c = Compile.compile k.Kernel.kernel in
  (c.Compile.program,
   fun () ->
     let mem = Memory.create ~size:c.Compile.mem_bytes () in
     k.Kernel.init c.Compile.array_base mem;
     mem)

(* -- JSON emission and schema diff ------------------------------------- *)

(* One row object per line: BENCH_interp.json is both human-skimmable
   and trivially re-parseable by [diff_schema] below without a JSON
   dependency. *)
let emit_json path samples =
  let oc = open_out path in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n  \"schema\": 3,\n  \"workloads\": [\n";
  List.iteri
    (fun i s ->
       pf "    {\"name\": %S, \"tier\": %S, \"insns\": %d, \
           \"mips\": %.2f, \"insns_per_sec\": %.0f, \
           \"bytes_per_insn\": %.2f"
         s.s_name s.s_tier s.s_insns s.s_mips
         (s.s_mips *. 1e6) s.s_bytes_per_insn;
       (match alloc_budget ~tier:s.s_tier s.s_name with
        | Some b -> pf ", \"alloc_budget\": %.2f" b
        | None -> ());
       (match mips_floor ~tier:s.s_tier s.s_name with
        | Some f -> pf ", \"mips_floor\": %.1f" f
        | None -> ());
       (match s.s_tier,
              List.find_opt (fun (n, _, _) -> n = s.s_name) baseline with
        | "predecode", Some (_, bm, bb) ->
          pf ", \"baseline_mips\": %.2f, \"baseline_bytes_per_insn\": %.2f, \
              \"speedup\": %.2f, \"alloc_ratio\": %.4f"
            bm bb (s.s_mips /. bm) (s.s_bytes_per_insn /. bb)
        | _ -> ());
       pf "}%s\n" (if i = List.length samples - 1 then "" else ","))
    samples;
  pf "  ]\n}\n";
  close_out oc

(* Minimal row scraper for the one-row-per-line format [emit_json]
   writes: enough to diff an emitted file against the committed one
   structurally (same rows, required fields present, identical budgets,
   budgets monotone across tiers) without pinning the host-dependent
   numbers. *)
let scrape_field line key : string option =
  let pat = Printf.sprintf "\"%s\": " key in
  let plen = String.length pat and n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
      incr stop
    done;
    Some (String.trim (String.sub line start (!stop - start)))

let scrape_rows path =
  let ic = open_in path in
  let rows = ref [] and schema = ref None in
  (try
     while true do
       let line = input_line ic in
       if !schema = None then
         (match scrape_field line "schema" with
          | Some s -> schema := Some s
          | None -> ());
       match scrape_field line "name", scrape_field line "tier" with
       | Some name, Some tier ->
         let num key = Option.map float_of_string (scrape_field line key) in
         rows := (Scanf.sscanf name "%S" Fun.id,
                  Scanf.sscanf tier "%S" Fun.id,
                  [ "insns", num "insns"; "mips", num "mips";
                    "insns_per_sec", num "insns_per_sec";
                    "bytes_per_insn", num "bytes_per_insn";
                    "alloc_budget", num "alloc_budget" ]) :: !rows
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  (!schema, List.rev !rows)

let diff_schema committed emitted =
  let fail = ref false in
  let err fmt = Fmt.kstr (fun m -> fail := true; Fmt.epr "FAIL %s@." m) fmt in
  let (cs, crows) = scrape_rows committed in
  let (es, erows) = scrape_rows emitted in
  if cs <> Some "3" then err "%s: schema is %a, want 3" committed
      Fmt.(option ~none:(any "absent") string) cs;
  if es <> Some "3" then err "%s: schema is %a, want 3" emitted
      Fmt.(option ~none:(any "absent") string) es;
  let key (n, t, _) = n ^ "/" ^ t in
  let ckeys = List.map key crows and ekeys = List.map key erows in
  List.iter
    (fun k ->
       if not (List.mem k ekeys) then
         err "row %s present in %s but missing from %s" k committed emitted)
    ckeys;
  List.iter
    (fun k ->
       if not (List.mem k ckeys) then
         err "row %s present in %s but missing from %s" k emitted committed)
    ekeys;
  let check_rows file rows =
    List.iter
      (fun (n, t, fields) ->
         List.iter
           (fun (fname, v) ->
              match v with
              | None ->
                err "%s: row %s/%s is missing field %S" file n t fname
              | Some f ->
                if (fname = "mips" || fname = "insns") && f <= 0.0 then
                  err "%s: row %s/%s has non-positive %s" file n t fname)
           fields;
         (* budgets must go down (or hold) as the tier gets faster:
            each tier against the next slower one in [tiers] *)
         let budget tier =
           List.find_map
             (fun (n', t', fs) ->
                if n' = n && t' = tier then List.assoc "alloc_budget" fs
                else None)
             rows
         in
         let pairwise fast slow =
           match budget fast, budget slow with
           | Some f, Some s when f > s ->
             err "%s: %s %s budget %.2f exceeds %s %.2f" file n fast f slow s
           | _ -> ()
         in
         let rec pairs = function
           | (slow, _) :: ((fast, _) :: _ as rest) ->
             pairwise fast slow; pairs rest
           | _ -> ()
         in
         pairs tiers)
      rows
  in
  check_rows committed crows;
  check_rows emitted erows;
  (* committed budgets are the contract: the emitted file must carry
     the same ones *)
  List.iter
    (fun (n, t, fields) ->
       match List.assoc "alloc_budget" fields with
       | None -> ()
       | Some cb ->
         List.iter
           (fun (n', t', fields') ->
              if n' = n && t' = t then
                match List.assoc "alloc_budget" fields' with
                | Some eb when Float.abs (eb -. cb) > 1e-9 ->
                  err "row %s/%s: alloc_budget %.2f in %s but %.2f in %s"
                    n t cb committed eb emitted
                | _ -> ())
           erows)
    crows;
  not !fail

(* -- Regression gates --------------------------------------------------- *)

let check samples =
  let ok = ref true in
  let err fmt = Fmt.kstr (fun m -> ok := false; Fmt.epr "FAIL %s@." m) fmt in
  List.iter
    (fun s ->
       (match alloc_budget ~tier:s.s_tier s.s_name with
        | Some budget when s.s_bytes_per_insn > budget ->
          err "%s/%s: %.3f bytes/insn exceeds budget %.2f"
            s.s_name s.s_tier s.s_bytes_per_insn budget
        | _ -> ());
       (match mips_floor ~tier:s.s_tier s.s_name with
        | Some floor when s.s_mips < floor ->
          err "%s/%s: %.1f MIPS below floor %.1f"
            s.s_name s.s_tier s.s_mips floor
        | _ -> ()))
    samples;
  let mips_of name tier =
    List.find_map
      (fun s ->
         if s.s_name = name && s.s_tier = tier then Some s.s_mips else None)
      samples
  in
  List.iter
    (fun (wl, fast, slow, ratio) ->
       match mips_of wl fast, mips_of wl slow with
       | Some f, Some s when f < ratio *. s ->
         err "%s: %s %.1f MIPS < %.1fx %s (%.1f MIPS)"
           wl fast f ratio slow s
       | _ -> ())
    relative_floors;
  !ok

(* -- Driver ------------------------------------------------------------- *)

let () =
  let repeat = ref 3 in
  let out = ref "BENCH_interp.json" in
  let do_check = ref false in
  let diff = ref None in
  let diff_a = ref "" in
  Arg.parse
    [ "--repeat", Arg.Set_int repeat, "N  measurement repetitions (default 3)";
      "--json", Arg.Set_string out,
      "FILE  JSON output (default BENCH_interp.json)";
      "-o", Arg.Set_string out, "FILE  alias for --json";
      "--check", Arg.Set do_check,
      "  fail if any workload exceeds its bytes/insn budget or misses \
       its MIPS floor";
      "--diff-schema",
      Arg.Tuple [ Arg.Set_string diff_a;
                  Arg.String (fun b -> diff := Some (!diff_a, b)) ],
      "COMMITTED EMITTED  structurally compare two benchmark JSON files \
       and exit" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "interpreter micro-benchmark";
  match !diff with
  | Some (a, b) ->
    if diff_schema a b then Fmt.pr "schema diff: OK@." else exit 1
  | None ->
    let workloads =
      ("straightline",
       straightline ~iters:1_000_000, fun () -> Memory.create ())
      :: List.map
        (fun name ->
           let prog, mem_of = kernel_workload name in
           (name, prog, mem_of))
        [ "sgemm-uc"; "war-uc"; "bfs-uc-db"; "adpcm-or" ]
    in
    let samples =
      List.concat_map
        (fun (name, prog, mem_of) -> measure ~repeat:!repeat name prog mem_of)
        workloads
    in
    Fmt.pr "%-14s %-10s %12s %9s %13s %9s@." "workload" "tier" "insns"
      "MIPS" "insns/sec" "B/insn";
    List.iter
      (fun s ->
         Fmt.pr "%-14s %-10s %12d %9.2f %13.0f %9.3f@."
           s.s_name s.s_tier s.s_insns s.s_mips
           (s.s_mips *. 1e6) s.s_bytes_per_insn)
      samples;
    emit_json !out samples;
    Fmt.pr "@.wrote %s@." !out;
    if !do_check then
      if check samples then Fmt.pr "benchmark gates: OK@."
      else exit 1
