(** Static data-segment layout.  Kernels allocate named regions here, get
    back base addresses to bake into their code as immediates, and
    initialize the regions through {!Xloops_mem.Memory} before running. *)

type region = { name : string; base : int; bytes : int }

type t = {
  mutable next : int;
  mutable regions : region list;  (* reversed *)
}

(* The data segment starts at byte address 0x1000 (addresses below are
   reserved so that null-pointer-style bugs in kernels trap) and is
   bounded by [limit]; runs size their memory to the regions actually
   allocated, not to [limit]. *)
let limit = 1 lsl 20

let create () = { next = 0x1000; regions = [] }

(** Allocate [bytes] bytes aligned to 4; returns the base address. *)
let alloc t ~name ~bytes =
  let base = (t.next + 3) / 4 * 4 in
  if base + bytes > limit then
    invalid_arg
      (Printf.sprintf "Layout.alloc %s: out of data segment (%d + %d > %d)"
         name base bytes limit);
  t.next <- base + bytes;
  t.regions <- { name; base; bytes } :: t.regions;
  base

(** Allocate an array of [n] 32-bit words. *)
let alloc_words t ~name ~n = alloc t ~name ~bytes:(n * 4)

let regions t = List.rev t.regions

let find t name =
  match List.find_opt (fun r -> r.name = name) t.regions with
  | Some r -> r
  | None -> invalid_arg ("Layout.find: " ^ name)

let pp ppf t =
  List.iter
    (fun r -> Fmt.pf ppf "%-16s 0x%06x  %6d bytes@." r.name r.base r.bytes)
    (regions t)
