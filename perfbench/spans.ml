(* In-memory span recorder for the traced pass.  A span is one call into
   a library layer, recorded by the benchmark around that call: name,
   start, end, parent span and request id.  Spans are kept in memory
   and written out (Chrome trace-event JSON) only when the pass ends.

   A span's layer is its name up to the first '.', e.g.
   "run_cache.find_run" belongs to layer "run_cache".  Self time is a
   span's duration minus the durations of its direct children, so the
   self times of all spans plus the wall time no top-level span covers
   add up to the pass's wall time exactly. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  t0 : int;                         (* ns, monotonic *)
  t1 : int;
  parent : int;                     (* -1 at top level *)
  req : int;                        (* request id, -1 outside requests *)
}

let recorded : span list ref = ref []
let next_id = ref 0
let cur = ref (-1)
let cur_req = ref (-1)

let reset () = recorded := []; next_id := 0; cur := -1; cur_req := -1

let span ?req name f =
  let id = !next_id in
  incr next_id;
  let parent = !cur and preq = !cur_req in
  let req = Option.value req ~default:preq in
  cur := id;
  cur_req := req;
  let t0 = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now_ns () in
      recorded := { id; name; t0; t1; parent; req } :: !recorded;
      cur := parent;
      cur_req := preq)

(* Run [f] as request [req]: spans it opens carry that id. *)
let in_request req f =
  let p = !cur_req in
  cur_req := req;
  Fun.protect f ~finally:(fun () -> cur_req := p)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let all () = !recorded

let dur s = s.t1 - s.t0

(* Calls and total (inclusive) nanoseconds of the spans named [name]. *)
let calls name = List.length (List.filter (fun s -> s.name = name) (all ()))

let total_ns name =
  List.fold_left (fun acc s -> if s.name = name then acc + dur s else acc)
    0 (all ())

(* Self nanoseconds per layer, and the nanoseconds of [wall_ns] that no
   top-level span covers. *)
let self_by_layer ~wall_ns =
  let child_ns = Hashtbl.create 4096 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child_ns s.parent
           (dur s + Option.value (Hashtbl.find_opt child_ns s.parent)
                      ~default:0))
    (all ());
  let by_layer = Hashtbl.create 16 in
  let top = ref 0 in
  List.iter
    (fun s ->
       if s.parent < 0 then top := !top + dur s;
       let self =
         dur s - Option.value (Hashtbl.find_opt child_ns s.id) ~default:0 in
       let l = layer_of s.name in
       Hashtbl.replace by_layer l
         (self + Option.value (Hashtbl.find_opt by_layer l) ~default:0))
    (all ());
  (by_layer, wall_ns - !top)

(* Chrome trace-event JSON, viewable in Perfetto or chrome://tracing. *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  let base =
    List.fold_left (fun m s -> min m s.t0) max_int (all ()) in
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s{\"name\": %S, \"cat\": %S, \"ph\": \"X\", \"pid\": 1, \
          \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": \
          {\"id\": %d, \"parent\": %d, \"req\": %d}}\n"
         (if i = 0 then "" else ",")
         s.name (layer_of s.name)
         (float_of_int (s.t0 - base) /. 1e3) (float_of_int (dur s) /. 1e3)
         s.id s.parent s.req)
    (List.sort (fun a b -> compare a.t0 b.t0) (all ()));
  output_string oc "]}\n";
  close_out oc
