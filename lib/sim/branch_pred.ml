(** Bimodal branch predictor (2-bit saturating counters, BTB assumed to
    always hit) used by the out-of-order GPP timing model. *)

type t = {
  counters : Bytes.t;     (* 0..3; >=2 predicts taken *)
  mutable lookups : int;
  mutable mispredicts : int;
}

(* A power of two, so [pc land (entries - 1)] indexes the table. *)
let entries = 1024

let create () =
  (* Initialize weakly-taken: loop back-edges predict well immediately,
     like a BTB-resident backward-taken heuristic. *)
  { counters = Bytes.make entries '\002'; lookups = 0; mispredicts = 0 }

(** [predict_update t ~pc ~taken] returns [true] if the prediction was
    correct, updating the counter. *)
let predict_update t ~pc ~taken =
  t.lookups <- t.lookups + 1;
  let i = pc land (entries - 1) in
  let c = Bytes.get_uint8 t.counters i in
  let predicted = c >= 2 in
  Bytes.set_uint8 t.counters i
    (if taken then (if c < 3 then c + 1 else 3)
     else if c > 0 then c - 1 else 0);
  let correct = predicted = taken in
  if not correct then t.mispredicts <- t.mispredicts + 1;
  correct

let mispredicts t = t.mispredicts
let lookups t = t.lookups
