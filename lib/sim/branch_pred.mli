(** Bimodal branch predictor (2-bit saturating counters, BTB assumed
    always hitting) for the out-of-order GPP timing model.  Counters
    start weakly-taken so loop back-edges predict well immediately. *)

type t

val create : unit -> t
(** A 1024-entry table. *)

val predict_update : t -> pc:int -> taken:bool -> bool
(** Returns [true] if the prediction was correct; updates the counter
    either way. *)

val mispredicts : t -> int
val lookups : t -> int
