(** Per-pc timing metadata: what the GPP and LPSU timing models need to
    know about a static instruction (registers, functional-unit and
    latency class, unit and control flags), decoded once per program so
    the per-instruction paths never re-match [Insn.t]. *)

type fu = Fu_alu | Fu_mul | Fu_div | Fu_fpu | Fu_xi | Fu_amo
(** Functional-unit class: which {!Stats} execute counter an instruction
    increments. *)

type latency = Lat_alu | Lat_mul | Lat_div | Lat_fpu
(** Latency class; {!Gpp_timing.class_latency} prices it. *)

type t = private {
  s1 : int;              (** source registers, -1 when absent *)
  s2 : int;
  rd : int;              (** destination register, -1 when none *)
  rf_reads : int;        (** number of present sources *)
  fu : fu;
  lat : latency;
  unpipelined : bool;    (** occupies the divider: div, rem, fdiv *)
  llfu : bool;           (** executes on the shared long-latency unit *)
  mem : bool;            (** load, store or AMO *)
  branch : bool;         (** any control transfer, xloop included *)
  predicted : bool;      (** conditional: branch or xloop *)
  sync : bool;
}

val of_program : Xloops_asm.Program.t -> t array
(** Metadata for every pc, parallel to [insns].  The GPP timing model
    and the LPSU each compute it once per machine. *)

val fold_counts : t array -> int array -> lo:int -> hi:int -> Stats.t -> unit
(** [fold_counts meta counts ~lo ~hi stats] adds, for each pc in
    [\[lo, hi)], [counts.(pc)] executions of [meta.(pc)] to [stats]'s
    decode, register-file, functional-unit and branch counters, and
    zeroes those counts.  The GPP timing models and the LPSU lanes count
    issues per pc and fold them once per run. *)
