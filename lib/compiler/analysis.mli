(** Dependence analysis and pattern selection (Section II-B of the
    paper): classifies [ordered] loops into [xloop.{or,om,orm}] from
    register use-def structure and ZIV/SIV/GCD subscript tests, detects
    dynamically-raised bounds, and trusts [unordered]/[atomic]
    annotations as the paper does. *)

(** [a*i + rest] where [rest] does not mention [i]. *)
type linear = { coeff : int; rest : Ast.expr }

val mentions : string -> Ast.expr -> bool

val linear_in : string -> Ast.expr -> linear option
(** Linear-form extraction; [None] when the expression is not affine in
    the variable. *)

val const_eval : Ast.expr -> int option
(** Constant folding over [+,-,*,<<]. *)

type access = {
  acc_array : string;
  acc_index : Ast.expr;
  acc_write : bool;
  acc_atomic : bool;
}

type scalar_use = First_read | First_write

type body_summary = {
  accesses : access list;
  scalar_first : (string * scalar_use) list;
      (** outer scalars with the kind of their first possible access on
          some path (branch joins intersect must-written sets; loop
          bodies may run zero times and never shield later reads) *)
  scalars_written : string list;
  arrays_written : string list;
  has_inner_loop : bool;
}

val summarize : Ast.block -> body_summary

type classification = {
  pattern : Xloops_isa.Insn.xpat;
  cir_scalars : string list;   (** loop-carried scalars (become CIRs) *)
  dep_arrays : string list;
  dynamic_bound : bool;
}

val classify : Ast.for_loop -> classification
(** [ordered] with no surviving dependence decays to the least
    restrictive pattern, [uc]. *)

val classify_de : Ast.for_de -> classification
(** Same data-pattern selection for a data-dependent-exit loop; the
    control pattern is always [De]. *)
