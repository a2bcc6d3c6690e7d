(** Loopc: the small typed loop language the XLOOPS kernels are written
    in — the stand-in for the paper's pragma-annotated C kernels.

    Scalars are [int] or [float32]; arrays are 1-D with
    [u8]/[u16]/[i32]/[f32] elements (multi-dimensional data is indexed
    manually, as in the paper's kernels); control flow is
    [for]/[for_de]/[while]/[if].  A [For] carrying a pragma compiles to
    an [xloop] under the XLOOPS target, with the data pattern chosen by
    {!Analysis}. *)

type ty = U8 | U16 | I32 | F32

val elem_bytes : ty -> int

(** Scalar value type. *)
type sty = Int | Flt

val sty_of_ty : ty -> sty

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr | Sar
  | Lt | Le | Gt | Ge | Eq | Ne
  | Min | Max

type amo_kind = Aadd | Aand | Aor | Axchg | Amin | Amax

type expr =
  | Int of int
  | Flt of float
  | Var of string
  | Load of string * expr                  (** arr[e] *)
  | Bin of binop * expr * expr
  | Amo of amo_kind * string * expr * expr
      (** amo(arr, idx, v): atomically updates and returns the old value *)
  | Cvt_if of expr                         (** int -> float *)
  | Cvt_fi of expr                         (** float -> int, truncating *)

type pragma = Unordered | Ordered | Atomic

type stmt =
  | Decl of string * expr            (** let x = e — block-scoped local *)
  | Assign of string * expr
  | Store of string * expr * expr    (** arr[e1] = e2 *)
  | If of expr * block * block
  | While of expr * block
  | For of for_loop
  | For_de of for_de
      (** counted loop with a data-dependent exit (runs at least once;
          continues while the condition, evaluated post-body, holds) *)

and block = stmt list

and for_loop = {
  index : string;
  lo : expr;
  hi : expr;   (** re-evaluated per iteration when the body updates it *)
  pragma : pragma option;
  body : block;
}

and for_de = {
  de_index : string;
  de_lo : expr;
  de_cond : expr;
  de_pragma : pragma option;
  de_body : block;
}

type array_decl = { a_name : string; a_ty : ty; a_len : int }

type kernel = {
  k_name : string;
  arrays : array_decl list;
  consts : (string * int) list;
      (** compile-time integer parameters, inlined before analysis *)
  k_body : block;
}

val for_ : ?pragma:pragma -> string -> expr -> expr -> block -> stmt
val for_de : ?pragma:pragma -> string -> expr -> expr -> block -> stmt

(** Infix constructors for writing kernels; open locally
    ([let open Ast.Syntax in ...]) — the operators shadow the integer
    ones. *)
module Syntax : sig
  val ( + ) : expr -> expr -> expr
  val ( - ) : expr -> expr -> expr
  val ( * ) : expr -> expr -> expr
  val ( / ) : expr -> expr -> expr
  val ( % ) : expr -> expr -> expr
  val ( < ) : expr -> expr -> expr
  val ( <= ) : expr -> expr -> expr
  val ( > ) : expr -> expr -> expr
  val ( >= ) : expr -> expr -> expr
  val ( = ) : expr -> expr -> expr
  val ( <> ) : expr -> expr -> expr
  val ( land ) : expr -> expr -> expr
  val ( lor ) : expr -> expr -> expr
  val ( lxor ) : expr -> expr -> expr
  val ( lsl ) : expr -> expr -> expr
  val ( lsr ) : expr -> expr -> expr
  val ( asr ) : expr -> expr -> expr
  val i : int -> expr
  val v : string -> expr
  val ( .%[] ) : string -> expr -> expr
  val min_ : expr -> expr -> expr
  val max_ : expr -> expr -> expr
  val for_ : ?pragma:pragma -> string -> expr -> expr -> block -> stmt
  val for_de : ?pragma:pragma -> string -> expr -> expr -> block -> stmt
end

(** {1 Printing} *)

val binop_name : binop -> string
val pp_kernel : Format.formatter -> kernel -> unit

(** {1 Transformations and helpers} *)

val subst_consts : kernel -> kernel
(** Inline the kernel's compile-time constants into the body (so
    dependence tests and strength reduction see real coefficients).
    Rejects locals that shadow a constant. *)

val expr_vars : string list -> expr -> string list
val expr_arrays : string list -> expr -> string list
val expr_equal : expr -> expr -> bool
