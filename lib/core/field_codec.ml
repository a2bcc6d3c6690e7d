(* Field-by-field binary codec: decimal integers with a ';' terminator,
   length-prefixed strings, one-byte tags.  Decoding is strict and
   total — any malformation raises [Bad], which each message decoder
   catches at its boundary.

   Integers are written and read here digit by digit, not through
   [string_of_int] and [int_of_string]: each of those is a [sprintf] or
   a [String.sub], and a spec key encodes some thirty integers.  The
   bytes are exactly [string_of_int n ^ ";"], and the decoder accepts
   and rejects exactly what [int_of_string] on the digits did. *)

(* The decimal digits of [-q] for [q <= 0]: working on the non-positive
   side covers [min_int], whose negation overflows. *)
let rec add_digits b q =
  if q <= -10 then add_digits b (q / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (q mod 10)))

let add_decimal b n =
  if n < 0 then begin Buffer.add_char b '-'; add_digits b n end
  else add_digits b (-n)

let enc_int b n = add_decimal b n; Buffer.add_char b ';'
let enc_str b s = enc_int b (String.length s); Buffer.add_string b s
let enc_bool b v = Buffer.add_char b (if v then 't' else 'f')

let enc_int_opt b = function
  | None -> Buffer.add_char b 'n'
  | Some v -> Buffer.add_char b 's'; enc_int b v

(* The same bytes straight into a channel, for a frame written without
   a [Buffer] in between; the lengths let its header be written first. *)
let rec output_digits oc q =
  if q <= -10 then output_digits oc (q / 10);
  output_char oc (Char.unsafe_chr (Char.code '0' - (q mod 10)))

let output_int oc n =
  if n < 0 then begin output_char oc '-'; output_digits oc n end
  else output_digits oc (-n);
  output_char oc ';'

let output_str oc s = output_int oc (String.length s); output_string oc s

let rec digits_length q = if q <= -10 then 1 + digits_length (q / 10) else 1

let int_length n = if n < 0 then 2 + digits_length n else 1 + digits_length (-n)
let str_length s = int_length (String.length s) + String.length s

exception Bad of string

type cursor = { s : string; mutable pos : int; mutable canonical : bool }

let cursor s = { s; pos = 0; canonical = true }

let fail_at c msg =
  let b = Buffer.create (String.length msg + 32) in
  Buffer.add_string b msg;
  Buffer.add_string b " at byte ";
  add_decimal b c.pos;
  raise (Bad (Buffer.contents b))

let dec_char c =
  if c.pos >= String.length c.s then fail_at c "unexpected end of input";
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

(* The value is accumulated on the non-positive side, like [add_digits],
   so [min_int] parses without overflow.  An out-of-range value is only
   reported after the terminator is checked: a missing ';' is the error
   [int_of_string] never got to see. *)
let dec_int c =
  let s = c.s and n = String.length c.s in
  let neg = c.pos < n && s.[c.pos] = '-' in
  if neg then c.pos <- c.pos + 1;
  let digits0 = c.pos in
  let acc = ref 0 and overflow = ref false in
  while c.pos < n
        && (match s.[c.pos] with '0' .. '9' -> true | _ -> false) do
    let d = Char.code s.[c.pos] - Char.code '0' in
    if !acc > min_int / 10 || (!acc = min_int / 10 && d <= - (min_int mod 10))
    then acc := (!acc * 10) - d
    else overflow := true;
    c.pos <- c.pos + 1
  done;
  if c.pos = digits0 then fail_at c "expected an integer";
  (* "007", "-0": accepted, but not what [enc_int] writes. *)
  if s.[digits0] = '0' && (neg || c.pos - digits0 > 1) then
    c.canonical <- false;
  if dec_char c <> ';' then fail_at c "expected ';' after integer";
  if !overflow || (not neg && !acc = min_int) then
    fail_at c "integer out of range";
  if neg then !acc else - !acc

let dec_str c =
  let n = dec_int c in
  if n < 0 || c.pos + n > String.length c.s then
    fail_at c "string length overruns input";
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let dec_bool c =
  match dec_char c with
  | 't' -> true
  | 'f' -> false
  | _ -> fail_at c "expected a bool tag"

let dec_int_opt c =
  match dec_char c with
  | 'n' -> None
  | 's' -> Some (dec_int c)
  | _ -> fail_at c "expected an option tag"

let finish c v =
  if c.pos <> String.length c.s then fail_at c "trailing bytes";
  v
