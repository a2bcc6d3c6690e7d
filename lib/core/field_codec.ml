(* Field-by-field binary codec: decimal integers with a ';' terminator,
   length-prefixed strings, one-byte tags.  Decoding is strict and
   total — any malformation raises [Bad], which each message decoder
   catches at its boundary. *)

let enc_int b n = Buffer.add_string b (string_of_int n); Buffer.add_char b ';'
let enc_str b s = enc_int b (String.length s); Buffer.add_string b s
let enc_bool b v = Buffer.add_char b (if v then 't' else 'f')

let enc_int_opt b = function
  | None -> Buffer.add_char b 'n'
  | Some v -> Buffer.add_char b 's'; enc_int b v

exception Bad of string

type cursor = { s : string; mutable pos : int }

let fail_at c msg = raise (Bad (Fmt.str "%s at byte %d" msg c.pos))

let dec_char c =
  if c.pos >= String.length c.s then fail_at c "unexpected end of input";
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let dec_int c =
  let start = c.pos in
  if c.pos < String.length c.s && c.s.[c.pos] = '-' then c.pos <- c.pos + 1;
  let digits0 = c.pos in
  while c.pos < String.length c.s
        && (match c.s.[c.pos] with '0' .. '9' -> true | _ -> false) do
    c.pos <- c.pos + 1
  done;
  if c.pos = digits0 then fail_at c "expected an integer";
  if dec_char c <> ';' then fail_at c "expected ';' after integer";
  match int_of_string (String.sub c.s start (c.pos - 1 - start)) with
  | n -> n
  | exception Stdlib.Failure _ -> fail_at c "integer out of range"

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
