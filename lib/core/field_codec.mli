(** The field codec behind {!Run_spec}'s canonical encoding and the
    service wire protocol: decimal integers with a [';'] terminator,
    length-prefixed strings and one-byte tags.  Encoding is
    deterministic, so encoded bytes can key an on-disk cache.  Decoding
    is strict: any malformation raises {!Bad}, which each message
    decoder turns into an [Error] at its boundary.

    No part of it formats through [Printf]: integers are written and
    parsed digit by digit, because spec keys encode some thirty of them
    and sit on the service's warm path. *)

val enc_int : Buffer.t -> int -> unit
(** Exactly the bytes of [string_of_int n ^ ";"], for every [int]. *)

val enc_str : Buffer.t -> string -> unit
val enc_bool : Buffer.t -> bool -> unit

val enc_int_opt : Buffer.t -> int option -> unit
(** ['n'], or ['s'] followed by the integer. *)

val output_int : out_channel -> int -> unit
val output_str : out_channel -> string -> unit
(** {!enc_int} and {!enc_str}, written into a channel. *)

val int_length : int -> int
val str_length : string -> int
(** The number of bytes {!enc_int} and {!enc_str} write. *)

exception Bad of string
(** A malformed input; the message names the fault and its byte
    offset. *)

type cursor = { s : string; mutable pos : int; mutable canonical : bool }
(** Decoding position in an input string.  [canonical] turns [false]
    once an integer spelled otherwise than {!enc_int} writes it (a
    leading zero, ["-0"]) has been decoded: the value is accepted, but
    the input bytes are then not the encoding of what they decode to. *)

val cursor : string -> cursor
(** A cursor at the start of the input. *)

val fail_at : cursor -> string -> 'a
(** Raise {!Bad} with the message and the cursor's offset. *)

val dec_char : cursor -> char
val dec_int : cursor -> int
(** An optional ['-'], one or more decimal digits and [';'], in range of
    [int]; the accepted inputs, values and error messages are those of
    [int_of_string] on the digits. *)

val dec_str : cursor -> string
val dec_bool : cursor -> bool
val dec_int_opt : cursor -> int option

val finish : cursor -> 'a -> 'a
(** [finish c v] is [v] if the whole input was consumed; otherwise it
    raises {!Bad}. *)
