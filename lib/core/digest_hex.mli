(** Abstract hex-encoded MD5 content addresses.

    Every identity in the evaluation engine — spec digests, result cache
    keys, kernel-metadata keys, journal entries — is one of these.  The
    type is abstract so raw strings can no longer masquerade as digests
    (or vice versa) anywhere inside the process; the only ways in are
    {!of_digest} (from a freshly computed [Stdlib.Digest.t]) and
    {!of_hex} (parsing, for values read off a wire or a journal line,
    which is where validation belongs). *)

type t

val of_digest : Stdlib.Digest.t -> t
(** From a raw 16-byte MD5 (the output of [Digest.string]). *)

val of_hex : string -> (t, string) result
(** Parse a 32-lowercase-hex-character string; [Error] explains what is
    wrong with anything else.  The inverse of {!to_hex}. *)

val to_hex : t -> string
(** The canonical 32-character lowercase hex spelling — the form that
    crosses process boundaries (wire frames, journal lines, file
    names). *)

val short : t -> string
(** First 8 hex digits, for diagnostics. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit
