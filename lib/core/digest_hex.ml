(* See digest_hex.mli.  Representation: the 32-char lowercase hex string
   itself, so [to_hex] is free and structural equality/hash/compare are
   the string ones. *)

type t = string

(* A direct loop, not [String.for_all] and a closure call per character:
   a client checks the digest of every [Result] frame it reads. *)
let rec all_hex s i =
  i = String.length s
  || (match String.unsafe_get s i with
      | '0' .. '9' | 'a' .. 'f' -> all_hex s (i + 1)
      | _ -> false)

let of_digest (d : Stdlib.Digest.t) = Stdlib.Digest.to_hex d

let of_hex s =
  if String.length s <> 32 then
    Error
      (Printf.sprintf "digest must be 32 hex chars, got %d" (String.length s))
  else if not (all_hex s 0) then
    Error "digest must be lowercase hex"
  else Ok s

let to_hex t = t
let short t = String.sub t 0 8
let equal = String.equal
let compare = String.compare
let hash = Hashtbl.hash
let pp ppf t = Format.pp_print_string ppf t
