(** The process-wide program cache: each registry kernel is compiled at
    most once per {!Compile.target} for the life of the process, with its
    disassembly listing and the listing's MD5.  Filled lazily on first
    use (nothing is compiled ahead of time), safe to call from any
    domain.

    Entries are shared: callers must only read them, never mutate the
    program, its layout or anything else reachable from the compiled
    value. *)

module Kernel = Xloops_kernels.Kernel
module Compile = Xloops_compiler.Compile

type entry = {
  compiled : Compile.compiled;
  listing : string;
      (** disassembly listing of [compiled.program] ([Program.to_string]),
          what program digests are taken over *)
  listing_digest : Digest.t;  (** MD5 of [listing] *)
}

val find : target:Compile.target -> Kernel.t -> entry
(** The kernel compiled for [target].  A registry kernel (physically one
    of [Registry.all]'s descriptors) is compiled on first use and the
    same entry is returned from then on, to every domain.  Any other
    kernel — including a synthetic one that reuses a registry name — is
    compiled afresh by {!compile} and never stored. *)

val compile : target:Compile.target -> Kernel.t -> entry
(** A fresh, unshared compile that neither reads nor fills the cache. *)
