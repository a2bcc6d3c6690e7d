(** Deterministic synthetic datasets (stand-ins for the paper's
    MiBench/PolyBench/PBBS inputs, sized for a 16 KB L1): a seeded LCG so
    runs reproduce bit-for-bit, plus array and graph generators. *)

type rng

val rng : int -> rng
val next : rng -> int
val int : rng -> int -> int
(** Uniform in [\[0, bound)]. *)

val range : rng -> int -> int -> int
(** Uniform in [\[lo, hi\]]. *)

val ints : seed:int -> n:int -> bound:int -> int array
val bytes : seed:int -> n:int -> int array
val floats : seed:int -> n:int -> scale:float -> float array

val graph_csr : seed:int -> nodes:int -> avg_degree:int ->
  int array * int array
(** Random sparse digraph in CSR form: (row_start of length nodes+1,
    flattened edges).  Every node above 0 receives an edge from a
    lower-numbered node, so the graph is connected from node 0. *)
