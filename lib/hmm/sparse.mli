(** Compressed-sparse-row square matrices backing the HMM forward
    kernel. Mined PSM transition matrices are chain-sparse, so the
    kernel iterates stored entries only. *)

type t

(** Build from a square dense matrix (entries exactly [0.] are dropped).
    @raise Invalid_argument on a ragged matrix. *)
val of_dense : float array array -> t

val nnz : t -> int

(** [scatter_product t x out] accumulates [out.(j) <- out.(j) +. x.(i) *. a.(i).(j)]
    over stored entries with [x.(i) > 0.]. Contributions reach each
    [out.(j)] in ascending-[i] order, making the result bit-identical to
    the dense product (which only adds exact [+0.] terms on top).
    [out] is not cleared first.
    @raise Invalid_argument on size mismatch. *)
val scatter_product : t -> float array -> float array -> unit

(** Column-compressed view for max-product recursions. *)
type csc

val transpose : t -> csc

(** [gather_scaled c x ~scale out ~total] overwrites [out.(j)] with
    [(Σ_i x.(i) *. a.(i).(j)) *. scale.(j)] over column [j]'s stored
    entries, the sum register-accumulated in ascending-[i] order —
    bit-identical to {!scatter_product} into a cleared buffer, without
    the clear or the per-entry load/store traffic on [out] — and
    [total.(0)] with the sum of the [out.(j)] in ascending-[j] order,
    all in one pass.
    @raise Invalid_argument on size mismatch or an empty [total]. *)
val gather_scaled :
  csc -> float array -> scale:float array -> float array -> total:float array -> unit
