(* Compressed-sparse-row square matrices for the HMM forward kernel. The
   PSM flow produces transition matrices that are chain-sparse by
   construction (the generator emits chains; simplify/join add few
   extra edges), so iterating only the stored entries matches the dense
   O(m²) row product on the small IP models and beats it by up to 16×
   on large ones (DESIGN.md §13). *)

type t = {
  m : int;
  row_ptr : int array; (* length m + 1 *)
  cols : int array; (* length nnz, ascending within each row *)
  vals : float array; (* length nnz *)
}

let of_dense a =
  let m = Array.length a in
  let row_ptr = Array.make (m + 1) 0 in
  let nnz = ref 0 in
  Array.iteri
    (fun i row ->
      if Array.length row <> m then invalid_arg "Sparse.of_dense: ragged matrix";
      Array.iter (fun v -> if v <> 0. then incr nnz) row;
      row_ptr.(i + 1) <- !nnz)
    a;
  let cols = Array.make (max !nnz 1) 0 in
  let vals = Array.make (max !nnz 1) 0. in
  let k = ref 0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          if v <> 0. then begin
            cols.(!k) <- j;
            vals.(!k) <- v;
            incr k
          end)
        row)
    a;
  { m; row_ptr; cols; vals }

let nnz t = t.row_ptr.(t.m)

(* out(j) += x(i) · A(i,j), skipping zero belief entries exactly like the
   dense loop does; contributions to each out(j) arrive in ascending-i
   order, so the floating-point sums are bit-identical to the dense
   product (the dense loop's extra terms are exact +0. additions). *)
let scatter_product t x out =
  if Array.length x <> t.m || Array.length out <> t.m then
    invalid_arg "Sparse.scatter_product: size mismatch";
  for i = 0 to t.m - 1 do
    let xi = Array.unsafe_get x i in
    if xi > 0. then begin
      let stop = Array.unsafe_get t.row_ptr (i + 1) in
      for k = Array.unsafe_get t.row_ptr i to stop - 1 do
        let j = Array.unsafe_get t.cols k in
        Array.unsafe_set out j
          (Array.unsafe_get out j +. (xi *. Array.unsafe_get t.vals k))
      done
    end
  done

(* Column-oriented view: incoming entries per column, ascending row index
   within each column — what max-product (Viterbi) iterates. *)
type csc = { col_ptr : int array; rows : int array; cvals : float array }

let transpose t =
  let m = t.m in
  let n = nnz t in
  let col_ptr = Array.make (m + 1) 0 in
  for k = 0 to n - 1 do
    let j = t.cols.(k) in
    col_ptr.(j + 1) <- col_ptr.(j + 1) + 1
  done;
  for j = 0 to m - 1 do
    col_ptr.(j + 1) <- col_ptr.(j + 1) + col_ptr.(j)
  done;
  let rows = Array.make (max n 1) 0 in
  let cvals = Array.make (max n 1) 0. in
  let cursor = Array.copy col_ptr in
  (* Row-major traversal fills each column in ascending row order. *)
  for i = 0 to m - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let j = t.cols.(k) in
      let slot = cursor.(j) in
      rows.(slot) <- i;
      cvals.(slot) <- t.vals.(k);
      cursor.(j) <- slot + 1
    done
  done;
  { col_ptr; rows; cvals }

(* out(j) <- (Σ_i x(i) · A(i,j)) · scale(j) over the stored entries of
   column [j], the sum accumulated in a register in ascending-i order —
   the same contribution order [scatter_product] produces (its zero-x
   skips only drop exact [+0.] terms), so the sums are bit-identical.
   Gathering overwrites [out] (no pre-clear) and never re-reads it, which
   is what makes it the cheaper form when one source is swept against
   many columns; the scaled values are summed in ascending-j order into
   [total.(0)] in the same pass. *)
let gather_scaled c x ~scale out ~total =
  let m = Array.length out in
  if
    Array.length x <> m
    || Array.length scale <> m
    || Array.length c.col_ptr <> m + 1
    || Array.length total = 0
  then invalid_arg "Sparse.gather_scaled: size mismatch";
  let sum = ref 0. in
  for j = 0 to m - 1 do
    let stop = Array.unsafe_get c.col_ptr (j + 1) in
    let acc = ref 0. in
    for k = Array.unsafe_get c.col_ptr j to stop - 1 do
      acc :=
        !acc
        +. (Array.unsafe_get x (Array.unsafe_get c.rows k)
           *. Array.unsafe_get c.cvals k)
    done;
    let v = !acc *. Array.unsafe_get scale j in
    Array.unsafe_set out j v;
    sum := !sum +. v
  done;
  total.(0) <- !sum
