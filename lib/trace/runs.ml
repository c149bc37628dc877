(* Run-length structure of a trace: the maximal stretches of identical
   samples. Power traces are overwhelmingly run-structured (idle gaps,
   steady compute phases), and every run-aware pipeline stage — row
   interning, pair mining, Xu extension, serve-side classification —
   collapses its per-cycle work to one unit of work per run. The
   structure is descriptive only: consumers must prove (and the test
   suite pins, against its own per-cycle oracle) that their per-run
   arithmetic replicates a per-cycle walk bit-for-bit. *)

(* [starts] has one sentinel past the end: run [i] covers instants
   [starts.(i), starts.(i+1)). An empty trace is [| 0 |]. *)
type t = { starts : int array }

let count t = Array.length t.starts - 1
let total t = t.starts.(count t)

let check_run t i =
  if i < 0 || i >= count t then invalid_arg "Runs: run index out of range"

let start t i =
  check_run t i;
  t.starts.(i)

let compression t =
  if total t = 0 then 1. else float_of_int (count t) /. float_of_int (total t)

let mean_run t = if count t = 0 then 0. else float_of_int (total t) /. float_of_int (count t)

let max_run t =
  let m = ref 0 in
  for i = 0 to count t - 1 do
    let l = t.starts.(i + 1) - t.starts.(i) in
    if l > !m then m := l
  done;
  !m

let iter t f =
  for i = 0 to count t - 1 do
    f ~index:i ~start:t.starts.(i) ~len:(t.starts.(i + 1) - t.starts.(i))
  done

let of_starts ~length starts =
  let k = Array.length starts in
  if k > 0 && starts.(0) <> 0 then invalid_arg "Runs: first run must start at 0";
  if k = 0 && length <> 0 then invalid_arg "Runs: no runs over a non-empty trace";
  let starts = Array.append starts [| length |] in
  for i = 0 to k - 1 do
    if starts.(i) >= starts.(i + 1) then invalid_arg "Runs: starts not increasing"
  done;
  { starts }

let scan ~equal n =
  if n < 0 then invalid_arg "Runs.scan: negative length";
  let rev = ref [] in
  for i = 0 to n - 1 do
    if i = 0 || not (equal (i - 1) i) then rev := i :: !rev
  done;
  of_starts ~length:n (Array.of_list (List.rev !rev))

(* Run-length histogram in power-of-two buckets: entry (b, c) counts the
   [c] runs whose length lies in [2^b, 2^(b+1)). *)
let histogram t =
  let buckets = Hashtbl.create 8 in
  for i = 0 to count t - 1 do
    let l = t.starts.(i + 1) - t.starts.(i) in
    let b = ref 0 in
    while l lsr (!b + 1) > 0 do
      incr b
    done;
    Hashtbl.replace buckets !b
      (1 + Option.value ~default:0 (Hashtbl.find_opt buckets !b))
  done;
  Hashtbl.fold (fun b c acc -> (b, c) :: acc) buckets [] |> List.sort compare

let pp fmt t =
  Format.fprintf fmt "%d runs over %d instants (%.4f runs/cycle, mean run %.1f, max %d)"
    (count t) (total t) (compression t) (mean_run t) (max_run t)
