module Bits = Psm_bits.Bits

type comparison = Eq | Lt | Gt

type operand = Const of Bits.t | Sig of int

type t = { lhs : int; cmp : comparison; rhs : operand }

let eq_const lhs v = { lhs; cmp = Eq; rhs = Const v }

let compare_signals cmp lhs rhs =
  if lhs = rhs then invalid_arg "Atomic.compare_signals: signal compared to itself";
  { lhs; cmp; rhs = Sig rhs }

let holds cmp a b =
  match cmp with Eq -> Bits.equal a b | Lt -> Bits.ult a b | Gt -> Bits.ult b a

let eval t sample =
  holds t.cmp sample.(t.lhs) (match t.rhs with Const v -> v | Sig i -> sample.(i))

let equal a b =
  a.lhs = b.lhs && a.cmp = b.cmp
  && (match (a.rhs, b.rhs) with
     | Const x, Const y -> Bits.equal x y
     | Sig x, Sig y -> x = y
     | Const _, Sig _ | Sig _, Const _ -> false)

let compare a b =
  let rank = function Eq -> 0 | Lt -> 1 | Gt -> 2 in
  let c = Int.compare a.lhs b.lhs in
  if c <> 0 then c
  else begin
    let c = Int.compare (rank a.cmp) (rank b.cmp) in
    if c <> 0 then c
    else
      match (a.rhs, b.rhs) with
      | Const x, Const y -> Bits.compare x y
      | Sig x, Sig y -> Int.compare x y
      | Const _, Sig _ -> -1
      | Sig _, Const _ -> 1
  end

let negate t =
  match t.cmp with
  | Eq -> [ { t with cmp = Lt }; { t with cmp = Gt } ]
  | Lt -> [ { t with cmp = Eq }; { t with cmp = Gt } ]
  | Gt -> [ { t with cmp = Eq }; { t with cmp = Lt } ]

let cmp_symbol = function Eq -> "=" | Lt -> "<" | Gt -> ">"

let pp iface fmt t =
  let name i = (Psm_trace.Interface.signal iface i).Psm_trace.Signal.name in
  let rhs =
    match t.rhs with
    | Const v ->
        if Bits.width v = 1 then (if Bits.get v 0 then "1" else "0")
        else "0x" ^ Bits.to_hex_string v
    | Sig i -> name i
  in
  Format.fprintf fmt "%s %s %s" (name t.lhs) (cmp_symbol t.cmp) rhs

let to_string iface t = Format.asprintf "%a" (pp iface) t
