(* Lanczos approximation, g = 7, n = 9 coefficients (Godfrey's values). *)
let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0. then invalid_arg "Special.log_gamma: requires x > 0"
  else if x < 0.5 then
    (* Reflection formula keeps the Lanczos series in its accurate range. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else begin
    let x = x -. 1. in
    let a = ref lanczos.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let beta a b = exp (log_gamma a +. log_gamma b -. log_gamma (a +. b))

(* Continued fraction for the incomplete beta function (Lentz's method). *)
let betacf a b x =
  let max_iter = 300 in
  let eps = 3e-14 in
  let fpmin = 1e-300 in
  let qab = a +. b and qap = a +. 1. and qam = a -. 1. in
  let c = ref 1. in
  let d = ref (1. -. (qab *. x /. qap)) in
  if abs_float !d < fpmin then d := fpmin;
  d := 1. /. !d;
  let h = ref !d in
  let m = ref 1 in
  let finished = ref false in
  while (not !finished) && !m <= max_iter do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    (* Even step. *)
    let aa = mf *. (b -. mf) *. x /. ((qam +. m2) *. (a +. m2)) in
    d := 1. +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    h := !h *. !d *. !c;
    (* Odd step. *)
    let aa = -.(a +. mf) *. (qab +. mf) *. x /. ((a +. m2) *. (qap +. m2)) in
    d := 1. +. (aa *. !d);
    if abs_float !d < fpmin then d := fpmin;
    c := 1. +. (aa /. !c);
    if abs_float !c < fpmin then c := fpmin;
    d := 1. /. !d;
    let del = !d *. !c in
    h := !h *. del;
    if abs_float (del -. 1.) < eps then finished := true;
    incr m
  done;
  !h

let regularized_incomplete_beta ~a ~b ~x =
  if a <= 0. || b <= 0. then invalid_arg "Special.regularized_incomplete_beta: a, b > 0";
  if x < 0. || x > 1. then invalid_arg "Special.regularized_incomplete_beta: x in [0,1]";
  if x = 0. then 0.
  else if x = 1. then 1.
  else begin
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b
        +. (a *. log x)
        +. (b *. log (1. -. x)))
    in
    (* Use the continued fraction directly where it converges fast, and the
       symmetry relation I_x(a,b) = 1 - I_{1-x}(b,a) elsewhere. *)
    if x < (a +. 1.) /. (a +. b +. 2.) then front *. betacf a b x /. a
    else 1. -. (front *. betacf b a (1. -. x) /. b)
  end

(* Regularized upper incomplete gamma Q(a, x) (Numerical Recipes' gammq):
   the series for P = 1 - Q below x = a + 1, Lentz's continued fraction
   for Q above it. *)
let regularized_gamma_q ~a ~x =
  if a <= 0. then invalid_arg "Special.regularized_gamma_q: a > 0";
  if x < 0. then invalid_arg "Special.regularized_gamma_q: x >= 0";
  if x = 0. then 1.
  else if x = infinity then 0.
  else begin
    let max_iter = 300 and eps = 3e-16 and fpmin = 1e-300 in
    let front = exp ((a *. log x) -. x -. log_gamma a) in
    if x < a +. 1. then begin
      let ap = ref a and del = ref (1. /. a) in
      let sum = ref !del and n = ref 0 in
      while abs_float !del >= abs_float !sum *. eps && !n < max_iter do
        ap := !ap +. 1.;
        del := !del *. x /. !ap;
        sum := !sum +. !del;
        incr n
      done;
      1. -. (!sum *. front)
    end
    else begin
      let b = ref (x +. 1. -. a) in
      let c = ref (1. /. fpmin) and d = ref (1. /. !b) in
      let h = ref !d and i = ref 1 and finished = ref false in
      while (not !finished) && !i <= max_iter do
        let fi = float_of_int !i in
        let an = -.fi *. (fi -. a) in
        b := !b +. 2.;
        d := (an *. !d) +. !b;
        if abs_float !d < fpmin then d := fpmin;
        c := !b +. (an /. !c);
        if abs_float !c < fpmin then c := fpmin;
        d := 1. /. !d;
        let del = !d *. !c in
        h := !h *. del;
        if abs_float (del -. 1.) < eps then finished := true;
        incr i
      done;
      front *. !h
    end
  end
