(* The combine stage against its reference: Simplify, Join and Optimize
   must equal test/combine_oracle.ml exactly on random
   machines — including sparse, non-canonical ids, self-loops and two
   guards on one (src, dst) pair — and must stay linear: doubling the
   number of mergeable states may not quadruple the words allocated. *)

module Bits = Psm_bits.Bits
module Signal = Psm_trace.Signal
module Interface = Psm_trace.Interface
module FT = Psm_trace.Functional_trace
module PT = Psm_trace.Power_trace
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Psm = Psm_core.Psm
module Merge = Psm_core.Merge
module Simplify = Psm_core.Simplify
module Join = Psm_core.Join
module Optimize = Psm_core.Optimize
module Table = Psm_mining.Prop_trace.Table
module Oracle = Combine_oracle

let iface = Interface.create [ Signal.input "x" 3; Signal.input "y" 2; Signal.output "o" 1 ]

let table () =
  let atoms = List.init 8 (fun v -> Psm_mining.Atomic.eq_const 0 (Bits.of_int ~width:3 v)) in
  Table.create (Psm_mining.Vocabulary.create iface atoms)

(* ---------- exact comparison ---------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_attr (a : Power_attr.t) (b : Power_attr.t) =
  same_float a.mu b.mu && same_float a.sigma b.sigma && a.n = b.n && a.intervals = b.intervals

let same_output a b =
  match (a, b) with
  | Psm.Const x, Psm.Const y -> same_float x y
  | Psm.Affine a, Psm.Affine b -> same_float a.slope b.slope && same_float a.intercept b.intercept
  | _ -> false

let same_state (a : Psm.state) (b : Psm.state) =
  a.id = b.id
  && Assertion.equal a.assertion b.assertion
  && same_attr a.attr b.attr
  && same_output a.output b.output
  && List.equal
       (fun (x, ax) (y, ay) -> Assertion.equal x y && same_attr ax ay)
       a.components b.components

let same_machine a b =
  Psm.id_bound a = Psm.id_bound b
  && List.equal same_state (Psm.states a) (Psm.states b)
  && Psm.transitions a = Psm.transitions b
  && Psm.initial a = Psm.initial b

(* The redirect maps agree on every id the input has, and on ids it
   does not have (which redirect to themselves). *)
let same_map input f g =
  let outcome h id = try Ok (h id) with Invalid_argument m -> Error m in
  List.for_all
    (fun id -> outcome f id = outcome g id)
    (List.init (Psm.id_bound input + 4) (fun i -> i - 2))

let same_report (a : Optimize.report) (b : Optimize.report) =
  a.state_id = b.state_id
  && same_float a.relative_sigma b.relative_sigma
  && same_float a.correlation b.correlation
  && a.upgraded = b.upgraded

let transitions_in_tuple_order psm =
  let triples = List.map (fun (t : Psm.transition) -> (t.src, t.guard, t.dst)) (Psm.transitions psm) in
  List.sort_uniq compare triples = triples

(* ---------- random worlds ---------- *)

(* One to three training traces. Inputs repeat often, so traces have
   runs; power follows one of four levels per segment (two of them
   within ε of each other) plus, on some segments, a term in the input
   Hamming distance, so optimize finds correlated and uncorrelated
   high-σ states. Each trace is cut into segments of 1–6 instants, one
   state per segment, chained in trace order. *)
type world = {
  traces : FT.t array;
  powers : PT.t array;
  machine : Psm.t;
  config : Merge.config;
  opt : Optimize.config;
}

let levels = [| 1.0; 1.08; 1.6; 4.0 |]

let random_trace rng =
  let len = 4 + Random.State.int rng 50 in
  let prev = ref [| Bits.of_int ~width:3 0; Bits.of_int ~width:2 0; Bits.of_bool false |] in
  let samples =
    Array.init len (fun _ ->
        if Random.State.int rng 2 = 0 then !prev
        else begin
          prev :=
            [| Bits.of_int ~width:3 (Random.State.int rng 8);
               Bits.of_int ~width:2 (Random.State.int rng 4);
               Bits.of_bool (Random.State.bool rng) |];
          !prev
        end)
  in
  let ft = FT.of_samples iface samples in
  let hd = Oracle.input_hamming_series ft in
  let power = Array.make len 0. in
  let cuts = ref [] and i = ref 0 in
  while !i < len do
    let stop = min (len - 1) (!i + Random.State.int rng 6) in
    let mu = levels.(Random.State.int rng (Array.length levels)) in
    let slope = if Random.State.int rng 3 = 0 then 0.3 else 0. in
    for t = !i to stop do
      power.(t) <- mu +. (slope *. hd.(t)) +. Random.State.float rng 0.02
    done;
    cuts := (!i, stop) :: !cuts;
    i := stop + 1
  done;
  (ft, PT.of_array power, List.rev !cuts)

let random_assertion rng =
  let p = Random.State.int rng 6 and q = Random.State.int rng 6 in
  if Random.State.bool rng then Assertion.Until (p, q) else Assertion.Next (p, q)

(* The chain of one trace as (attr, assertion, entry guard) per state. *)
let chain rng ~trace power cuts =
  List.map
    (fun (start, stop) ->
      (Power_attr.of_interval power ~trace ~start ~stop, random_assertion rng, Random.State.int rng 6))
    cuts

let add_chain psm states =
  let psm, ids =
    List.fold_left
      (fun (psm, ids) (attr, assertion, _) ->
        let psm, id = Psm.add_state psm assertion attr in
        (psm, id :: ids))
      (psm, []) states
  in
  let ids = List.rev ids in
  let psm =
    let rec link psm = function
      | a :: (b :: _ as rest), _ :: ((_, _, guard) :: _ as srest) ->
          link (Psm.add_transition psm ~src:a ~guard ~dst:b) (rest, srest)
      | _ -> psm
    in
    link psm (ids, states)
  in
  (Psm.add_initial psm (List.hd ids), ids)

let pick rng l = List.nth l (Random.State.int rng (List.length l))

(* Extra edges: self-loops, a second guard on an existing pair, and
   arbitrary cross edges. *)
let add_extras rng psm =
  let ids = List.map (fun (s : Psm.state) -> s.Psm.id) (Psm.states psm) in
  let extra = Random.State.int rng 4 in
  let psm = ref psm in
  for _ = 1 to extra do
    let a = pick rng ids and b = pick rng ids and g = Random.State.int rng 6 in
    psm :=
      match Random.State.int rng 3 with
      | 0 -> Psm.add_transition !psm ~src:a ~guard:g ~dst:a
      | 1 ->
          Psm.add_transition
            (Psm.add_transition !psm ~src:a ~guard:g ~dst:b)
            ~src:a ~guard:((g + 1) mod 6) ~dst:b
      | _ -> Psm.add_transition !psm ~src:a ~guard:g ~dst:b
  done;
  !psm

(* Up to two interval-less states, as a model loaded without provenance
   has: the canonical order puts them last, by id. σ = 0 keeps them out of
   optimize's regression, which needs samples. *)
let add_bare rng psm =
  let psm = ref psm in
  for _ = 1 to Random.State.int rng 3 do
    let attr =
      { Power_attr.mu = levels.(Random.State.int rng (Array.length levels));
        sigma = 0.; n = 1 + Random.State.int rng 3; intervals = [] }
    in
    let ids = List.map (fun (s : Psm.state) -> s.Psm.id) (Psm.states !psm) in
    let p, id = Psm.add_state !psm (random_assertion rng) attr in
    psm := Psm.add_transition p ~src:(pick rng ids) ~guard:(Random.State.int rng 6) ~dst:id
  done;
  !psm

(* Merge one or two random disjoint clusters without renumbering: ids
   become sparse and new states sit past every old one. *)
let sparsify rng psm =
  let ids = Array.of_list (List.map (fun (s : Psm.state) -> s.Psm.id) (Psm.states psm)) in
  let n = Array.length ids in
  if n < 4 then psm
  else begin
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = ids.(i) in
      ids.(i) <- ids.(j);
      ids.(j) <- t
    done;
    let cluster lo len =
      let members = Array.to_list (Array.sub ids lo len) in
      let attrs = List.map (fun m -> (Psm.state psm m).Psm.attr) members in
      let attr = List.fold_left Oracle.merge (List.hd attrs) (List.tl attrs) in
      let assertion = Assertion.alt (List.map (fun m -> (Psm.state psm m).Psm.assertion) members) in
      { Psm.members; new_assertion = assertion; new_attr = attr;
        new_components = [ (assertion, attr) ] }
    in
    let clusters = if n >= 6 && Random.State.bool rng then [ cluster 0 2; cluster 2 3 ] else [ cluster 0 2 ] in
    let edges = if Random.State.bool rng then `Drop else `Self_loop in
    fst (Psm.merge_clusters psm ~internal_edges:edges clusters)
  end

let configs =
  [| Merge.default;
     { Merge.default with epsilon = 0.4 };
     { Merge.default with practical_equivalence = false };
     { Merge.default with min_n_for_test = 2 } |]

let opt_configs =
  [| Optimize.default; { Optimize.sigma_threshold = 0.01; correlation_threshold = 0.3 } |]

let random_world seed =
  let rng = Random.State.make [| seed |] in
  let table = table () in
  let ntraces = 1 + Random.State.int rng 3 in
  let built = List.init ntraces (fun _ -> random_trace rng) in
  let chains =
    List.mapi (fun trace (_, power, cuts) -> chain rng ~trace power cuts) built
  in
  let machine =
    match Random.State.int rng 3 with
    | 0 ->
        (* One machine, chains added in trace order: canonical ids. *)
        List.fold_left (fun psm c -> fst (add_chain psm c)) (Psm.empty table) chains
    | 1 ->
        (* Chains added in reverse trace order: dense, non-canonical ids. *)
        List.fold_left (fun psm c -> fst (add_chain psm c)) (Psm.empty table) (List.rev chains)
    | _ ->
        (* Disjoint union of one part per chain. *)
        Psm.union (List.map (fun c -> fst (add_chain (Psm.empty table) c)) chains)
  in
  let machine = add_bare rng machine in
  let machine = add_extras rng machine in
  let machine = if Random.State.bool rng then sparsify rng machine else machine in
  { traces = Array.of_list (List.map (fun (ft, _, _) -> ft) built);
    powers = Array.of_list (List.map (fun (_, p, _) -> p) built);
    machine;
    config = configs.(Random.State.int rng (Array.length configs));
    opt = opt_configs.(Random.State.int rng (Array.length opt_configs)) }

(* ---------- the property ---------- *)

let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt

(* States as id, ⟨μ, σ, n⟩ (floats in hex) and intervals, then the
   transitions: enough to see where two machines part. *)
let describe psm =
  let state (s : Psm.state) =
    let a = s.Psm.attr in
    Printf.sprintf "s%d %h %h %d [%s]" s.Psm.id a.mu a.sigma a.n
      (String.concat " "
         (List.map
            (fun (iv : Power_attr.interval) -> Printf.sprintf "%d:%d-%d" iv.trace iv.start iv.stop)
            a.intervals))
  in
  let edge (t : Psm.transition) = Printf.sprintf "s%d-%d->s%d" t.src t.guard t.dst in
  String.concat "\n"
    (List.map state (Psm.states psm) @ [ String.concat " " (List.map edge (Psm.transitions psm)) ])

let check_stage name input (lib, lib_map) (oracle, oracle_map) =
  if not (same_machine lib oracle) then
    fail "%s: machines differ\nlibrary:\n%s\noracle:\n%s" name (describe lib) (describe oracle);
  if not (same_map input lib_map oracle_map) then fail "%s: redirect maps differ" name;
  if not (transitions_in_tuple_order lib) then fail "%s: transitions out of order" name

let combine_equals_oracle seed =
  let w = random_world seed in
  let m = w.machine in
  let config = w.config in
  let simplified = Simplify.simplify_traced ~config m in
  check_stage "simplify" m simplified (Oracle.simplify_traced ~config m);
  check_stage "join (unsimplified)" m (Join.join_traced ~config m) (Oracle.join_traced ~config m);
  let s = fst simplified in
  let joined = Join.join_traced ~config s in
  check_stage "join" s joined (Oracle.join_traced ~config s);
  Array.iteri
    (fun i ft ->
      if not (Array.for_all2 same_float (FT.input_hamming_series ft) (Oracle.input_hamming_series ft))
      then fail "input_hamming_series differs on trace %d" i)
    w.traces;
  (* A merged interval-less state can leave a candidate without samples;
     the library must then fail exactly as the oracle does. *)
  let outcome f m = try Ok (f m) with Invalid_argument e -> Error e in
  let config = w.opt and traces = w.traces and powers = w.powers in
  List.iter
    (fun m ->
      match
        ( outcome (Optimize.optimize ~config ~traces ~powers) m,
          outcome (Oracle.optimize ~config ~traces ~powers) m )
      with
      | Ok (lib, lib_reports), Ok (oracle, oracle_reports) ->
          if not (same_machine lib oracle) then fail "optimize: machines differ";
          if not (List.equal same_report lib_reports oracle_reports) then
            fail "optimize: reports differ"
      | Error a, Error b when a = b -> ()
      | _ -> fail "optimize: outcomes differ")
    [ m; fst joined ];
  true

let test_combine_equals_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"simplify/join/optimize = oracle"
       (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000_000))
       combine_equals_oracle)

(* The property must see what it claims to cover. *)
let test_worlds_cover_shapes () =
  let sparse = ref 0 and merged = ref 0 and upgraded = ref 0 and loops = ref 0 in
  let bare = ref 0 in
  for seed = 0 to 199 do
    let w = random_world seed in
    let m = w.machine in
    if Psm.id_bound m > Psm.state_count m then incr sparse;
    if List.length (List.filter (fun (s : Psm.state) -> s.Psm.attr.Power_attr.intervals = []) (Psm.states m)) >= 2
    then incr bare;
    if List.exists (fun (t : Psm.transition) -> t.src = t.dst) (Psm.transitions m) then incr loops;
    let j = Join.join ~config:w.config (Simplify.simplify ~config:w.config m) in
    if Psm.state_count j < Psm.state_count m then incr merged;
    let _, reports = Optimize.optimize ~config:w.opt ~traces:w.traces ~powers:w.powers j in
    if List.exists (fun (r : Optimize.report) -> r.upgraded) reports then incr upgraded
  done;
  List.iter
    (fun (what, count) ->
      Alcotest.(check bool) (Printf.sprintf "%s in some worlds (%d)" what count) true (count >= 10))
    [ ("sparse ids", !sparse); ("self-loops", !loops); ("merges", !merged);
      ("two interval-less states", !bare);
      ("upgraded states", !upgraded) ]

(* A component that is one ring of mergeable states: a run must stop
   when it comes back to its head (the pass used to loop forever), and
   the merged state keeps the ring's closing edge as a self-loop. *)
let test_simplify_ring () =
  let attr i = { Power_attr.mu = 1.; sigma = 0.; n = 1; intervals = [ { trace = 0; start = i; stop = i } ] } in
  let psm =
    List.fold_left (fun psm i -> fst (Psm.add_state psm (Assertion.Until (0, 1)) (attr i))) (Psm.empty (table ()))
      [ 0; 1; 2; 3 ]
  in
  let psm =
    List.fold_left (fun psm i -> Psm.add_transition psm ~src:i ~guard:0 ~dst:((i + 1) mod 4)) psm [ 0; 1; 2; 3 ]
  in
  let simplified = Simplify.simplify psm in
  Alcotest.(check int) "one state" 1 (Psm.state_count simplified);
  (* The chain links are absorbed into the cascade; the edge closing the
     ring is not, and stays as a self-loop. *)
  let s = (List.hd (Psm.states simplified)).Psm.id in
  Alcotest.(check (list (triple int int int))) "the closing edge is a self-loop" [ (s, 0, s) ]
    (List.map (fun (t : Psm.transition) -> (t.src, t.guard, t.dst)) (Psm.transitions simplified));
  Alcotest.(check int) "every instant kept" 4 (List.hd (Psm.states simplified)).Psm.attr.Power_attr.n;
  Alcotest.(check bool) "same as the oracle" true
    (same_machine simplified (fst (Oracle.simplify_traced psm)))

(* ---------- allocation scaling ---------- *)

(* [n] states of one power level, one instant each, chained: every pair
   is mergeable, so join gathers them into one cluster and simplify into
   one run. *)
let mergeable_chain n =
  let psm = ref (Psm.empty (table ())) in
  for i = 0 to n - 1 do
    let attr =
      { Power_attr.mu = 1.; sigma = 0.; n = 1; intervals = [ { trace = 0; start = i; stop = i } ] }
    in
    let p, id = Psm.add_state !psm (Assertion.Until (0, 1)) attr in
    psm := if id > 0 then Psm.add_transition p ~src:(id - 1) ~guard:(id mod 3) ~dst:id else p
  done;
  Psm.add_initial !psm 0

let minor_words f x =
  Gc.full_major ();
  let before = Gc.minor_words () in
  let result = Sys.opaque_identity (f x) in
  let words = Gc.minor_words () -. before in
  ignore result;
  words

(* Doubling the states doubles linear work; appending each member's
   intervals to the cluster's list would quadruple it. *)
let check_scaling name f =
  let n = 2000 in
  let small = minor_words f (mergeable_chain n) in
  let large = minor_words f (mergeable_chain (2 * n)) in
  let ratio = large /. small in
  if ratio > 2.5 then
    Alcotest.failf "%s: %.0f minor words at %d states, %.0f at %d (%.2fx > 2.5x)" name small n
      large (2 * n) ratio

let test_join_scaling () =
  check_scaling "Join.join" (fun m ->
      let j = Join.join m in
      Alcotest.(check int) "one joined state" 1 (Psm.state_count j);
      j)

let test_simplify_scaling () =
  check_scaling "Simplify.simplify" (fun m ->
      let s = Simplify.simplify m in
      Alcotest.(check int) "one simplified state" 1 (Psm.state_count s);
      s)

(* ---------- the merge predicate ---------- *)

(* [Merge.mergeable] tests practical equivalence before the t-test; the
   verdict must be the oracle's, which runs them the other way round. The
   attributes cover n = 1, n below [min_n_for_test], σ = 0, equal means
   (drawn from a few levels), zero and negative means. *)
let gen_attr =
  QCheck.Gen.(
    let* n = oneofl [ 1; 1; 2; 3; 4; 5; 9; 50; 10_000 ] in
    let* mu = oneofl [ 0.; 1.; 1.; 1.05; 1.2; 2.; -1. ] in
    let* jitter = oneofl [ 0.; 0.; 1e-3; 0.05 ] in
    let* sigma = oneofl [ 0.; 0.; 0.01; 0.3 ] in
    return { Power_attr.mu = mu +. jitter; sigma = (if n = 1 then 0. else sigma); n; intervals = [] })

let gen_merge_config =
  QCheck.Gen.(
    let* epsilon = oneofl [ 0.15; 0.4; 1e-3 ] in
    let* alpha = oneofl [ 0.005; 0.05; 0.5 ] in
    let* min_n_for_test = oneofl [ 0; 2; 4; 10 ] in
    let* practical_equivalence = bool in
    return { Merge.epsilon; alpha; min_n_for_test; practical_equivalence })

let test_mergeable_equals_oracle =
  let print (c, a, b) =
    let attr (x : Power_attr.t) = Printf.sprintf "(mu %h sigma %h n %d)" x.mu x.sigma x.n in
    Printf.sprintf "eps %g alpha %g min_n %d pe %b: %s %s" c.Merge.epsilon c.alpha
      c.min_n_for_test c.practical_equivalence (attr a) (attr b)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"mergeable = oracle predicate"
       (QCheck.make ~print QCheck.Gen.(triple gen_merge_config gen_attr gen_attr))
       (fun (config, a, b) -> Merge.mergeable config a b = Oracle.mergeable config a b))

(* An invalid α or ε raises whichever way the verdict would be reached,
   including when the means are close enough that no t-test runs. *)
let test_mergeable_rejects_bad_parameters () =
  let attr mu n = { Power_attr.mu; sigma = 0.1; n; intervals = [] } in
  let pairs = [ (attr 1. 1, attr 1. 1); (attr 1. 10, attr 1.01 10); (attr 1. 10, attr 5. 1) ] in
  let raises config (a, b) =
    match Merge.mergeable config a b with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (what, config) ->
      Alcotest.(check bool) what true (List.for_all (raises config) pairs))
    [ ("alpha = 0", { Merge.default with alpha = 0. });
      ("alpha = 1", { Merge.default with alpha = 1. });
      ("alpha < 0", { Merge.default with alpha = -0.1 });
      ("alpha > 1", { Merge.default with alpha = 1.5 });
      ("epsilon = 0", { Merge.default with epsilon = 0. });
      ("epsilon < 0", { Merge.default with epsilon = -0.15 }) ]

(* ---------- one machine per call ---------- *)

(* A chain of one-instant states at the given power levels. *)
let chain_of_levels levels =
  let psm = ref (Psm.empty (table ())) in
  Array.iteri
    (fun i mu ->
      let attr =
        { Power_attr.mu; sigma = 0.; n = 1; intervals = [ { trace = 0; start = i; stop = i } ] }
      in
      let p, id = Psm.add_state !psm (Assertion.Until (0, 1)) attr in
      psm := if id > 0 then Psm.add_transition p ~src:(id - 1) ~guard:(id mod 3) ~dst:id else p)
    levels;
  Psm.add_initial !psm 0

(* Levels 3 and 9 alternate (never within ε = 0.15 of each other), then
   a tail. In [four_pass_chain] each pass merges one run: pass 1 merges
   1.1 and 1.0 (mean 1.05), which widens enough for pass 2 to take the
   0.92 before it (0.92 and 1.1 alone are 0.18 apart), pass 3 the 1.13
   and pass 4 the last 0.92 — AES's shape. [one_pass_chain] ends in the
   same 1.1, 1.0, and its second pass finds nothing. *)
let prefix n = Array.init n (fun i -> if i land 1 = 0 then 3. else 9.)
let four_pass_chain n = chain_of_levels (Array.append (prefix (n - 5)) [| 0.92; 1.13; 0.92; 1.1; 1.0 |])
let one_pass_chain n = chain_of_levels (Array.append (prefix (n - 2)) [| 1.1; 1.0 |])

let states_after_passes psm =
  List.map
    (fun k ->
      Psm.state_count
        (fst (Oracle.compose_passes ~max_passes:k (Oracle.simplify_pass Merge.default) psm)))
    [ 1; 2; 3; 4 ]

(* Rebuilding the machine after every changed pass
   ([Psm.merge_clusters], then a canonical renumbering) costs the four-pass chain
   about 3.5 times the words of the one-pass chain at 3,000 states.
   Passes over flat tables with one build per call keep it within
   [max_pass_ratio] (about 1.2). Join's fixpoint runs on the same tables
   ({!Psm_core.Chain_table}). *)
let max_pass_ratio = 1.6

let test_one_machine_per_call () =
  let n = 3000 in
  let four = four_pass_chain n and one = one_pass_chain n in
  Alcotest.(check (list int)) "four passes, one merge each" [ n - 1; n - 2; n - 3; n - 4 ]
    (states_after_passes four);
  Alcotest.(check (list int)) "one merging pass" [ n - 1; n - 1; n - 1; n - 1 ]
    (states_after_passes one);
  Alcotest.(check bool) "same machine as the oracle" true
    (same_machine (Simplify.simplify four) (fst (Oracle.simplify_traced four)));
  let words_four = minor_words (fun m -> Simplify.simplify m) four
  and words_one = minor_words (fun m -> Simplify.simplify m) one in
  if words_four /. words_one > max_pass_ratio then
    Alcotest.failf "simplify: %.0f minor words over four merging passes, %.0f over one (%.2fx > %.1fx)"
      words_four words_one (words_four /. words_one) max_pass_ratio

let suite =
  ( "combine",
    [ test_combine_equals_oracle;
      Alcotest.test_case "random worlds cover the shapes" `Quick test_worlds_cover_shapes;
      Alcotest.test_case "simplify stops on a ring" `Quick test_simplify_ring;
      Alcotest.test_case "join allocation is linear" `Quick test_join_scaling;
      Alcotest.test_case "simplify allocation is linear" `Quick test_simplify_scaling;
      Alcotest.test_case "one machine per simplify call" `Quick test_one_machine_per_call;
      test_mergeable_equals_oracle;
      Alcotest.test_case "mergeable rejects a bad alpha or epsilon" `Quick
        test_mergeable_rejects_bad_parameters ] )
