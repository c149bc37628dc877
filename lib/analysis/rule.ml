module Table = Psm_mining.Prop_trace.Table

type context = {
  psm : Psm_core.Psm.t;
  hmm : Psm_hmm.Hmm.t option;
  gammas : Psm_mining.Prop_trace.t array option;
  powers : Psm_trace.Power_trace.t array option;
  epsilon : float;
  scan : Scan.t;
}

(* The scan is built eagerly, once per context; every rule reads it. *)
let context ?hmm ?gammas ?powers ?(epsilon = 1e-6) psm =
  { psm; hmm; gammas; powers; epsilon; scan = Scan.create ?powers psm }

type t = {
  name : string;
  description : string;
  check : context -> Finding.t list;
}

let prop_name ctx p =
  let table = Psm_core.Psm.prop_table ctx.psm in
  if p >= 0 && p < Table.prop_count table then Table.name table p
  else Printf.sprintf "p%d?" p

let prop_describe ctx p =
  let table = Psm_core.Psm.prop_table ctx.psm in
  if p >= 0 && p < Table.prop_count table then
    Format.asprintf "%a" (Table.pp_prop table) p
  else Printf.sprintf "p%d? (not in the prop table)" p
