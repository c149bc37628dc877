type t = {
  signals : Signal.t array;
  by_name : (string, int) Hashtbl.t;
}

let create sigs =
  if sigs = [] then invalid_arg "Interface.create: empty signal list";
  let signals = Array.of_list sigs in
  let by_name = Hashtbl.create (Array.length signals) in
  (* One hash per name; a table shorter than the list has a duplicate,
     found again for the message. *)
  Array.iteri (fun i (s : Signal.t) -> Hashtbl.replace by_name s.name i) signals;
  if Hashtbl.length by_name < Array.length signals then begin
    let seen = Hashtbl.create (Array.length signals) in
    Array.iter
      (fun (s : Signal.t) ->
        if Hashtbl.mem seen s.name then
          invalid_arg ("Interface.create: duplicate signal name " ^ s.name);
        Hashtbl.add seen s.name ())
      signals
  end;
  { signals; by_name }

let signals t = Array.copy t.signals
let arity t = Array.length t.signals

let index t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None -> raise Not_found

let signal t i = t.signals.(i)

let filtered p t =
  t.signals
  |> Array.to_list
  |> List.mapi (fun i s -> (i, s))
  |> List.filter (fun (_, s) -> p s)

let inputs t = filtered Signal.is_input t
let outputs t = filtered Signal.is_output t

let total_width p t =
  List.fold_left (fun acc (_, (s : Signal.t)) -> acc + s.width) 0 (filtered p t)

let total_input_width t = total_width Signal.is_input t
let total_output_width t = total_width Signal.is_output t

let equal a b =
  Array.length a.signals = Array.length b.signals
  && Array.for_all2 Signal.equal a.signals b.signals

let pp fmt t =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_array ~pp_sep:Format.pp_print_cut Signal.pp)
    t.signals
