module Bits = Psm_bits.Bits

exception Parse_error of Reader.error

let () =
  Printexc.register_printer (function
    | Parse_error e -> Some ("Csv.Parse_error: " ^ Reader.error_to_string e)
    | _ -> None)

let power_column = "power"

let header ?power iface =
  let cols =
    Interface.signals iface
    |> Array.to_list
    |> List.map (fun (s : Signal.t) ->
           Printf.sprintf "%s:%d:%s" s.name s.width
             (if Signal.is_input s then "in" else "out"))
  in
  let cols = ("time" :: cols) @ (if power = None then [] else [ power_column ]) in
  String.concat "," cols

let to_string ?power trace =
  let iface = Functional_trace.interface trace in
  (match power with
  | Some p when Power_trace.length p <> Functional_trace.length trace ->
      invalid_arg "Csv.to_string: power trace length differs from functional trace"
  | _ -> ());
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (header ?power iface);
  Buffer.add_char buf '\n';
  Functional_trace.iter
    (fun t sample ->
      Buffer.add_string buf (string_of_int t);
      Array.iter
        (fun v ->
          Buffer.add_char buf ',';
          Buffer.add_string buf (Bits.to_hex_string v))
        sample;
      (match power with
      | Some p -> Buffer.add_string buf (Printf.sprintf ",%.17g" (Power_trace.get p t))
      | None -> ());
      Buffer.add_char buf '\n')
    trace;
  Buffer.contents buf

let write_file ?power path trace =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?power trace))

type parsed = {
  trace : Functional_trace.t;
  power : Power_trace.t option;
  stats : Reader.stats;
}

let fail_at r msg = raise (Parse_error (Reader.error_at r msg))

let parse_column_title r title =
  match String.split_on_char ':' title with
  | [ name; w; dir ] -> (
      let width =
        match int_of_string_opt w with
        | Some w when w > 0 -> w
        | _ -> fail_at r ("bad width in column " ^ title)
      in
      match dir with
      | "in" -> Signal.input name width
      | "out" -> Signal.output name width
      | _ -> fail_at r ("bad direction in column " ^ title))
  | _ -> fail_at r ("bad column title " ^ title)

(* Lines are consumed one at a time: live memory is one row plus the
   trace being built. *)
let read r =
  let rec next_data_line () =
    match Reader.next_line r with
    | None -> None
    | Some line ->
        let line = String.trim line in
        if line = "" then next_data_line () else Some line
  in
  match next_data_line () with
  | None -> fail_at r "empty CSV"
  | Some header -> (
      let cols = String.split_on_char ',' header in
      match cols with
      | "time" :: rest ->
          let has_power =
            match List.rev rest with last :: _ -> last = power_column | [] -> false
          in
          let signal_cols =
            if has_power then List.filteri (fun i _ -> i < List.length rest - 1) rest
            else rest
          in
          if signal_cols = [] then fail_at r "no signal columns";
          let iface = Interface.create (List.map (parse_column_title r) signal_cols) in
          let builder = Functional_trace.Builder.create iface in
          let powers = ref [] in
          let expect = 1 + List.length rest in
          let changes = ref 0 in
          let rec rows () =
            match next_data_line () with
            | None -> ()
            | Some row ->
                let cells = String.split_on_char ',' row in
                if List.length cells <> expect then
                  fail_at r
                    (Printf.sprintf "row has %d cells, expected %d"
                       (List.length cells) expect);
                let cells = Array.of_list cells in
                let sample =
                  Array.init (Interface.arity iface) (fun i ->
                      let s = Interface.signal iface i in
                      try Bits.of_hex_string ~width:s.Signal.width cells.(i + 1)
                      with Invalid_argument m -> fail_at r m)
                in
                changes := !changes + Interface.arity iface;
                Functional_trace.Builder.append builder sample;
                if has_power then begin
                  let cell = cells.(Array.length cells - 1) in
                  match float_of_string_opt cell with
                  | Some f when Power_trace.valid_energy f ->
                      incr changes;
                      powers := f :: !powers
                  | Some _ ->
                      fail_at r
                        ("power value " ^ cell ^ " is not finite and non-negative")
                  | None -> fail_at r "bad power value"
                end;
                rows ()
          in
          rows ();
          let trace = Functional_trace.Builder.finish builder in
          let power =
            if has_power then
              Some (Power_trace.of_array (Array.of_list (List.rev !powers)))
            else None
          in
          { trace;
            power;
            stats =
              { Reader.bytes = Reader.bytes_read r;
                samples = Functional_trace.length trace;
                value_changes = !changes;
                unknowns_coerced = 0 } }
      | _ -> fail_at r "first column must be 'time'")

let parse text =
  let p = read (Reader.of_string text) in
  (p.trace, p.power)

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let p = read (Reader.of_channel ic) in
      (p.trace, p.power))
