(* The serve engine's VCD upload before it streamed: parse the whole
   document into a trace, check its interface against the model's, then
   queue one (proposition code, input Hamming distance) pair per cycle
   from the run walk. [Engine.vcd_chunk] must queue exactly these pairs,
   or fail with exactly this error, for any upload. Kept as it was, apart
   from the run walk now handing its distance over as an int. *)

module Persist = Psm_flow.Persist
module Table = Psm_mining.Prop_trace.Table
module Sample_tracker = Psm_mining.Sample_tracker
module Vocabulary = Psm_mining.Vocabulary
module Interface = Psm_trace.Interface
module Functional_trace = Psm_trace.Functional_trace
module Reader = Psm_trace.Reader
module Vcd = Psm_trace.Vcd

let upload ~model_name (model : Persist.model) text =
  match Vcd.parse text with
  | exception Vcd.Parse_error err -> Error (Printf.sprintf "vcd: %s" (Reader.error_to_string err))
  | exception Failure msg -> Error (Printf.sprintf "vcd: %s" msg)
  | parsed ->
      let table = model.Persist.table in
      let model_iface = Vocabulary.interface (Table.vocabulary table) in
      let trace = parsed.Vcd.trace in
      if not (Interface.equal (Functional_trace.interface trace) model_iface) then
        Error
          (Printf.sprintf "vcd: interface mismatch (model %S expects different signals)"
             model_name)
      else begin
        let queue = ref [] in
        Sample_tracker.iter_runs table trace (fun ~start:_ ~len ~code ~distance ->
            for k = 0 to len - 1 do
              queue := (code, if k = 0 then float_of_int distance else 0.) :: !queue
            done);
        Ok (Array.of_list (List.rev !queue))
      end
