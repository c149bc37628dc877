let log_src = Logs.Src.create "psm.stream" ~doc:"Streaming incremental training"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Interface = Psm_trace.Interface
module Vcd = Psm_trace.Vcd
module Reader = Psm_trace.Reader
module Functional_trace = Psm_trace.Functional_trace
module Bits = Psm_bits.Bits
module Miner = Psm_mining.Miner
module Table = Psm_mining.Prop_trace.Table
module Xu = Psm_core.Xu
module Psm = Psm_core.Psm
module Assertion = Psm_core.Assertion
module Power_attr = Psm_core.Power_attr
module Merge = Psm_core.Merge
module Join = Psm_core.Join
module Optimize = Psm_core.Optimize
module Regression = Psm_stats.Regression
module Hmm = Psm_hmm.Hmm
module Analyzer = Psm_analysis.Analyzer

(* ---------- result ---------- *)

type result = {
  config : Flow.config;
  table : Table.t;
  optimized : Psm.t;
  optimize_reports : Optimize.report list;
  hmm : Hmm.t;
  transition_counts : ((int * int) * float) list;
  emission_counts : ((int * int) * float) list;
  analysis : Psm_analysis.Finding.t list;
  timings : Flow.timings;
  cycles : int;
  traces_seen : int;
  compactions : int;
}

(* ---------- growable slices with an absolute base index ---------- *)

(* The open-region buffers (power, input-Hamming, proposition per
   instant) are indexed by absolute trace time but only ever cover
   [base .. base+len), i.e. the instants from the start of the oldest
   unreleased Xu run to the present; [drop_to] reclaims the prefix when
   a triplet is released, so the live size is bounded by the run length,
   not the trace length. *)
module Fbuf = struct
  type t = { mutable data : float array; mutable base : int; mutable len : int }

  let create () = { data = Array.make 64 0.; base = 0; len = 0 }

  let push b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0. in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let get b i = b.data.(i - b.base)

  let drop_to b new_base =
    let shift = new_base - b.base in
    if shift > 0 then begin
      let remaining = b.len - shift in
      if remaining > 0 then Array.blit b.data shift b.data 0 remaining;
      b.len <- max remaining 0;
      b.base <- new_base
    end

  let reset b =
    b.base <- 0;
    b.len <- 0
end

module Ibuf = struct
  type t = { mutable data : int array; mutable base : int; mutable len : int }

  let create () = { data = Array.make 64 0; base = 0; len = 0 }

  let push b x =
    if b.len = Array.length b.data then begin
      let bigger = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 bigger 0 b.len;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let get b i = b.data.(i - b.base)

  let drop_to b new_base =
    let shift = new_base - b.base in
    if shift > 0 then begin
      let remaining = b.len - shift in
      if remaining > 0 then Array.blit b.data shift b.data 0 remaining;
      b.len <- max remaining 0;
      b.base <- new_base
    end

  let reset b =
    b.base <- 0;
    b.len <- 0
end

(* ---------- segments ---------- *)

(* Regression sufficient statistics ⟨n, Σx, Σy, Σx², Σy², Σxy⟩ of
   (input Hamming distance, power) over a segment's instants. *)
type sums = { sn : int; sx : float; sy : float; sxx : float; syy : float; sxy : float }

let zero_sums = { sn = 0; sx = 0.; sy = 0.; sxx = 0.; syy = 0.; sxy = 0. }

let add_sums a b =
  { sn = a.sn + b.sn;
    sx = a.sx +. b.sx;
    sy = a.sy +. b.sy;
    sxx = a.sxx +. b.sxx;
    syy = a.syy +. b.syy;
    sxy = a.sxy +. b.sxy }

(* One (possibly merged) state of the in-flight simplified machine.
   [entry] is the guard proposition of the chain edge entering the
   segment — the entry proposition of its first raw triplet; [skey] is
   the (trace, start) of that triplet, the canonical-order key (kept
   explicit so it survives [`Counts] provenance, which drops the
   interval lists). An open run's intervals wait in [parts], newest
   member first, and [attr] holds its ⟨μ, σ, n⟩ only; [close] joins
   them once the run is committed. [members] counts the raw segments
   merged into this one, consecutive in one trace: [members - 1] chain
   edges run inside it. *)
type seg = {
  members : int;
  strace : int;
  skey : int * int;
  assertion : Assertion.t;
  attr : Power_attr.t;
  parts : Power_attr.interval list list; (* [] once closed *)
  entry : int;
  sums : sums;
  emissions : (int, float) Hashtbl.t; (* proposition id -> instants *)
}

(* ---------- the simplify level pipeline ---------- *)

(* Level k replays pass k+1 of the batch simplify iteration: a greedy
   run of adjacent mergeable segments, exactly as [Simplify.pass] walks
   a chain. There are exactly [Simplify.max_simplify_passes] levels —
   the same bound the batch path runs — each holding one open run.
   Every commit of level k arrives at level k+1 in canonical order; a
   commit leaving the last level is final and is absorbed straight into
   the join clusters. Identity passes cost nothing extra (a run that
   never merges passes each segment through verbatim), so a machine
   that converges in fewer passes emerges unchanged from the rest of
   the cascade, exactly as the batch early-stop does. *)
type level = { mutable run : seg option }

(* ---------- the join pass-1 absorber ---------- *)

(* Open first-fit clusters, exactly [Join.pass]'s accumulator state:
   any final simplified segment lands in the first cluster whose
   evolving merged attributes it is statistically compatible with, or
   opens a new one. Clusters never close, but there are only O(model)
   of them — this is where a cyclic workload's unbounded stream of
   simplified segments collapses to constant live memory. *)
type cluster = {
  mutable members : int;
  mutable cattr : Power_attr.t; (* ⟨μ, σ, n⟩; intervals in [cparts] *)
  mutable cparts : Power_attr.interval list list; (* reverse order *)
  mutable components : (Assertion.t * Power_attr.t) list; (* reverse order *)
  mutable csums : sums;
  cemissions : (int, float) Hashtbl.t;
  first_key : int * int; (* (trace, start) of the first member's first interval *)
}

type cluster_vec = { mutable items : cluster array; mutable cn : int }

let cluster_vec () = { items = [||]; cn = 0 }

let cluster_push v c =
  if v.cn = Array.length v.items then begin
    let bigger = Array.make (max 8 (2 * v.cn)) c in
    Array.blit v.items 0 bigger 0 v.cn;
    v.items <- bigger
  end;
  v.items.(v.cn) <- c;
  v.cn <- v.cn + 1

(* ---------- trainer ---------- *)

type triplet = { pat : Xu.pattern; tstart : int; tstop : int }

and phase = Mining | Training

(* Everything the trainer accumulates, kept free of closures and of the
   config so a checkpoint is one [Marshal] of this record. The table is
   a parameter: a checkpoint holds it as [Table.saved], whose layout
   stays put whatever the live table's index looks like. *)
type 'table core_of = {
  iface : Interface.t;
  provenance : [ `Full | `Counts ];
  miner : Miner.Incremental.t;
  (* Mining-phase run coalescer: the open run of equal samples, handed
     to [observe_run] once a different sample or the trace end closes
     it. A run left open across a checkpoint simply continues. *)
  mutable rsample : Bits.t array option;
  mutable rlen : int;
  mutable table : 'table option;
  mutable phase : phase;
  mutable cycles : int; (* training-phase samples *)
  mutable traces_done : int; (* completed training traces *)
  input_idx : int list;
  (* per-trace scratch *)
  mutable cur_trace : int;
  mutable cur_len : int;
  mutable prev_inputs : Bits.t array option;
  mutable xu_in_until : bool;
  mutable run_start : int;
  mutable prev_prop : int;
  buf_power : Fbuf.t;
  buf_ham : Fbuf.t;
  buf_prop : Ibuf.t;
  mutable held_triplet : triplet option;
  (* downstream pipeline *)
  levels : level array; (* Simplify.max_simplify_passes static levels *)
  clusters : cluster_vec;
  mutable last_absorbed : (int * int) option; (* trace, cluster index *)
  cedges : (int * int * int, unit) Hashtbl.t; (* cluster, guard, cluster *)
  counts : (int * int, float) Hashtbl.t; (* cluster pair -> raw chain-edge occurrences *)
  mutable cinitials : int list; (* reverse order, one cluster per trace *)
  (* coarse stage timings *)
  mutable mine_s : float;
}

type core = Table.t core_of

type trainer = { config : Flow.config; core : core }

let create_core ~config ~provenance iface =
  { iface;
    provenance;
    miner = Miner.Incremental.create ~config:config.Flow.miner iface;
    rsample = None;
    rlen = 0;
    table = None;
    phase = Mining;
    cycles = 0;
    traces_done = 0;
    input_idx = List.map fst (Interface.inputs iface);
    cur_trace = 0;
    cur_len = 0;
    prev_inputs = None;
    xu_in_until = false;
    run_start = 0;
    prev_prop = -1;
    buf_power = Fbuf.create ();
    buf_ham = Fbuf.create ();
    buf_prop = Ibuf.create ();
    held_triplet = None;
    levels =
      Array.init Psm_core.Simplify.max_simplify_passes (fun _ -> { run = None });
    clusters = cluster_vec ();
    last_absorbed = None;
    cedges = Hashtbl.create 64;
    counts = Hashtbl.create 64;
    cinitials = [];
    mine_s = 0. }

let bump table key by =
  Hashtbl.replace table key (by +. Option.value ~default:0. (Hashtbl.find_opt table key))

(* A segment's interval lists as [Power_attr.concat_rev] parts. Empty
   lists ([`Counts] provenance) are left out, so a run's [parts] stays
   empty and costs nothing there. *)
let cons_intervals (attr : Power_attr.t) parts =
  match attr.Power_attr.intervals with [] -> parts | l -> l :: parts

let seg_parts s = if s.parts = [] then cons_intervals s.attr [] else s.parts

let close s =
  if s.parts = [] then s
  else
    { s with
      attr = { s.attr with Power_attr.intervals = Power_attr.concat_rev s.parts };
      parts = [] }

(* Merge two adjacent segments, replicating one step of the batch pass's
   [extend]: Chan-merged attributes (left fold), flattened Seq
   assertion, the first member's entry proposition. [b] is closed; the
   run keeps its members' intervals in [parts] until it is committed.
   The accumulator's emissions table is exclusively owned by the run,
   so it is extended in place. *)
let merge_seg a b =
  Hashtbl.iter (fun p c -> bump a.emissions p c) b.emissions;
  { members = a.members + b.members;
    strace = a.strace;
    skey = a.skey;
    assertion = Assertion.seq [ a.assertion; b.assertion ];
    attr = Power_attr.merge_stats a.attr b.attr;
    parts = cons_intervals b.attr (seg_parts a);
    entry = a.entry;
    sums = add_sums a.sums b.sums;
    emissions = a.emissions }

(* Record one member's (assertion, attr) on a cluster. [`Full] keeps
   every member, matching the batch machine verbatim; [`Counts] folds
   members with equal assertions together so the component list is
   bounded by the number of distinct behaviors, not occurrences. *)
let add_component core c assertion attr =
  match core.provenance with
  | `Full -> c.components <- (assertion, attr) :: c.components
  | `Counts ->
      let rec fold = function
        | [] -> (assertion, attr) :: c.components
        | (a, _existing) :: _ when Assertion.equal a assertion ->
            List.map
              (fun (a', x) ->
                if Assertion.equal a' assertion then (a', Power_attr.merge x attr)
                else (a', x))
              c.components
        | _ :: rest -> fold rest
      in
      c.components <- fold c.components

(* Join pass-1 absorption of one final simplified segment (canonical
   order is the arrival order). Also accumulates the pass-1 output
   machine's transitions and initial states: the chain edge into this
   segment connects the clusters of two consecutive commits of the same
   trace, guarded by this segment's entry proposition. The raw chain
   edges are counted here too: the segment's [members - 1] inner edges
   stay in its cluster, and the edge into it is that chain edge. *)
let absorb config core (seg : seg) =
  let v = core.clusters in
  let rec place i =
    if i >= v.cn then begin
      let c =
        { members = 1;
          cattr = seg.attr;
          cparts = cons_intervals seg.attr [];
          components = [ (seg.assertion, seg.attr) ];
          csums = seg.sums;
          cemissions = Hashtbl.copy seg.emissions;
          first_key = seg.skey }
      in
      cluster_push v c;
      v.cn - 1
    end
    else begin
      let c = v.items.(i) in
      if Merge.mergeable config c.cattr seg.attr then begin
        c.members <- c.members + 1;
        c.cattr <- Power_attr.merge_stats c.cattr seg.attr;
        c.cparts <- cons_intervals seg.attr c.cparts;
        add_component core c seg.assertion seg.attr;
        c.csums <- add_sums c.csums seg.sums;
        Hashtbl.iter (bump c.cemissions) seg.emissions;
        i
      end
      else place (i + 1)
    end
  in
  let ci = place 0 in
  if seg.members > 1 then bump core.counts (ci, ci) (float_of_int (seg.members - 1));
  (match core.last_absorbed with
  | Some (tr, prev_ci) when tr = seg.strace ->
      Hashtbl.replace core.cedges (prev_ci, seg.entry, ci) ();
      bump core.counts (prev_ci, ci) 1.
  | _ -> core.cinitials <- ci :: core.cinitials);
  core.last_absorbed <- Some (seg.strace, ci)

let rec feed config core i seg =
  let seg = close seg in
  if i >= Array.length core.levels then absorb config core seg
  else
    let lvl = core.levels.(i) in
    match lvl.run with
    | None -> lvl.run <- Some seg
    | Some acc ->
        if acc.strace = seg.strace && Merge.mergeable config acc.attr seg.attr then
          lvl.run <- Some (merge_seg acc seg)
        else begin
          lvl.run <- Some seg;
          feed config core (i + 1) acc
        end

let feed_pipeline config core seg = feed config core 0 seg

(* ---------- releasing triplets as raw segments ---------- *)

let mean_var_slice buf ~start ~stop =
  (* Replicates Descriptive.mean_slice / variance_slice arithmetic so
     the attributes are bit-identical to Power_attr.of_interval. *)
  let n = stop - start + 1 in
  let acc = ref 0. in
  for i = start to stop do
    acc := !acc +. Fbuf.get buf i
  done;
  let mu = !acc /. float_of_int n in
  if n < 2 then (mu, 0.)
  else begin
    let dev = ref 0. in
    for i = start to stop do
      let d = Fbuf.get buf i -. mu in
      dev := !dev +. (d *. d)
    done;
    (mu, sqrt (!dev /. float_of_int (n - 1)))
  end

(* A released triplet is a raw segment, fed straight into the cascade. *)
let release_triplet config core { pat; tstart; tstop } =
  let mu, sigma = mean_var_slice core.buf_power ~start:tstart ~stop:tstop in
  let intervals =
    match core.provenance with
    | `Full -> [ { Power_attr.trace = core.cur_trace; start = tstart; stop = tstop } ]
    | `Counts -> []
  in
  let attr = { Power_attr.mu; sigma; n = tstop - tstart + 1; intervals } in
  let assertion, entry =
    match pat with
    | Xu.Until (p, q) -> (Assertion.Until (p, q), p)
    | Xu.Next (p, q) -> (Assertion.Next (p, q), p)
  in
  let sums = ref zero_sums in
  let emissions = Hashtbl.create 4 in
  for i = tstart to tstop do
    let x = Fbuf.get core.buf_ham i and y = Fbuf.get core.buf_power i in
    sums :=
      { sn = !sums.sn + 1;
        sx = !sums.sx +. x;
        sy = !sums.sy +. y;
        sxx = !sums.sxx +. (x *. x);
        syy = !sums.syy +. (y *. y);
        sxy = !sums.sxy +. (x *. y) };
    bump emissions (Ibuf.get core.buf_prop i) 1.
  done;
  feed_pipeline config core
    { members = 1;
      strace = core.cur_trace;
      skey = (core.cur_trace, tstart);
      assertion;
      attr;
      parts = [];
      entry;
      sums = !sums;
      emissions };
  Fbuf.drop_to core.buf_power (tstop + 1);
  Fbuf.drop_to core.buf_ham (tstop + 1);
  Ibuf.drop_to core.buf_prop (tstop + 1)

(* A newly recognized triplet displaces the held-back previous one; the
   hold-back exists because the trace's *last* triplet may still be
   extended by the end-of-trace attribution. *)
let emit_triplet config core pat tstart tstop =
  Psm_obs.span "stream.extend" @@ fun () ->
  (match core.held_triplet with
  | Some t -> release_triplet config core t
  | None -> ());
  core.held_triplet <- Some { pat; tstart; tstop }

(* ---------- push / end_trace ---------- *)

let push_training trainer sample ~power =
  let core = trainer.core in
  let table =
    match core.table with Some t -> t | None -> assert false
  in
  let t = core.cur_len in
  (* Classification memo: a sample equal to the previous one has the same
     truth row (hence the same proposition, with no interning to do) and
     an input Hamming distance of exactly 0 — the dominant self-loop
     cycles of an idle-heavy trace skip the classify and the copy. *)
  let memo_hit =
    match core.prev_inputs with
    | Some prev -> Functional_trace.same_sample prev sample
    | None -> false
  in
  let prop = if memo_hit then core.prev_prop else Table.classify_or_add table sample in
  let ham =
    match core.prev_inputs with
    | None -> 0.
    | Some _ when memo_hit -> 0.
    | Some prev -> float_of_int (Functional_trace.input_hamming core.input_idx sample prev)
  in
  Fbuf.push core.buf_power power;
  Fbuf.push core.buf_ham ham;
  Ibuf.push core.buf_prop prop;
  if t = 0 then begin
    core.xu_in_until <- false;
    core.run_start <- 0
  end
  else if prop = core.prev_prop then begin
    (* Same proposition entered the FIFO: the X state upgrades to U. *)
    if not core.xu_in_until then core.xu_in_until <- true
  end
  else begin
    let pat =
      if core.xu_in_until then Xu.Until (core.prev_prop, prop)
      else Xu.Next (core.prev_prop, prop)
    in
    emit_triplet trainer.config.Flow.merge core pat core.run_start (t - 1);
    core.xu_in_until <- false;
    core.run_start <- t
  end;
  core.prev_prop <- prop;
  if not memo_hit then core.prev_inputs <- Some (Array.copy sample);
  core.cur_len <- t + 1;
  core.cycles <- core.cycles + 1

let flush_mine_rle core =
  match core.rsample with
  | None -> ()
  | Some s ->
      Miner.Incremental.observe_run core.miner s core.rlen;
      core.rsample <- None;
      core.rlen <- 0

let push trainer sample ~power =
  let core = trainer.core in
  if Array.length sample <> Interface.arity core.iface then
    invalid_arg "Stream_train.push: sample arity mismatch";
  match core.phase with
  | Mining -> (
      match core.rsample with
      | Some s when Functional_trace.same_sample s sample -> core.rlen <- core.rlen + 1
      | _ ->
          flush_mine_rle core;
          core.rsample <- Some (Array.copy sample);
          core.rlen <- 1)
  | Training -> push_training trainer sample ~power

let end_trace_training trainer =
  let core = trainer.core in
  let release = release_triplet trainer.config.Flow.merge core in
  let len = core.cur_len in
  if len = 0 then invalid_arg "Stream_train.end_trace: empty trace";
  (* End-of-trace attribution, mirroring Generator.generate: a trailing
     run of a single instant folds into the last triplet's interval; a
     longer one becomes its own absorbing Until(p, p) segment; a trace
     that never produced a triplet is one absorbing segment. *)
  (match core.held_triplet with
  | None ->
      let p = Ibuf.get core.buf_prop 0 in
      release { pat = Xu.Until (p, p); tstart = 0; tstop = len - 1 }
  | Some held ->
      let tail_start = held.tstop + 1 in
      if len - 1 = tail_start then release { held with tstop = len - 1 }
      else begin
        release held;
        let p = Ibuf.get core.buf_prop tail_start in
        release { pat = Xu.Until (p, p); tstart = tail_start; tstop = len - 1 }
      end);
  core.held_triplet <- None;
  core.cur_len <- 0;
  core.prev_inputs <- None;
  Fbuf.reset core.buf_power;
  Fbuf.reset core.buf_ham;
  Ibuf.reset core.buf_prop;
  core.cur_trace <- core.cur_trace + 1;
  core.traces_done <- core.traces_done + 1

let end_trace trainer =
  let core = trainer.core in
  match core.phase with
  | Mining ->
      flush_mine_rle core;
      Miner.Incremental.end_trace core.miner;
      core.traces_done <- core.traces_done + 1
  | Training -> end_trace_training trainer

let finish_mining trainer =
  let core = trainer.core in
  (match core.phase with
  | Training -> invalid_arg "Stream_train.finish_mining: already training"
  | Mining -> ());
  flush_mine_rle core;
  let t0 = Unix.gettimeofday () in
  let vocabulary =
    Psm_obs.span "stream.mine" @@ fun () -> Miner.Incremental.vocabulary core.miner
  in
  core.table <- Some (Table.create vocabulary);
  core.phase <- Training;
  core.traces_done <- 0;
  core.mine_s <- core.mine_s +. (Unix.gettimeofday () -. t0);
  Log.info (fun m ->
      m "stream mining: %d atoms over %d samples"
        (Psm_mining.Vocabulary.size vocabulary)
        (Miner.Incremental.total core.miner))

(* ---------- finalization ---------- *)

let close_pipeline (config : Merge.config) core =
  (* Close every level's open run in pass order: level i's final run
     enters level i+1 before i+1's own run closes, exactly as pass i+1
     sees pass i's complete output. *)
  Array.iteri
    (fun i lvl ->
      match lvl.run with
      | Some acc ->
          lvl.run <- None;
          feed config core (i + 1) acc
      | None -> ())
    core.levels

let finish trainer =
  let core = trainer.core in
  let config = trainer.config in
  (match core.phase with
  | Mining -> invalid_arg "Stream_train.finish: still mining (call finish_mining)"
  | Training -> ());
  if core.cur_len > 0 then end_trace_training trainer;
  if core.traces_done = 0 then invalid_arg "Stream_train.finish: no training traces";
  let table = match core.table with Some t -> t | None -> assert false in
  let t0 = Unix.gettimeofday () in
  close_pipeline config.Flow.merge core;
  let t1 = Unix.gettimeofday () in
  let optimized, optimize_reports, hmm, transition_counts, emission_counts =
    Psm_obs.span "stream.finalize" @@ fun () ->
    (* The absorber now holds the join pass-1 clustering of the final
       simplified machine. Materialize that pass's output machine in
       canonical (trace, start) order — Join's first pass would produce
       exactly this — and let the batch join fixpoint take over:
       iterating the same pass function from the pass-1 output IS the
       rest of the fixpoint. *)
    let v = core.clusters in
    let order = Array.init v.cn (fun i -> i) in
    Array.sort (fun a b -> compare v.items.(a).first_key v.items.(b).first_key) order;
    let id_of = Array.make v.cn 0 in
    Array.iteri (fun pos i -> id_of.(i) <- pos) order;
    let states =
      Array.mapi
        (fun id i ->
          let c = v.items.(i) in
          let components = List.rev c.components in
          let assertion =
            if c.members >= 2 then Assertion.alt (List.map fst components)
            else fst (List.hd components)
          in
          { Psm.id;
            assertion;
            attr = { c.cattr with Power_attr.intervals = Power_attr.concat_rev c.cparts };
            output = Psm.Const c.cattr.Power_attr.mu;
            components })
        order
    in
    let transitions =
      Hashtbl.fold
        (fun (ci, guard, cj) () acc -> { Psm.src = id_of.(ci); guard; dst = id_of.(cj) } :: acc)
        core.cedges []
    in
    let machine =
      Psm.of_states table states ~transitions
        ~initial:(List.rev_map (fun ci -> id_of.(ci)) core.cinitials)
    in
    let joined, jmap = Join.join_traced ~config:config.Flow.merge machine in
    let final_of_cluster = Array.map (fun i -> jmap id_of.(i)) (Array.init v.cn Fun.id) in
    (* Optimization from the streamed sufficient statistics: same
       decisions as Optimize.optimize, with the Pearson r and the fit
       computed from ⟨n, Σx, Σy, Σx², Σy², Σxy⟩. *)
    let fsums = Hashtbl.create 32 and femissions = Hashtbl.create 64 in
    for i = 0 to v.cn - 1 do
      let c = v.items.(i) and fid = final_of_cluster.(i) in
      Hashtbl.replace fsums fid
        (add_sums (Option.value ~default:zero_sums (Hashtbl.find_opt fsums fid)) c.csums);
      Hashtbl.iter (fun p cnt -> bump femissions (fid, p) cnt) c.cemissions
    done;
    let opt_config = config.Flow.optimize in
    let optimized, reports =
      List.fold_left
        (fun (psm, reports) (s : Psm.state) ->
          let rel = Power_attr.relative_sigma s.Psm.attr in
          if rel <= opt_config.Optimize.sigma_threshold || s.Psm.attr.Power_attr.n < 3
          then (psm, reports)
          else begin
            let { sn; sx; sy; sxx; syy; sxy } =
              Option.value ~default:zero_sums (Hashtbl.find_opt fsums s.Psm.id)
            in
            let r = Regression.pearson_of_sums ~n:sn ~sx ~sy ~sxx ~syy ~sxy in
            if abs_float r >= opt_config.Optimize.correlation_threshold then begin
              let fit = Regression.fit_of_sums ~n:sn ~sx ~sy ~sxx ~syy ~sxy in
              let psm =
                Psm.set_output psm s.Psm.id
                  (Psm.Affine
                     { slope = fit.Regression.slope; intercept = fit.Regression.intercept })
              in
              ( psm,
                { Optimize.state_id = s.Psm.id;
                  relative_sigma = rel;
                  correlation = r;
                  upgraded = true }
                :: reports )
            end
            else
              ( psm,
                { Optimize.state_id = s.Psm.id;
                  relative_sigma = rel;
                  correlation = r;
                  upgraded = false }
                :: reports )
          end)
        (joined, []) (Psm.states joined)
    in
    let reports = List.rev reports in
    (* Raw chain-edge occurrences onto the final machine. *)
    let final_counts = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (a, b) cnt -> bump final_counts (final_of_cluster.(a), final_of_cluster.(b)) cnt)
      core.counts;
    let transition_counts =
      List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) final_counts [])
    in
    let emission_counts =
      List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) femissions [])
    in
    let hmm = Hmm.build ~transition_counts ~emission_counts optimized in
    (optimized, reports, hmm, transition_counts, emission_counts)
  in
  let t2 = Unix.gettimeofday () in
  (* No stored training traces in streaming mode: the analyzer runs with
     the model-only context (Γ/power-dependent rules are skipped). *)
  let analysis =
    Psm_obs.span "stream.analyze" @@ fun () ->
    Analyzer.analyze ~config:config.Flow.analysis ~hmm optimized
  in
  let t3 = Unix.gettimeofday () in
  Psm_obs.count "stream.cycles" core.cycles;
  Psm_obs.gc_snapshot "train_stream";
  Log.info (fun m ->
      m "stream training: %d cycles over %d traces -> %d states" core.cycles
        core.traces_done (Psm.state_count optimized));
  { config;
    table;
    optimized;
    optimize_reports;
    hmm;
    transition_counts;
    emission_counts;
    analysis;
    timings =
      { Flow.mine_s = core.mine_s; generate_s = t1 -. t0; combine_s = t2 -. t1;
        analyze_s = t3 -. t2 };
    cycles = core.cycles;
    traces_seen = core.traces_done;
    compactions = 0 }

(* ---------- public trainer wrapper ---------- *)

module Trainer = struct
  type t = trainer

  let create ?(config = Flow.default) ?(provenance = `Full) iface =
    { config; core = create_core ~config ~provenance iface }

  let push = push
  let end_trace = end_trace
  let finish_mining = finish_mining
  let finish = finish
  let interface t = t.core.iface
  let phase t = match t.core.phase with Mining -> `Mining | Training -> `Training
  let cycles t = t.core.cycles
  let traces t = t.core.traces_done

  let table t =
    match t.core.table with
    | Some table -> table
    | None -> invalid_arg "Stream_train.Trainer.table: still mining"
end

(* ---------- checkpoint / restore ---------- *)

module Checkpoint = struct
  (* The payload is the marshaled [core] with its table saved, so any
     change to the layout of what it holds takes a new version. *)
  let version_line = "psm-repro-trainer 4"

  exception Restore_error of string

  let save_channel oc (t : Trainer.t) =
    output_string oc (version_line ^ "\n");
    output_string oc
      (Printf.sprintf "state %s cycles %d\n"
         (match t.core.phase with Mining -> "mining" | Training -> "training")
         t.core.cycles);
    let saved : Table.saved core_of =
      { t.core with table = Option.map Table.save t.core.table }
    in
    Marshal.to_channel oc saved []

  let save_file path t =
    let oc = open_out_bin path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> save_channel oc t)

  let load_channel ?(config = Flow.default) ~source ic =
    let line () =
      match In_channel.input_line ic with
      | Some l -> String.trim l
      | None -> raise (Restore_error (source ^ ": truncated checkpoint"))
    in
    let header = line () in
    if header <> version_line then
      raise
        (Restore_error
           (Printf.sprintf "%s: bad version header: found %S, expected %S" source
              header version_line));
    let _summary = line () in
    let saved : Table.saved core_of =
      try Marshal.from_channel ic
      with Failure msg | Sys_error msg ->
        raise (Restore_error (source ^ ": corrupt checkpoint payload: " ^ msg))
    in
    { config; core = { saved with table = Option.map Table.restore saved.table } }

  let load_file ?config path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> load_channel ?config ~source:path ic)
end

(* ---------- streaming straight from VCD files ---------- *)

exception Too_many_samples of { path : string; gap_from : int; gap_to : int; filled : int }

(* Re-expansion of raw per-timestamp samples onto the uniform [period]
   grid, replicating Vcd's batch resampler: each grid point takes the
   latest values at or before it, and the grid extends one point past
   the final timestamp when that timestamp is off-grid. Only the grid
   points a timestamp gap adds beyond one per timestamp are bounded:
   a timestamp that would take them past [limit] is refused before any
   of its gap is filled, while a file sampled on every grid point
   streams at any length. *)
module Resample = struct
  type t = {
    path : string;
    period : int;
    limit : int;
    push_sample : Bits.t array -> power:float -> unit;
    mutable started : bool;
    mutable first : int;
    mutable last : int;
    mutable stamps : int;
    mutable next_grid : int;
    mutable held : (Bits.t array * float) option;
    mutable tail_pending : bool;
  }

  let create ~path ~period ~limit push_sample =
    if period <= 0 then invalid_arg "Stream_train: sample period must be positive";
    { path; period; limit; push_sample; started = false; first = 0; last = 0; stamps = 0;
      next_grid = 0; held = None; tail_pending = false }

  let push r ~time sample ~power =
    r.stamps <- r.stamps + 1;
    if not r.started then begin
      r.push_sample sample ~power;
      r.started <- true;
      r.first <- time;
      r.last <- time;
      r.next_grid <- time + r.period;
      r.held <- Some (Array.copy sample, power);
      r.tail_pending <- false
    end
    else begin
      (* Once [time] is in, every grid point at or before it has been
         pushed: one per timestamp, the rest held samples filling gaps. *)
      let filled = ((time - r.first) / r.period) + 1 - r.stamps in
      if filled > r.limit then
        raise (Too_many_samples { path = r.path; gap_from = r.last; gap_to = time; filled });
      r.last <- time;
      (match r.held with
      | Some (held, held_power) ->
          while r.next_grid < time do
            r.push_sample held ~power:held_power;
            r.next_grid <- r.next_grid + r.period
          done
      | None -> ());
      if r.next_grid = time then begin
        r.push_sample sample ~power;
        r.next_grid <- r.next_grid + r.period;
        r.tail_pending <- false
      end
      else r.tail_pending <- true;
      r.held <- Some (Array.copy sample, power)
    end

  let finish r =
    if r.tail_pending then
      match r.held with
      | Some (held, held_power) -> r.push_sample held ~power:held_power
      | None -> ()
end

let stream_file ?unknowns ~period ~on_header ~push_sample path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let r = Reader.of_channel ic in
      let rs = Resample.create ~path ~period ~limit:Vcd.max_samples push_sample in
      let stats =
        Vcd.stream ?unknowns r
          ~init:(fun header ->
            if not header.Vcd.has_power then
              invalid_arg
                (Printf.sprintf "Stream_train: %s carries no %s real variable" path
                   Vcd.power_var_name);
            on_header header)
          ~sample:(fun ~time sample ~power -> Resample.push rs ~time sample ~power)
      in
      Resample.finish rs;
      stats)

let train_stream ?(config = Flow.default) ?unknowns ?(period = 1) ?provenance ?checkpoint
    paths =
  Psm_obs.span "flow.train_stream" @@ fun () ->
  if paths = [] then invalid_arg "Stream_train.train_stream: no files";
  let trainer = ref None in
  (match checkpoint with
  | Some path when Sys.file_exists path ->
      let t = Checkpoint.load_file ~config path in
      Log.info (fun m ->
          m "resuming from %s: %s phase, %d of %d file(s) done" path
            (match Trainer.phase t with
            | `Mining -> "mining"
            | `Training -> "training")
            (Trainer.traces t) (List.length paths));
      trainer := Some t
  | _ -> ());
  let get_trainer header =
    match !trainer with
    | Some t ->
        if not (Interface.equal (Trainer.interface t) header.Vcd.interface) then
          invalid_arg "Stream_train.train_stream: VCD interfaces differ"
    | None ->
        trainer :=
          Some (Trainer.create ~config ?provenance header.Vcd.interface)
  in
  let save_checkpoint () =
    match (checkpoint, !trainer) with
    | Some path, Some t -> Checkpoint.save_file path t
    | _ -> ()
  in
  (* Checkpoints are taken only at file boundaries, so a resumed
     trainer's completed-trace count says exactly how many files of the
     current phase to skip. *)
  let pass label =
    let already = match !trainer with Some t -> Trainer.traces t | None -> 0 in
    List.iteri
      (fun i path ->
        if i >= already then begin
          let t0 = Unix.gettimeofday () in
          let stats =
            stream_file ?unknowns ~period ~on_header:get_trainer
              ~push_sample:(fun sample ~power ->
                match !trainer with
                | Some t -> Trainer.push t sample ~power
                | None -> assert false)
              path
          in
          (match !trainer with Some t -> Trainer.end_trace t | None -> assert false);
          save_checkpoint ();
          Log.info (fun m ->
              m "%s pass over %s: %a in %.3fs" label path Reader.pp_stats stats
                (Unix.gettimeofday () -. t0))
        end)
      paths
  in
  (match !trainer with
  | Some t when Trainer.phase t = `Training -> ()
  | _ ->
      pass "mining";
      let t =
        match !trainer with
        | Some t -> t
        | None -> invalid_arg "Stream_train.train_stream: no samples in any file"
      in
      Trainer.finish_mining t;
      save_checkpoint ());
  pass "training";
  let result =
    match !trainer with Some t -> Trainer.finish t | None -> assert false
  in
  (match checkpoint with
  | Some path when Sys.file_exists path -> Sys.remove path
  | _ -> ());
  result

(* In-memory variant for tests and for workloads captured outside VCD:
   both phases over the same functional/power trace lists. *)
let train_traces ?(config = Flow.default) ?provenance ~traces ~powers () =
  if List.length traces <> List.length powers then
    invalid_arg "Stream_train.train_traces: traces and powers differ in number";
  if traces = [] then invalid_arg "Stream_train.train_traces: no training traces";
  let module Ft = Psm_trace.Functional_trace in
  let module Pt = Psm_trace.Power_trace in
  let iface = Ft.interface (List.hd traces) in
  let t = Trainer.create ~config ?provenance iface in
  let feed () =
    List.iter2
      (fun trace power ->
        let n = Ft.length trace in
        if n <> Pt.length power then
          invalid_arg "Stream_train.train_traces: functional/power length mismatch";
        for i = 0 to n - 1 do
          Trainer.push t (Ft.sample trace ~time:i) ~power:(Pt.get power i)
        done;
        Trainer.end_trace t)
      traces powers
  in
  feed ();
  Trainer.finish_mining t;
  feed ();
  Trainer.finish t
