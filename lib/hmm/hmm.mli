(** The Hidden Markov Model λ = ⟨A, B, π⟩ built from a PSM set
    (paper Sec. V).

    - Q (hidden states) are the PSM states;
    - E (observations) are the characterizing assertions — one observation
      symbol per distinct component assertion;
    - A[i][j] is derived from the number of transitions exiting state i to
      reach state j;
    - B[i][k] from the number of times assertion k was folded (by [join])
      into state i's characterizing set;
    - π[i] from the number of training traces whose PSM starts in state i.

    Rows are normalized to probability distributions; states with no
    outgoing transition self-loop. *)

type t

val build :
  ?transition_counts:((int * int) * float) list ->
  ?emission_counts:((int * int) * float) list ->
  Psm_core.Psm.t ->
  t
(** [transition_counts] — training-trace frequencies of (src state id, dst
    state id) crossings, as projected from the raw chains through the
    simplify/join redirect maps. When supplied, A is estimated from these
    frequencies (the statistically meaningful reading of the paper's
    "number of transitions exiting from state i to reach state j");
    without it, A falls back to counting the distinct transitions of the
    PSM graph. Pairs naming unknown state ids are ignored; (i, i) entries
    are honoured only when the graph has a self-loop at i.

    [emission_counts] — training-trace frequencies of (state id,
    proposition id) observation pairs: how often each proposition was
    observed while each state was active. When supplied they define the
    full emission matrix used by offline (Viterbi) decoding; without them
    emission falls back to the entry-proposition projection. *)

val psm : t -> Psm_core.Psm.t

val state_count : t -> int
val observation_count : t -> int

val row_of_state : t -> int -> int
(** Dense row index of a PSM state id. Raises [Not_found]. *)

val state_of_row : t -> int -> int

val a : t -> int -> int -> float
(** [a t i j] — transition probability between dense rows. *)

val a_row : t -> int -> float array
(** A copy of row [i] of A. *)

val trained_a_row : t -> int -> float array
(** A copy of row [i] of A as {!build} made it: {!ban}s and
    {!unsafe_set_a} writes since do not show. What the simulation
    stepper reads, so a model's bans never reach a stepper on it. *)

val b_entry : t -> int -> int -> float
(** [b_entry t i prop] — probability mass of state row [i]'s
    characterizing assertions whose entry proposition is [prop]; the
    emission term used when filtering on an observed proposition. *)

val b_obs : t -> int -> int -> float
(** [b_obs t i prop] — P[observe prop | state i]: the full emission
    probability, from [emission_counts] when available (else the
    entry-proposition projection). Used by Viterbi decoding. *)

val pi : t -> float array
(** A copy of π. *)

val initial_belief : t -> float array
(** π as a belief vector (copy). *)

val predict : t -> float array -> float array
(** One filtering prediction step: belief × A, normalized. *)

val ban : t -> src_row:int -> dst_row:int -> unit
(** Set A[src][dst] to 0 and renormalize the row (the paper's "fixing to 0
    the probability of reaching again the same wrong state"). If the row
    becomes all-zero it is reset to uniform-over-others. *)

val ban_row : float array -> dst:int -> unit
(** The renormalization {!ban} applies, on one A row held by the caller:
    [ban t ~src_row ~dst_row] is [ban_row] on row [src_row] of A. The
    simulation stepper bans its own copies of rows with it, so both give
    the same floats. *)

val reset_bans : t -> unit

val pp : Format.formatter -> t -> unit

(**/**)

val unsafe_set_a : t -> row:int -> col:int -> float -> unit
(** Fault injection for the analyzer tests: overwrite A[row][col] without
    renormalizing. Never use outside tests — [build] and [ban] are the
    only legitimate writers of A. *)
