(** The reference dynamic power model — the reproduction's stand-in for a
    gate-level power simulator such as Synopsys PrimeTime PX.

    Per the paper's Def. 2, the dynamic energy at instant tᵢ is

      δᵢ = ½ · V²dd · f · C · α(tᵢ)

    with C the total switched capacitance, Vdd the supply voltage, f the
    clock frequency and α(tᵢ) the switching activity. Here α(tᵢ) is a
    per-cycle toggle count supplied by either a structural {!Sim} (every
    net) or a behavioural IP model (every internal register bit), and C is
    expressed as an effective capacitance per toggled bit. *)

type config = {
  vdd : float;  (** Supply voltage in volts. *)
  freq_hz : float;  (** Clock frequency. *)
  cap_per_toggle : float;  (** Effective switched capacitance per bit toggle, farads. *)
}

val default : config
(** 1.0 V, 100 MHz, 5 fF per toggled bit — representative of a small
    65–90 nm block; only relative magnitudes matter to the methodology. *)

val energy_of_activity : config -> int -> float
(** [energy_of_activity cfg alpha] is δ for one cycle with [alpha] bit
    toggles, in joules. *)

val energy_of_weighted_activity : config -> float -> float
(** Same, for fractional activity (behavioural models may weight register
    classes by different capacitance factors). *)

val trace_of_activity : config -> int array -> Psm_trace.Power_trace.t
(** Map a per-cycle toggle series to a power trace. *)

val pp_config : Format.formatter -> config -> unit
