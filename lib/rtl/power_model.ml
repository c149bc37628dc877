type config = { vdd : float; freq_hz : float; cap_per_toggle : float }

let default = { vdd = 1.0; freq_hz = 100e6; cap_per_toggle = 5e-15 }

let check cfg =
  if cfg.vdd <= 0. || cfg.freq_hz <= 0. || cfg.cap_per_toggle <= 0. then
    invalid_arg "Power_model: config parameters must be positive"

let energy_of_weighted_activity cfg alpha =
  check cfg;
  if alpha < 0. then invalid_arg "Power_model: negative activity";
  0.5 *. cfg.vdd *. cfg.vdd *. cfg.freq_hz *. cfg.cap_per_toggle *. alpha

let energy_of_activity cfg alpha =
  energy_of_weighted_activity cfg (float_of_int alpha)

let trace_of_activity cfg alphas =
  Psm_trace.Power_trace.of_array (Array.map (energy_of_activity cfg) alphas)

let pp_config fmt cfg =
  Format.fprintf fmt "Vdd=%.2fV f=%.3gHz C/toggle=%.3gF" cfg.vdd cfg.freq_hz
    cfg.cap_per_toggle
