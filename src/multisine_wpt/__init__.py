"""Multisine multi-antenna waveform design for far-field wireless power transfer.

The package splits into:

- `channel`: multipath realizations and per-tone frequency responses
- `rectenna`: the truncated-Taylor diode model, its DC surrogate and the
  DC kernel (value, gradient and Hessian in the received tones) the
  designers condense from; the enumerated posynomial is a test oracle and
  the signomial view serves the multi-rectenna design
- `gp`: posynomial algebra, AM-GM condensation and a geometric-program solver
- `optimizer`: closed-form baselines and the successive-approximation designs
- `scaling`: ensemble-average scaling laws and Monte Carlo verification
- `circuit`: a time-domain diode rectifier simulator for model-free validation
- `cli`: experiment presets and CSV emission
"""

from .channel import (ArrayConfig, ChannelRealization, FrequencyGrid,
                      PowerDelayProfile, TapSet, flat_channel,
                      frequency_response, generate_taps, iid_frequency_channel,
                      load_channel_text, multipath_channel, save_channel_text)
from .circuit import (CircuitParams, SimTrace, SteadyStateError,
                      dc_operating_point, export_trace_csv,
                      harvested_dc_power, simulate, simulate_ensemble)
from .gp import (GPSolverError, GPStandardForm, Monomial, Posynomial,
                 Signomial, SolveReport, condense, dump_gp,
                 maximize_monomial_under_power, single_condensation_fraction,
                 solve_gp)
from .optimizer import (OptimizerOptions, SCATrace, ass, ass_multi,
                        baseline_waveform, max_papr, mf, optimal_phases,
                        optimize, optimize_decoupled, optimize_multi,
                        optimize_papr, ss, toy_n2, up, upmf)
from .rectenna import (DCKernel, DiodeParams, RectennaParams, Waveform,
                       iout_fixed_point, load_waveform_text, papr,
                       received_tone_coefficients, save_waveform_text,
                       synthesize_transmit, taylor_coefficients, zdc_analytic,
                       zdc_posynomial, zdc_time_average,
                       weighted_sum_signomial)
from .scaling import (ScalingScenario, asymptotic_form, closed_form,
                      hardening_curve, harmonic_h, harmonic_s, monte_carlo)

__version__ = "0.1.0"
