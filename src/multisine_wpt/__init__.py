"""Multisine multi-antenna waveform design for far-field wireless power transfer.

The package splits into:

- `channel`: multipath realizations and per-tone frequency responses
- `rectenna`: the truncated-Taylor diode model, its DC surrogate and the
  DC kernel (value and gradient in the received tones, and the Hessian
  for aligned real tones) the designers ascend, and the one sampler of a
  multisine over a period, which the z_dc oracle, PAPR, the PAPR
  design's peak rows and the rectifier's drive share
- `interior`: a primal-dual interior-point loop for a linear objective
  under smooth convex rows, the step of the PAPR-constrained design when
  the unconstrained design exceeds the limit
- `optimizer`: one table of closed-form strategies, which also seeds and
  bounds every design, one minorize-maximize ascent for the single- and
  multi-rectenna designs, and the PAPR-constrained design, which starts
  from the single-rectenna design
- `scaling`: ensemble-average scaling laws and Monte Carlo verification
- `circuit`: a time-domain diode rectifier simulator for model-free validation
- `cli`: experiment presets and CSV emission
"""

from .channel import (ArrayConfig, ChannelRealization, FrequencyGrid,
                      PowerDelayProfile, flat_channel, frequency_response,
                      iid_frequency_channel, load_channel_text,
                      multipath_channel, save_channel_text)
from .circuit import (CircuitParams, SimTrace, SteadyStateError,
                      dc_operating_point, export_trace_csv,
                      harvested_dc_power, simulate, simulate_ensemble)
from .optimizer import (OptimizerOptions, SCATrace, ass_multi,
                        baseline_waveform, optimal_phases, optimize,
                        optimize_multi, optimize_papr, toy_n2)
from .rectenna import (DCKernel, DiodeParams, RectennaParams, Waveform,
                       antenna_paprs, iout_fixed_point, load_waveform_text,
                       papr, received_tone_coefficients, save_waveform_text,
                       taylor_coefficients, zdc_analytic, zdc_time_average)
from .scaling import (ScalingScenario, asymptotic_form, closed_form,
                      hardening_curve, harmonic_h, harmonic_s, monte_carlo,
                      monte_carlo_many)

__version__ = "0.1.0"
