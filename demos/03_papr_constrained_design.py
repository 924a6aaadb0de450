#!/usr/bin/env python3
"""Trading DC output against the transmit peak-to-average power ratio.

Power amplifiers dislike peaky signals, so the designer can cap each
antenna's PAPR.  On a flat channel the unconstrained optimum is close to
the uniform in-phase multisine, whose PAPR grows like twice the tone
count; tightening the cap squeezes power toward fewer tones and gives up
DC output gracefully.  Each peak-constrained step is a convex QCQP in the
tone amplitudes.
"""

import numpy as np

from multisine_wpt import (FrequencyGrid, OptimizerOptions, RectennaParams,
                           flat_channel, optimize, optimize_papr, papr)

n_tones = 8
power = 1e-5
grid = FrequencyGrid(n_tones, 100e6, 1e6)
channel = flat_channel(1.0, 0.0, n_tones, 1)
params = RectennaParams()
opts = OptimizerOptions(eps=1e-8, max_iterations=40)

unconstrained = optimize(channel, power, params, grid,
                         OptimizerOptions(eps=1e-12, max_iterations=400))
print(f"unconstrained: z_dc = {unconstrained.zdc:.5e}, "
      f"PAPR = {papr(unconstrained.waveform, 0):.2f}\n")

print(f"{'cap':>8} | {'z_dc':>11} | {'measured':>8} | amplitudes "
      f"(relative)")
print("-" * 70)
for eta in (2.0, 3.0, 4.0, 6.0, 10.0, 16.0):
    trace = optimize_papr(channel, power, eta, params, grid, opts)
    s = trace.waveform.amplitudes[:, 0]
    profile = "  ".join(f"{v:4.2f}" for v in s / s.max())
    print(f"{eta:8.1f} | {trace.zdc:11.5e} | "
          f"{papr(trace.waveform, 0):8.3f} | {profile}")

print("\nA cap the unconstrained design already meets returns that design")
print("without any peak-constrained step (always so at a cap of 2N = 16); a")
print("cap of 2 (a single sinewave's PAPR) forces all power onto one tone.")
