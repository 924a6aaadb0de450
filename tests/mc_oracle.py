"""The broadcast-rows Monte Carlo: each trial's full tone row, built from
the drawn channel and scored by the DC kernel's batch.

A reference for `scaling.monte_carlo_many`, which scores a rank-one row
from its channel power and scales the terms of the other rows.  One
scenario at a time, it reads the same stream windows: chunk c of a draw
shape with d entries per trial is the window [2dKc, 2dKc + 2d * size),
K = `_MC_CHUNK`.
"""

import math

import numpy as np

from multisine_wpt.channel import _NormalStream, _rng
from multisine_wpt.rectenna import DCKernel
from multisine_wpt.scaling import _MC_CHUNK


def tone_rows(sc, h: np.ndarray) -> np.ndarray:
    """Received tone rows of the scenario's closed-form waveform over the
    drawn channels h, (trials, tones drawn, antennas)."""
    gains = np.linalg.norm(h, axis=2)
    n, p = sc.n_tones, sc.power
    if sc.strategy in ("ss", "ass"):  # all power on the strongest tone
        return np.sqrt(2.0 * p) * np.max(gains, axis=1, keepdims=True)
    # up keeps the channel phases (r_n = s_n h_n); upmf matches them
    return np.sqrt(2.0 * p / n) * np.broadcast_to(
        h[:, :, 0] if sc.strategy == "up" else gains, (len(gains), n))


def trial_values(sc, trials: int, seed: int):
    """The scenario's DC surrogate of each trial, one chunk at a time."""
    n_draw = 1 if sc.regime == "flat" or sc.strategy == "ss" \
        else sc.n_tones
    d = n_draw * sc.n_antennas
    kernel = DCKernel(sc.params)
    stream = _NormalStream(_rng(seed, 0))
    for first in range(0, trials, _MC_CHUNK):
        size = min(_MC_CHUNK, trials - first)
        h = stream.complex_window(2 * d * first,
                                  (size, n_draw, sc.n_antennas),
                                  keep=2 * d * (first + size))
        yield kernel.value(tone_rows(sc, h))


def monte_carlo(sc, trials: int, seed: int) -> tuple[float, float]:
    """(sample mean, standard error) of the scenario's DC surrogate, the
    error from one-pass sums."""
    total = total_sq = 0.0
    for z in trial_values(sc, trials, seed):
        total += np.sum(z)
        total_sq += np.sum(z ** 2)
    mean = total / trials
    var = max(total_sq / trials - mean ** 2, 0.0) * trials / (trials - 1)
    return mean, math.sqrt(var / trials)


def two_pass_stderr(sc, trials: int, seed: int) -> float:
    """The standard error of the same trials in two exactly rounded passes:
    the mean by `math.fsum`, then the squares about it by `math.fsum`."""
    z = np.concatenate(list(trial_values(sc, trials, seed)))
    mean = math.fsum(z) / trials
    return math.sqrt(math.fsum((z - mean) ** 2) / (trials - 1) / trials)
