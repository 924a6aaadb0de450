"""Average-DC scaling laws per strategy/fading regime, with Monte Carlo checks.

Each closed form is the channel-ensemble average of the fourth-order DC
surrogate for one waveform strategy, either over frequency-flat Rayleigh
fading (one common gain for all tones) or frequency-selective fading
(independent unit-variance gains per tone and antenna).  `monte_carlo`
re-derives the same averages by drawing channels, building the strategy's
closed-form waveform and evaluating the DC surrogate of each trial with
`rectenna.DCKernel`, the same kernel the designs use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .channel import _complex_normal, _rng
from .rectenna import DCKernel, RectennaParams

EULER_GAMMA = float(np.euler_gamma)
# second constant in the harmonic-sum expansion around log N
STIELTJES_GAMMA1 = -0.0728158454836767

_STRATEGIES = ("ss", "up", "ass", "upmf")
_REGIMES = ("flat", "selective")
_MC_CHUNK = 20000  # Monte Carlo trials per channel draw


@lru_cache(maxsize=None)
def _harmonic_fractions(n: int) -> tuple[Fraction, Fraction]:
    if n < 1:
        raise ValueError("n must be >= 1")
    h = Fraction(0)
    s = Fraction(0)
    for k in range(1, n + 1):
        h += Fraction(1, k)
        s += h / k
    return h, s


def harmonic_h(n: int) -> float:
    """H_n = sum_{k<=n} 1/k, accumulated exactly and rounded once."""
    return float(_harmonic_fractions(n)[0])


def harmonic_s(n: int) -> float:
    """S_n = sum_{k<=n} H_k/k, accumulated exactly and rounded once."""
    return float(_harmonic_fractions(n)[1])


@dataclass(frozen=True)
class ScalingScenario:
    strategy: str
    regime: str
    n_tones: int
    n_antennas: int = 1
    power: float = 1e-5
    params: RectennaParams = RectennaParams()

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}")
        if min(self.n_tones, self.n_antennas) < 1:
            raise ValueError("dimensions must be >= 1")
        if self.n_antennas > 1 and self.strategy != "upmf":
            raise ValueError("multi-antenna scaling laws cover only upmf")
        if self.params.truncation_order != 4:
            raise ValueError("scaling laws are derived for a fourth-order model")


def _base_terms(sc: ScalingScenario) -> tuple[float, float]:
    k2, k4 = sc.params.k
    r = sc.params.diode.r_ant
    return k2 * r * sc.power, k4 * r ** 2 * sc.power ** 2


def closed_form(sc: ScalingScenario):
    """Ensemble-average DC surrogate; a (lower, upper) pair where only
    bounds are known (upmf over selective fading at finite M)."""
    t2, t4 = _base_terms(sc)
    n, m = sc.n_tones, sc.n_antennas
    quartic_density = (2.0 * n ** 2 + 1.0) / (2.0 * n)

    if sc.strategy == "ss":
        return t2 + 3.0 * t4
    if sc.strategy == "up":
        return (t2 + 2.0 * t4 * quartic_density
                if sc.regime == "flat" else t2 + 3.0 * t4)
    if sc.strategy == "ass":
        if sc.regime == "flat":
            return t2 + 3.0 * t4
        return t2 * harmonic_h(n) + 3.0 * t4 * harmonic_s(n)
    # upmf
    if sc.regime == "flat":
        return t2 * m + t4 * quartic_density * m * (m + 1.0)
    mean_norm = math.gamma(m + 0.5) / math.gamma(m)
    w_count = n * (2.0 * n ** 2 + 1.0) / 3.0
    w_low = mean_norm ** 4 * w_count
    w_high = m * (m + 1.0) * w_count
    scale = 1.5 * t4 / n ** 2
    return t2 * m + scale * w_low, t2 * m + scale * w_high


def asymptotic_form(sc: ScalingScenario) -> float:
    """Large-N (and large-M where applicable) trend of the same average.

    These are growth-rate statements, not finite-N equalities; the
    harmonic sums behave as H_N ~ log N + EULER_GAMMA and
    S_N ~ log^2(N)/2 + EULER_GAMMA*log N + EULER_GAMMA^2 + STIELTJES_GAMMA1.
    """
    t2, t4 = _base_terms(sc)
    n, m = sc.n_tones, sc.n_antennas
    if sc.strategy == "ss":
        return t2 + 3.0 * t4
    if sc.strategy == "up":
        return t2 + 2.0 * t4 * n if sc.regime == "flat" else t2 + 3.0 * t4
    if sc.strategy == "ass":
        if sc.regime == "flat":
            return t2 + 3.0 * t4
        return t2 * math.log(n) + 1.5 * t4 * math.log(n) ** 2
    return t2 * m + t4 * n * m ** 2


def monte_carlo(sc: ScalingScenario, trials: int,
                seed: int = 0) -> tuple[float, float]:
    """Sample mean and standard error of the per-realization DC surrogate.

    Channels are drawn per the scenario's regime, the strategy's
    closed-form waveform is applied, and the fourth-order surrogate of each
    realization is evaluated by `DCKernel`, one batch of tone rows per
    chunk.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    rng = _rng(seed, 0)
    kernel = DCKernel(sc.params)
    n, m, p = sc.n_tones, sc.n_antennas, sc.power
    # a flat channel and the single sinewave need one gain per trial
    n_draw = 1 if sc.regime == "flat" or sc.strategy == "ss" else n
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        size = min(_MC_CHUNK, trials - done)
        h = _complex_normal(rng, (size, n_draw, m))
        gains = np.linalg.norm(h, axis=2)
        if sc.strategy in ("ss", "ass"):  # all power on the strongest tone
            r = np.sqrt(2.0 * p) * np.max(gains, axis=1, keepdims=True)
        else:  # up keeps the channel phases (r_n = s_n h_n); upmf matches them
            r = np.sqrt(2.0 * p / n) * np.broadcast_to(
                h[:, :, 0] if sc.strategy == "up" else gains, (size, n))
        z = kernel.value(r)
        total += float(np.sum(z))
        total_sq += float(np.sum(z ** 2))
        done += size
    mean = total / trials
    var = max(total_sq / trials - mean ** 2, 0.0) * trials / (trials - 1)
    return mean, math.sqrt(var / trials)


def hardening_curve(antenna_counts, n_tones: int, power: float,
                    seed: int = 0, trials: int = 2000) -> list[dict]:
    """Concentration of per-tone gains and of the matched-UP DC surrogate.

    For each antenna count, reports the ensemble-median RMS deviation of
    ||h_n||/sqrt(M) from 1 and the median relative deviation of the
    matched-beamformer uniform-power surrogate from its hardened
    (deterministic-channel) value.  Both shrink as M grows.
    """
    counts = list(antenna_counts)
    if counts != sorted(counts):
        raise ValueError("antenna counts must be ascending")
    kernel = DCKernel(RectennaParams())
    n = n_tones
    rows = []
    for idx, m in enumerate(counts):
        rng = _rng(seed, idx)
        h = _complex_normal(rng, (trials, n, m))
        norms = np.linalg.norm(h, axis=2)
        gain_dev = np.sqrt(np.mean((norms / np.sqrt(m) - 1.0) ** 2, axis=1))
        r = np.sqrt(2.0 * power / n) * norms
        z = kernel.value(r)
        z_hard = kernel.value(np.full(n, np.sqrt(2.0 * power * m / n)))
        z_dev = np.abs(z - z_hard) / z_hard
        rows.append({"n_antennas": m,
                     "gain_deviation": float(np.median(gain_dev)),
                     "zdc_deviation": float(np.median(z_dev))})
    return rows
