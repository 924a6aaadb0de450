"""Average-DC scaling laws per strategy/fading regime, with Monte Carlo checks.

Each closed form is the channel-ensemble average of the fourth-order DC
surrogate for one waveform strategy, either over frequency-flat Rayleigh
fading (one common gain for all tones) or frequency-selective fading
(independent unit-variance gains per tone and antenna).  `monte_carlo`
re-derives the same averages by drawing channels, building the strategy's
closed-form waveform and evaluating the DC surrogate trial by trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .channel import _rng
from .rectenna import RectennaParams

EULER_GAMMA = float(np.euler_gamma)
# second constant in the harmonic-sum expansion around log N
STIELTJES_GAMMA1 = -0.0728158454836767

_STRATEGIES = ("ss", "up", "ass", "upmf")
_REGIMES = ("flat", "selective")


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


def harmonic_h_alternating(n: int) -> float:
    """Alternating-binomial form of H_n.

    Cancels catastrophically for n beyond ~20; kept only to cross-check the
    recursion at small n.
    """
    k = np.arange(n)
    terms = ((-1.0) ** (k + n - 1) * [math.comb(n - 1, int(j)) for j in k]
             / (n - k) ** 2)
    return float(n * np.sum(terms))


def harmonic_s_alternating(n: int) -> float:
    """Alternating-binomial form of S_n (same caveat as the H_n variant)."""
    k = np.arange(n)
    terms = ((-1.0) ** (k + n - 1) * [math.comb(n - 1, int(j)) for j in k]
             / (n - k) ** 3)
    return float(n * np.sum(terms))


@dataclass(frozen=True)
class ScalingScenario:
    strategy: str
    regime: str
    n_tones: int
    n_antennas: int = 1
    n_rectennas: int = 1
    power: float = 1e-5
    params: RectennaParams = RectennaParams()

    def __post_init__(self):
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        if self.regime not in _REGIMES:
            raise ValueError(f"regime must be one of {_REGIMES}")
        if min(self.n_tones, self.n_antennas, self.n_rectennas) < 1:
            raise ValueError("dimensions must be >= 1")
        if self.n_antennas > 1 and self.strategy != "upmf":
            raise ValueError("multi-antenna scaling laws cover only upmf")
        if self.n_rectennas > 1 and self.strategy != "up":
            raise ValueError("multi-rectenna scaling covers only the up sum")
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
    n, m, u = sc.n_tones, sc.n_antennas, sc.n_rectennas
    quartic_density = (2.0 * n ** 2 + 1.0) / (2.0 * n)

    if sc.strategy == "ss":
        return t2 + 3.0 * t4
    if sc.strategy == "up":
        per_rectenna = (t2 + 2.0 * t4 * quartic_density
                        if sc.regime == "flat" else t2 + 3.0 * t4)
        return u * per_rectenna
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
    n, m, u = sc.n_tones, sc.n_antennas, sc.n_rectennas
    if sc.strategy == "ss":
        return t2 + 3.0 * t4
    if sc.strategy == "up":
        per = t2 + 2.0 * t4 * n if sc.regime == "flat" else t2 + 3.0 * t4
        return u * per
    if sc.strategy == "ass":
        if sc.regime == "flat":
            return t2 + 3.0 * t4
        return t2 * math.log(n) + 1.5 * t4 * math.log(n) ** 2
    return t2 * m + t4 * n * m ** 2


def _quartic_dc_sum(r: np.ndarray) -> np.ndarray:
    """sum over equal-sum index quadruples of r r r* r*, batched over rows.

    Equals the squared norm of the row-wise self-convolution of r.
    """
    # batched FFT: a per-row DCKernel convolve loop is slower on 20k-row chunks
    n = r.shape[1]
    f = np.fft.fft(r, n=2 * n - 1, axis=1)
    conv = np.fft.ifft(f * f, axis=1)
    return np.sum(np.abs(conv) ** 2, axis=1)


def _zdc_from_tone_rows(r: np.ndarray, params: RectennaParams) -> np.ndarray:
    """Fourth-order DC surrogate per row of received tone coefficients."""
    k2, k4 = params.k
    r_ant = params.diode.r_ant
    e2 = 0.5 * np.sum(np.abs(r) ** 2, axis=1)
    e4 = (3.0 / 8.0) * _quartic_dc_sum(r)
    return k2 * r_ant * e2 + k4 * r_ant ** 2 * e4


def _draw_complex(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) \
        / np.sqrt(2.0)


def monte_carlo(sc: ScalingScenario, trials: int, seed: int = 0,
                chunk: int = 20000) -> tuple[float, float]:
    """Sample mean and standard error of the per-realization DC surrogate.

    Channels are drawn per the scenario's regime, the strategy's
    closed-form waveform is applied, and the fourth-order surrogate is
    evaluated realization by realization (vectorized in chunks).
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    if sc.n_rectennas > 1:
        raise ValueError("run per-rectenna trials and scale by the count")
    rng = _rng(seed, 0)
    n, m, p = sc.n_tones, sc.n_antennas, sc.power
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        size = min(chunk, trials - done)
        if sc.regime == "flat" and sc.strategy in ("ss", "ass", "up"):
            amp = np.abs(_draw_complex(rng, size))
            if sc.strategy in ("ss", "ass"):
                r = np.sqrt(2.0 * p)[None] * amp[:, None]  # one active tone
            else:
                r = np.sqrt(2.0 * p / n) * amp[:, None] * np.ones((size, n))
        elif sc.regime == "flat":  # upmf
            h = _draw_complex(rng, (size, m))
            norm = np.linalg.norm(h, axis=1)
            r = np.sqrt(2.0 * p / n) * norm[:, None] * np.ones((size, n))
        elif sc.strategy == "ss":
            r = np.sqrt(2.0 * p) * np.abs(_draw_complex(rng, (size, 1)))
        elif sc.strategy == "up":
            h = _draw_complex(rng, (size, n))
            r = np.sqrt(2.0 * p / n) * h  # zero phases: r_n = s_n h_n
        elif sc.strategy == "ass":
            gains = np.abs(_draw_complex(rng, (size, n))) ** 2
            best = np.sqrt(np.max(gains, axis=1))
            r = np.sqrt(2.0 * p)[None] * best[:, None]
        else:  # upmf over selective fading
            h = _draw_complex(rng, (size, n, m))
            norms = np.linalg.norm(h, axis=2)
            r = np.sqrt(2.0 * p / n) * norms
        z = _zdc_from_tone_rows(r, sc.params)
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
    params = RectennaParams()
    k2, k4 = params.k
    r_ant = params.diode.r_ant
    n = n_tones
    quartic_density = (2.0 * n ** 2 + 1.0) / (2.0 * n)
    rows = []
    for idx, m in enumerate(counts):
        rng = _rng(seed, idx)
        h = _draw_complex(rng, (trials, n, m))
        norms = np.linalg.norm(h, axis=2)
        gain_dev = np.sqrt(np.mean((norms / np.sqrt(m) - 1.0) ** 2, axis=1))
        r = np.sqrt(2.0 * power / n) * norms
        z = _zdc_from_tone_rows(r, params)
        z_hard = (k2 * r_ant * power * m
                  + k4 * r_ant ** 2 * power ** 2 * quartic_density * m ** 2)
        z_dev = np.abs(z - z_hard) / z_hard
        rows.append({"n_antennas": m,
                     "gain_deviation": float(np.median(gain_dev)),
                     "zdc_deviation": float(np.median(z_dev))})
    return rows
