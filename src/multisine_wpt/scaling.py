"""Average-DC scaling laws per strategy/fading regime, with Monte Carlo checks.

Each closed form is the channel-ensemble average of the fourth-order DC
surrogate for one waveform strategy, either over frequency-flat Rayleigh
fading (one common gain for all tones) or frequency-selective fading
(independent unit-variance gains per tone and antenna).  `monte_carlo_many`
re-derives the same averages by drawing channels and scoring the DC
surrogate of the strategy's closed-form waveform over each trial with
`rectenna.DCKernel`, the same kernel the designs use; a trial whose tone
row is one channel gain times a fixed row is a polynomial in its channel
power, with no FFT.  All scenarios read one Philox stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), and each of its
normals is drawn once: a narrower draw shape reads a prefix of what the
widest one reads, and the scenarios of one shape share its channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .channel import _complex_normal, _NormalStream, _rng
from .rectenna import DCKernel, RectennaParams

EULER_GAMMA = float(np.euler_gamma)
# second constant in the harmonic-sum expansion around log N
STIELTJES_GAMMA1 = -0.0728158454836767

_STRATEGIES = ("ss", "up", "ass", "upmf")
_REGIMES = ("flat", "selective")
# Monte Carlo trials per chunk.  Chunk c of a draw shape with d entries per
# trial reads the stream's normals [2dKc, 2dKc + 2d * size), K = _MC_CHUNK,
# and each scenario's per-chunk sums fix its bits, so the chunk boundaries
# are part of every result.
_MC_CHUNK = 20000
_GAIN_BLOCK = 1 << 16  # channel entries per block of `_powers`


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
    """Sample mean and standard error of the per-realization DC surrogate,
    the one-scenario case of `monte_carlo_many`."""
    return monte_carlo_many([sc], trials, seed)[0]


def _unit_row(sc: ScalingScenario) -> np.ndarray:
    """The scenario's tone row at unit channel gain, a one-row batch."""
    if sc.strategy in ("ss", "ass"):  # all power on the strongest tone
        return np.array([[math.sqrt(2.0 * sc.power)]])
    return np.full((1, sc.n_tones), math.sqrt(2.0 * sc.power / sc.n_tones))


def _powers(h: np.ndarray) -> np.ndarray:
    """||h_n||^2 over the antennas of every drawn tone: the real part of
    conj(h) h, summed over the antennas a block of rows at a time, so the
    conjugate product needs no temporary the size of h.  Fewer than 8
    antennas are added one column at a time, which is `np.add.reduce`'s
    order there and spares its short inner loops."""
    powers = np.empty(h.shape[:2])
    step = max(1, _GAIN_BLOCK // (h.shape[1] * h.shape[2]))
    for i in range(0, len(h), step):
        block = h[i:i + step]
        product = np.conjugate(block)
        product *= block
        out = powers[i:i + step]
        if h.shape[2] >= 8:
            np.add.reduce(product.real, axis=2, out=out)
            continue
        np.copyto(out, product.real[:, :, 0])
        for m in range(1, h.shape[2]):
            out += product.real[:, :, m]
    return powers


def monte_carlo_many(scenarios, trials: int,
                     seed: int = 0) -> list[tuple[float, float]]:
    """(sample mean, standard error) of the per-realization DC surrogate of
    each scenario, in order.

    Channels are drawn per the scenario's regime, and the fourth-order
    surrogate of the strategy's closed-form waveform over each realization
    comes from `DCKernel`'s per-order terms, one chunk of `_MC_CHUNK`
    trials at a time.  Where a trial's tone row is c v, one channel gain c
    times the scenario's unit-gain row v (`ss`, `ass`, and every strategy
    on one gain per trial), z = sum_i z_i(v) g^(i/2) with g = |c|^2: the
    terms z_i(v) are computed once, and each trial evaluates the
    polynomial in its channel power g (the strongest tone's for `ass`).
    The other rows, `up` over the channels and `upmf` over the gains
    ||h_n||, go through the kernel's batch unscaled, and the term of order
    i is scaled by (2P/N)^(i/2).

    Every scenario reads the same Philox stream: chunk c of a draw shape
    with d entries per trial is the stream window of normals
    [2dKc, 2dKc + 2d * size), K = `_MC_CHUNK`, so each mean is the one
    its scenario gets alone.  Scenarios of one shape share each chunk's
    draw, and every shape reads its windows from one
    `channel._NormalStream`, which draws each normal once: the stream's
    first 2 * trials * max(d) normals.  The chunk whose window ends first
    runs next (the widest on a tie), and the stream keeps only the normals
    from the earliest window still pending.

    The standard error sums each chunk's squares about that chunk's mean
    and combines the chunks in order by the pairwise update of Chan, Golub
    & LeVeque (The American Statistician, 1983), so it keeps the digits of
    the mean where the spread is small next to it.
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    groups = {}
    kernels, coefficients, rank_one = [], [], set()
    for k, sc in enumerate(scenarios):
        # a flat channel and the single sinewave need one gain per trial
        n_draw = 1 if sc.regime == "flat" or sc.strategy == "ss" \
            else sc.n_tones
        groups.setdefault((n_draw, sc.n_antennas), []).append(k)
        kernels.append(DCKernel(sc.params))
        # the terms of the unit-gain row of a rank-one row, else the scale
        # of each order's term
        if sc.strategy in ("ss", "ass") or n_draw == 1:
            rank_one.add(k)
            coefficients.append(kernels[k].order_terms(_unit_row(sc))[:, 0])
        else:
            scale = 2.0 * sc.power / sc.n_tones
            coefficients.append([scale ** (i // 2) for i in sc.params.orders])
    # per scenario: the sum of z and the sum of squares about the mean
    sums = np.zeros((len(scenarios), 2))
    stream = _NormalStream(_rng(seed, 0))
    width = {shape: math.prod(shape) for shape in groups}
    done = dict.fromkeys(groups, 0)  # trials drawn, per pending shape
    while done:
        # the pending chunk whose window ends first, the widest on a tie
        shape = min(done, key=lambda s: (
            width[s] * min(done[s] + _MC_CHUNK, trials), -width[s]))
        members, first = groups[shape], done[shape]
        size = min(_MC_CHUNK, trials - first)
        if first + size < trials:
            done[shape] += size
        else:
            del done[shape]
        # no later window starts before the earliest pending chunk
        h = stream.complex_window(
            2 * width[shape] * first, (size, *shape),
            keep=min((2 * width[s] * t for s, t in done.items()),
                     default=math.inf))
        powers = _powers(h)
        batch = {scenarios[k].strategy for k in members if k not in rank_one}
        # only `up` over many tones reads the channel phases; without it, h
        # is freed here
        phased = h if "up" in batch else None
        del h
        # a rank-one row reads the one gain's power or the strongest tone's
        peak = (np.max(powers, axis=1) if rank_one.intersection(members)
                else None)
        if "upmf" in batch:
            np.sqrt(powers, out=powers)  # the gains ||h_n||
        for k in members:
            coef = coefficients[k]
            if k in rank_one:  # Horner's rule in the channel power
                z = coef[-1] * peak
                for c in coef[-2::-1]:
                    z += c
                    z *= peak
            else:  # no name keeps the terms past the sum
                z = sum(c * term for c, term in zip(
                    coef, kernels[k].order_terms(
                        phased[:, :, 0] if scenarios[k].strategy == "up"
                        else powers)))
            # the chunk's squares about its own mean, combined with the
            # earlier chunks' by Chan, Golub & LeVeque's pairwise update
            total = np.sum(z)
            z -= total / size
            delta = total / size - sums[k, 0] / first if first else 0.0
            sums[k] += total, (np.sum(z * z)
                               + delta * delta * first * size / (first + size))
        del phased, powers, peak, z
    results = []
    for total, squares in sums:
        results.append((total / trials,
                        math.sqrt(squares / (trials - 1) / trials)))
    return results


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
        norms = np.sqrt(_powers(h))
        gain_dev = np.sqrt(np.mean((norms / np.sqrt(m) - 1.0) ** 2, axis=1))
        r = np.sqrt(2.0 * power / n) * norms
        z = kernel.value(r)
        z_hard = kernel.value(np.full(n, np.sqrt(2.0 * power * m / n)))
        z_dev = np.abs(z - z_hard) / z_hard
        rows.append({"n_antennas": m,
                     "gain_deviation": float(np.median(gain_dev)),
                     "zdc_deviation": float(np.median(z_dev))})
    return rows
