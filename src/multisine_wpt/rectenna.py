"""Truncated-Taylor rectenna model and multisine waveform bookkeeping.

The rectifying diode's exponential I-V curve, expanded around the output
operating point, makes the rectified DC current monotonically related to

    z_dc = sum over even orders i of  k_i * R_ant^(i/2) * time-avg(y^i)

where ``y(t)`` is the RF signal at the rectenna input and the ``k_i`` are
positive constants of the diode.  Everything the optimizers need lives
here: the DC kernel giving z_dc and its gradient in the received tones
(and, for aligned real tones, its Hessian), a brute-force time-averaging
oracle for it, the fixed-point recovery of the DC output current, PAPR,
and `period_basis`, the one sampler of a multisine over a period, which
the oracle, PAPR, the PAPR design and the rectifier's drive share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (ChannelRealization, FrequencyGrid, _load_pairs,
                      _save_pairs)

_POWER_FEAS_RTOL = 1e-9
_ORACLE_OVERSAMPLE = 16  # samples per top harmonic of y^i in the oracle
_BATCH_BINS = 1 << 16  # spectrum bins per row block of `DCKernel.value`

# combinatorial prefactors of the DC component of y^i for i = 2, 4, 6
_DC_PREFACTOR = {2: 0.5, 4: 3.0 / 8.0, 6: 5.0 / 16.0}

SUPPORTED_ORDERS = (2, 4, 6)


@dataclass(frozen=True)
class DiodeParams:
    """Schottky diode constants plus antenna and load resistances."""

    i_s: float = 5e-6          # reverse-bias saturation current [A]
    ideality: float = 1.05
    v_t: float = 25.86e-3      # thermal voltage [V]
    r_ant: float = 50.0        # antenna resistance [ohm]
    r_load: float = 1600.0     # DC load [ohm]

    def __post_init__(self):
        for name in ("i_s", "ideality", "v_t", "r_ant", "r_load"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


def taylor_coefficients(diode: DiodeParams, truncation_order: int) -> np.ndarray:
    """Diode curvature constants k_i = i_s / (i! * (ideality*v_t)^i).

    Returned for even i = 2, 4, ..., truncation_order (odd orders average
    to zero and never enter the DC budget).
    """
    if truncation_order < 2 or truncation_order % 2 != 0:
        raise ValueError("truncation order must be an even integer >= 2")
    nvt = diode.ideality * diode.v_t
    orders = range(2, truncation_order + 1, 2)
    return np.array([diode.i_s / (math.factorial(i) * nvt ** i) for i in orders])


@dataclass(frozen=True)
class RectennaParams:
    """Diode constants plus the Taylor truncation order (2, 4 or 6)."""

    diode: DiodeParams = DiodeParams()
    truncation_order: int = 4

    def __post_init__(self):
        if self.truncation_order not in SUPPORTED_ORDERS:
            raise ValueError(f"truncation order must be one of {SUPPORTED_ORDERS}")

    @property
    def k(self) -> np.ndarray:
        """k_i for even i up to the truncation order, recomputed on demand."""
        return taylor_coefficients(self.diode, self.truncation_order)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(range(2, self.truncation_order + 1, 2))


@dataclass(frozen=True)
class Waveform:
    """Multisine design variable: amplitudes S and phases Phi, both (N, M)."""

    amplitudes: np.ndarray
    phases: np.ndarray
    grid: FrequencyGrid
    power_budget: float | None = None

    def __post_init__(self):
        s = np.asarray(self.amplitudes, dtype=float)
        phi = np.asarray(self.phases, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if phi.ndim == 1:
            phi = phi[:, None]
        if s.shape != phi.shape or s.ndim != 2:
            raise ValueError("amplitudes and phases must share shape (N, M)")
        if s.shape[0] != self.grid.n_tones:
            raise ValueError("amplitude rows must match the tone count")
        if np.any(s < 0) or not np.all(np.isfinite(s)) or not np.all(np.isfinite(phi)):
            raise ValueError("amplitudes must be finite and nonnegative, phases finite")
        object.__setattr__(self, "amplitudes", s)
        object.__setattr__(self, "phases", phi)
        if self.power_budget is not None:
            p = self.transmit_power
            if p > self.power_budget * (1.0 + _POWER_FEAS_RTOL):
                raise ValueError(
                    f"transmit power {p} exceeds budget {self.power_budget}")

    @property
    def n_tones(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def weights(self) -> np.ndarray:
        """Complex per-tone/antenna weights s*exp(j*phi)."""
        return self.amplitudes * np.exp(1j * self.phases)

    @property
    def transmit_power(self) -> float:
        return 0.5 * float(np.sum(self.amplitudes ** 2))


def received_tone_coefficients(waveform: Waveform,
                               channel: ChannelRealization) -> np.ndarray:
    """Complex amplitude of each received tone: r_n = h_n . w_n."""
    h = channel.require_single_rectenna()
    w = waveform.weights
    if h.shape != w.shape:
        raise ValueError(f"channel {h.shape} and waveform {w.shape} differ")
    return np.einsum("nm,nm->n", h, w)


def _five_smooth(n: int) -> int:
    """Smallest length >= n with no prime factor above 5, one the FFT
    handles without a slow prime-length pass."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


class DCKernel:
    """z_dc as a function of the received tone coefficients r.

    The equal-sum index constraints (n0+n1 = n2+n3, ...) collapse into
    norms of repeated self-convolutions of r: the order-4 sum equals
    sum_sigma |(r*r)_sigma|^2 and the order-6 sum equals
    sum_sigma |(r*r*r)_sigma|^2, which sidesteps the O(N^3)/O(N^5) tuple
    enumeration kept in the posynomial view.  The gradient, and for real r
    (aligned phases) the Hessian, follow from correlations of the same
    convolutions.  `value` also takes a (rows, N) batch, as the Monte Carlo
    scaling checks draw it, and `order_terms` gives a batch's term of each
    order.  The Taylor constants are computed once, at construction.
    """

    def __init__(self, params: RectennaParams):
        r_ant = params.diode.r_ant
        self.truncation_order = params.truncation_order
        self._k = {i: k * r_ant ** (i / 2)
                   for i, k in zip(params.orders, params.k)}
        self._w = {i: k * _DC_PREFACTOR[i] for i, k in self._k.items()}

    def _term(self, order: int, conv: np.ndarray) -> float:
        # `np.sum`'s reduction, without its dispatch wrapper
        return self._k[order] * (_DC_PREFACTOR[order]
                                 * float(np.add.reduce(np.abs(conv) ** 2)))

    def value(self, r: np.ndarray) -> float | np.ndarray:
        """z_dc for complex (or real) tone coefficients r.

        A 1-D r gives the float of `value_grad_hess`.  A (rows, N) batch
        gives one z_dc per row, the sum of its `order_terms`.
        """
        r = np.asarray(r)
        if r.ndim <= 1:
            return self.value_grad_hess(r)[0]
        return sum(self.order_terms(r))

    def order_terms(self, r: np.ndarray) -> np.ndarray:
        """The (orders, rows) terms of z_dc of each even order i up to the
        truncation order, for a (rows, N) batch r.  Term i is homogeneous
        of degree i, so the row c r has the terms |c|^i times those of r.

        Each row takes one zero-padded FFT R, of a 5-smooth length
        L >= (order/2)(N-1)+1: no self-convolution up to the truncation
        order wraps around at such a length, so by Parseval the order-i sum
        is mean_f |R_f|^i, with no inverse transform.  A real row's
        spectrum is conjugate-symmetric, so its `rfft` holds every |R_f|:
        the sum over all L bins is twice the sum over the `rfft` bins less
        bin 0 and, for an even L, the Nyquist bin.

        The rows go through in blocks of about `_BATCH_BINS` spectrum bins,
        which bounds the temporaries.  Every step works row by row and no
        sum goes through BLAS, so a row's terms do not depend on its block.
        """
        r = np.asarray(r)
        n_fft = _five_smooth(self.truncation_order // 2 * (r.shape[-1] - 1)
                             + 1)
        step = max(1, _BATCH_BINS // n_fft)
        terms = np.empty((len(self._w), len(r)))
        for i in range(0, len(r), step):
            self._batch_terms(r[i:i + step], n_fft, terms[:, i:i + step])
        return terms

    def _batch_terms(self, r: np.ndarray, n_fft: int,
                     out: np.ndarray) -> None:
        """Write the (orders, rows) terms of one row block into `out`."""
        real = not np.iscomplexobj(r)
        spectrum = (np.fft.rfft if real else np.fft.fft)(r, n=n_fft, axis=-1)
        power = np.square(spectrum.real)
        power += np.square(spectrum.imag)
        level = power
        for row, (order, w) in enumerate(self._w.items()):
            if order > 2:
                level = level * power
            total = np.add.reduce(level, axis=-1)
            if real:
                total *= 2.0
                total -= level[:, 0]
                if n_fft % 2 == 0:
                    total -= level[:, -1]
            total /= n_fft
            np.multiply(w, total, out=out[row])

    def value_grad_hess(self, r: np.ndarray, want_hess: bool = False):
        """(z, gradient, Hessian or None) of z_dc in the tone coefficients r.

        With c2 = r*r and c3 = c2*r, the order-4 sum |c2|^2 has gradient
        4 (c2 corr r) and Hessian 8 T(r corr r) + 4 H(c2); the order-6 sum
        |c3|^2 has gradient 6 (c3 corr c2) and Hessian
        18 T(c2 corr c2) + 12 H(c3 corr r).  T builds the Toeplitz matrix
        of a lag sequence (entry n, p at lag n - p) and H the Hankel
        matrix of a sequence (entry n, p at index n + p).  `np.correlate`
        conjugates its second argument, so for complex r the gradient is
        2 dz/d conj(r) = dz/d Re r + j dz/d Im r; the Hessian is for real r
        only.
        """
        r = np.asarray(r)
        n = r.size
        w = self._w
        z = self._term(2, r)
        grad = 2.0 * w[2] * r
        hess = None
        if want_hess:
            idx = np.arange(n)
            lag, hankel = np.subtract.outer(idx, idx), np.add.outer(idx, idx)
            hess = 2.0 * w[2] * np.eye(n)
        if self.truncation_order >= 4:
            c2 = np.convolve(r, r)
            z += self._term(4, c2)
            grad += 4.0 * w[4] * np.correlate(c2, r, "valid")
            if want_hess:
                auto = np.correlate(r, r, "full")
                hess += w[4] * (8.0 * auto[n - 1 + lag] + 4.0 * c2[hankel])
        if self.truncation_order >= 6:
            c3 = np.convolve(c2, r)
            z += self._term(6, c3)
            grad += 6.0 * w[6] * np.correlate(c3, c2, "valid")
            if want_hess:
                auto = np.correlate(c2, c2, "full")
                cross = np.correlate(c3, r, "valid")
                hess += w[6] * (18.0 * auto[2 * n - 2 + lag]
                                + 12.0 * cross[hankel])
        return z, grad, hess


def zdc_analytic(waveform: Waveform, channel: ChannelRealization,
                 params: RectennaParams) -> float:
    """Rectified-DC surrogate z_dc for a waveform over a channel."""
    r = received_tone_coefficients(waveform, channel)
    return DCKernel(params).value(r)


def zdc_time_average(waveform: Waveform, channel: ChannelRealization,
                     params: RectennaParams) -> float:
    """Independent z_dc oracle: sample y(t) and average its powers.

    Requires a commensurate grid (f0 an integer multiple of the spacing) so
    that y is periodic.  The sample count exceeds the highest harmonic of
    y^i by a wide margin, making each trigonometric average exact up to
    rounding.
    """
    grid = waveform.grid
    n_samples = _ORACLE_OVERSAMPLE * params.truncation_order \
        * (grid.carrier_multiple() + grid.n_tones)
    r = received_tone_coefficients(waveform, channel)
    y = np.concatenate([r.real, r.imag]) @ period_basis(grid, n_samples)
    return sum(k * params.diode.r_ant ** (i / 2) * float(np.mean(y ** i))
               for i, k in zip(params.orders, params.k))


def monotone_root(f, lo: float, hi: float) -> float:
    """Root of an increasing f on [lo, hi], where f(lo) <= 0 <= f(hi).

    `f(x)` returns (value, derivative).  Newton steps are kept while they
    stay inside the shrinking bracket and shrink to under half the previous
    step; otherwise the bracket is bisected, so a Newton crawl along an
    exponential cannot stall the search.  Stops once a Newton step falls
    below 4 eps relative, after taking it, or the bracket has closed.
    """
    tol = 4 * np.finfo(float).eps
    x = 0.5 * (lo + hi)
    last = hi - lo
    for _ in range(300):
        value, slope = f(x)
        step = value / slope
        if abs(step) <= tol * abs(x):
            return x - step
        if value < 0.0:
            lo = x
        else:
            hi = x
        if not (lo < x - step < hi and 2.0 * abs(step) <= abs(last)):
            step = x - 0.5 * (lo + hi)
            if abs(step) <= tol * abs(x):
                return x
        last = step
        x -= step
    return x


def iout_fixed_point(zdc_value: float, params: RectennaParams) -> float:
    """DC output current solving exp(R_L*i/(n*v_t))*(i + i_s) = i_s + z_dc.

    The left side is strictly increasing in i, so the root is unique;
    solved in log form to dodge exponential overflow.  The log of
    (i + i_s)/(i_s + z_dc) goes through log1p near a ratio of 1, so that a
    small z_dc keeps its relative accuracy.
    """
    if zdc_value < 0:
        raise ValueError("zdc_value must be nonnegative")
    if zdc_value == 0.0:
        return 0.0
    d = params.diode
    nvt = d.ideality * d.v_t
    total = d.i_s + zdc_value

    def g(i):
        ratio = (i + d.i_s) / total
        log_ratio = math.log(ratio) if ratio < 0.5 \
            else math.log1p((i - zdc_value) / total)
        return (d.r_load * i / nvt + log_ratio,
                d.r_load / nvt + 1.0 / (i + d.i_s))

    hi = nvt / d.r_load
    while g(hi)[0] < 0:
        hi *= 2.0
    return monotone_root(g, 0.0, hi)


def period_basis(grid: FrequencyGrid, samples: int,
                 carrier: float | None = None) -> np.ndarray:
    """B (2N x K) with [Re r, Im r] @ B = Re sum_n r_n exp(j w_n t_k) at
    t_k = k T / K, k < K, for tone coefficients r; T = 1/spacing.

    Tone n runs c + n cycles per period, so its phase at t_k is
    2 pi ((c + n) k mod K) / K: for an integer c, an exact entry of one
    K-entry table.  c defaults to the carrier multiple, which raises on a
    grid that is not commensurate.
    """
    if carrier is None:
        carrier = grid.carrier_multiple()
    k = np.arange(samples)
    exact = float(carrier).is_integer()
    cycles = (int(carrier) if exact else carrier) + np.arange(grid.n_tones)
    turns = np.outer(cycles, k) % samples
    angle = (2.0 * np.pi / samples) * (k if exact else turns)
    table = np.stack([np.cos(angle), -np.sin(angle)])
    if exact:
        table = table.take(turns, axis=1)
    return table.reshape(-1, samples)


def papr_basis(grid: FrequencyGrid, oversampling: int) -> np.ndarray:
    """`period_basis` at the PAPR sample times t_q = q T / (N Os); the
    carrier multiple keeps any fraction, so every grid is sampled as it is."""
    return period_basis(grid, grid.n_tones * oversampling,
                        grid.f0 / grid.spacing)


def _sampled_paprs(amplitudes: np.ndarray, phases: np.ndarray,
                   basis: np.ndarray) -> dict:
    """{antenna m: max_k x_m(t_k)^2 / (||s_m||^2 / 2)} over the antennas
    that transmit, x_m(t) = sum_n s_nm cos(w_n t + phi_nm)."""
    x = np.concatenate([amplitudes * np.cos(phases),
                        amplitudes * np.sin(phases)]).T @ basis
    peak = (x * x).max(axis=1)
    mean = 0.5 * (amplitudes * amplitudes).sum(axis=0)
    return {m: float(peak[m] / mean[m]) for m in np.flatnonzero(mean).tolist()}


def worst_papr(amplitudes: np.ndarray, phases: np.ndarray,
               basis: np.ndarray) -> float:
    """The largest sampled PAPR over the antennas that transmit, or 0."""
    return max(_sampled_paprs(amplitudes, phases, basis).values(), default=0.0)


def antenna_paprs(waveform: Waveform, oversampling: int = 8) -> dict:
    """{antenna: sampled PAPR} over the antennas that transmit."""
    return _sampled_paprs(waveform.amplitudes, waveform.phases,
                         papr_basis(waveform.grid, oversampling))


def papr(waveform: Waveform, antenna: int, oversampling: int = 8) -> float:
    """Sampled peak-to-average power ratio of one antenna's transmit signal."""
    paprs = antenna_paprs(waveform, oversampling)
    if antenna not in paprs:
        raise ValueError(f"antenna {antenna} transmits no power")
    return paprs[antenna]


# ---------------------------------------------------------------------------
# plain-text waveform serialization
# ---------------------------------------------------------------------------

def save_waveform_text(path, waveform: Waveform) -> None:
    """Header (N, M, f0, spacing, power budget or nan) then per-tone (s, phi)
    pairs."""
    g, budget = waveform.grid, waveform.power_budget
    _save_pairs(path, "waveform", waveform.amplitudes, waveform.phases, g.f0,
                g.spacing, math.nan if budget is None else budget)


def load_waveform_text(path) -> Waveform:
    s, phi, (f0, spacing, budget) = _load_pairs(path, "waveform", 3)
    return Waveform(s, phi, FrequencyGrid(s.shape[0], f0, spacing),
                    power_budget=None if math.isnan(budget) else budget)
