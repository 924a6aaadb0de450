"""Multipath channel generation and per-tone frequency responses.

A channel realization is the complex frequency response ``h[n, m]`` of the
link between transmit antenna ``m`` and the (single-antenna) rectenna at
tone ``n``.  Realizations are produced either from an explicit tapped-delay
multipath model or drawn i.i.d. per tone ("frequencies far apart" regime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

_POWER_SUM_TOL = 1e-12
_CARRIER_TOL = 1e-6  # largest distance of f0/spacing from an integer


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream).

    Philox streams are independent for distinct keys, so Monte Carlo
    fan-out can hand each realization index its own stream without
    coordination.
    """
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream & 0xFFFFFFFFFFFFFFFF],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# fl(1/sqrt(2)).  numpy divides a complex array by the real sqrt(2) by
# multiplying both parts with this rounded reciprocal, so scaling each part
# by it gives the numbers `(re + 1j * im) / np.sqrt(2.0)` gives.
_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class _NormalStream:
    """The standard normals of one generator, drawn in stream order only as
    far as a window needs, and kept only while a window may still read
    them.

    Position p is the p-th normal the generator draws after the stream
    takes it.  A generator's normals do not depend on how its draws split
    the stream, so every window reads the numbers one draw of the whole
    stream would give.  Each draw is kept as its own piece, and a piece is
    dropped whole, so no slice pins a freed front.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._pieces = []  # (position of the first normal, normals)
        self._end = 0      # position after the last normal drawn

    def complex_window(self, start: int, shape, keep: float) -> np.ndarray:
        """Unit-variance circular complex Gaussian draws of `shape` from the
        2 * size normals at position `start`: the real parts first, then
        the imaginary parts, each scaled by fl(1/sqrt(2)).

        No later window reads before position `keep`, so the real parts'
        normals are dropped before the imaginary parts' are drawn unless a
        later window reads them.
        """
        size = math.prod(shape)
        out = np.empty(shape, dtype=complex)
        flat = out.reshape(-1).view(float)  # re, im, re, im, ...
        self._scaled_into(flat[0::2], start, keep)
        self._scaled_into(flat[1::2], start + size, keep)
        return out

    def _scaled_into(self, part: np.ndarray, first: int, keep: float):
        """Write the normals from position `first` on, times fl(1/sqrt(2)),
        into `part`, then drop the pieces that end at or before both `keep`
        and the last normal written."""
        last = first + part.size
        if last > self._end:
            self._pieces.append(
                (self._end, self._rng.standard_normal(last - self._end)))
            self._end = last
        for at, normals in self._pieces:
            lo, hi = max(first, at), min(last, at + normals.size)
            if lo < hi:
                np.multiply(normals[lo - at:hi - at], _INV_SQRT2,
                            out=part[lo - first:hi - first])
        self._pieces = [(at, normals) for at, normals in self._pieces
                        if at + normals.size > min(keep, last)]


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws of the given shape from
    the generator's next 2 * size normals, real parts first."""
    return _NormalStream(rng).complex_window(0, shape, keep=math.inf)


@dataclass(frozen=True)
class PowerDelayProfile:
    """Per-path delays (seconds) and mean powers, normalized to unit sum."""

    delays: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        if delays.ndim != 1 or delays.shape != powers.shape or delays.size == 0:
            raise ValueError("delays and powers must be matching non-empty 1-D arrays")
        if np.any(delays < 0) or np.any(np.diff(delays) < 0):
            raise ValueError("delays must be nonnegative and nondecreasing")
        if np.any(powers <= 0):
            raise ValueError("tap powers must be strictly positive")
        if abs(powers.sum() - 1.0) > _POWER_SUM_TOL:
            raise ValueError("tap powers must sum to 1 (average received power normalization)")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "powers", powers)

    @property
    def n_taps(self) -> int:
        return self.delays.size

    @classmethod
    def exponential(cls, n_taps: int = 18, spacing: float = 20e-9,
                    decay: float = 60e-9) -> "PowerDelayProfile":
        """Exponentially decaying profile, normalized to unit total power.

        Default stand-in for the 18-tap indoor NLOS profile used in the
        evaluation presets; all three parameters are configurable.
        """
        if decay <= 0:
            raise ValueError("decay must be positive")
        delays = spacing * np.arange(n_taps)
        powers = np.exp(-delays / decay)
        return cls(delays, powers / powers.sum())


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear transmit array: element count and spacing (meters)."""

    n_antennas: int = 1
    spacing: float = 0.05

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be >= 1")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")


@dataclass(frozen=True)
class FrequencyGrid:
    """Evenly spaced tones f_n = f0 + n*spacing, n = 0..n_tones-1."""

    n_tones: int
    f0: float
    spacing: float

    def __post_init__(self):
        if self.n_tones < 1:
            raise ValueError("n_tones must be >= 1")
        if self.spacing <= 0:
            raise ValueError("tone spacing must be positive")
        if self.f0 < 0:
            raise ValueError("f0 must be nonnegative")

    @property
    def frequencies(self) -> np.ndarray:
        return self.f0 + self.spacing * np.arange(self.n_tones)

    @property
    def omegas(self) -> np.ndarray:
        return 2.0 * np.pi * self.frequencies

    @property
    def period(self) -> float:
        """Common period of the multisine envelope, 1/spacing."""
        return 1.0 / self.spacing

    def carrier_multiple(self) -> int:
        """f0/spacing as an integer; raises if the grid is not commensurate."""
        ratio = self.f0 / self.spacing
        g = int(round(ratio))
        if abs(ratio - g) > _CARRIER_TOL:
            raise ValueError(
                f"f0={self.f0} is not an integer multiple of spacing={self.spacing}")
        return g

    @classmethod
    def from_bandwidth(cls, n_tones: int, bandwidth: float,
                       carrier_multiple: int) -> "FrequencyGrid":
        """Grid with spacing = bandwidth/n_tones and f0 = carrier_multiple*spacing."""
        spacing = bandwidth / n_tones
        return cls(n_tones, carrier_multiple * spacing, spacing)


@dataclass(frozen=True)
class ChannelRealization:
    """Complex frequency response, shape (N, M) or (N, M, U) for U rectennas."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=complex)
        if h.ndim == 1:
            h = h[:, None]
        if h.ndim not in (2, 3):
            raise ValueError("h must have shape (N, M) or (N, M, U)")
        if not np.all(np.isfinite(h)):
            raise ValueError("channel entries must be finite")
        object.__setattr__(self, "h", h)

    @property
    def n_antennas(self) -> int:
        return self.h.shape[1]

    @property
    def n_rectennas(self) -> int:
        return 1 if self.h.ndim == 2 else self.h.shape[2]

    def rectenna(self, u: int) -> "ChannelRealization":
        if self.h.ndim == 2:
            if u != 0:
                raise IndexError("single-rectenna realization")
            return self
        return ChannelRealization(self.h[:, :, u])

    def require_single_rectenna(self) -> np.ndarray:
        if self.n_rectennas != 1:
            raise ValueError("operation defined for a single rectenna")
        return self.h if self.h.ndim == 2 else self.h[:, :, 0]


def _tap_gains(rng, profile: PowerDelayProfile, count: int) -> np.ndarray:
    """(count, L) gains, each circularly symmetric complex Gaussian with
    the tap's mean power: all real parts drawn first, then all imaginary
    parts."""
    re = rng.standard_normal((count, profile.n_taps))
    im = rng.standard_normal((count, profile.n_taps))
    return (re + 1j * im) * np.sqrt(profile.powers / 2.0)


def frequency_response(gains: np.ndarray, delays: np.ndarray,
                       array: ArrayConfig, directions: np.ndarray | float,
                       grid: FrequencyGrid) -> ChannelRealization:
    """Per-tone response of a ULA over paths of complex `gains`, `delays`
    (seconds) and departure `directions` (radians, or one for all paths).

    h[n, m] = sum_l g_l * exp(j*(-w_n*tau_l + 2*pi*m*(d/lambda_n)*cos(theta_l)))
    with m = 0 for the reference element.
    """
    gains = np.asarray(gains, dtype=complex)
    directions = np.broadcast_to(np.asarray(directions, dtype=float),
                                 gains.shape)
    w = grid.omegas[:, None, None]                      # (N,1,1)
    inv_lambda = (grid.frequencies / SPEED_OF_LIGHT)[:, None, None]
    m = np.arange(array.n_antennas)[None, :, None]      # (1,M,1)
    tau = np.asarray(delays, dtype=float)[None, None, :]  # (1,1,L)
    cos_theta = np.cos(directions)[None, None, :]
    phase = -w * tau + 2.0 * np.pi * m * array.spacing * inv_lambda * cos_theta
    h = np.sum(gains[None, None, :] * np.exp(1j * phase), axis=2)
    return ChannelRealization(h)


def iid_frequency_channel(n_tones: int, n_antennas: int = 1,
                          n_rectennas: int = 1, seed: int = 0,
                          stream: int = 0) -> ChannelRealization:
    """Unit-variance i.i.d. complex Gaussian fading per tone/antenna/rectenna."""
    if min(n_tones, n_antennas, n_rectennas) < 1:
        raise ValueError("all dimensions must be >= 1")
    h = _complex_normal(_rng(seed, stream), (n_tones, n_antennas, n_rectennas))
    if n_rectennas == 1:
        h = h[:, :, 0]
    return ChannelRealization(h)


def multipath_channel(profile: PowerDelayProfile, array: ArrayConfig,
                      grid: FrequencyGrid, seed: int,
                      stream: int = 0) -> ChannelRealization:
    """One multipath realization: taps and departure directions in one draw.

    Directions are uniform over [0, pi); gains follow the profile.  The
    (seed, stream) pair fully determines the realization, so ensemble
    trials can fan out over streams.
    """
    rng = _rng(seed, stream)
    gains = _tap_gains(rng, profile, 1)[0]
    directions = rng.uniform(0.0, np.pi, profile.n_taps)
    return frequency_response(gains, profile.delays, array, directions, grid)


def flat_channel(amplitude: float, phase: float, n_tones: int,
                 n_antennas: int = 1) -> ChannelRealization:
    """Frequency-flat channel: every entry amplitude*exp(j*phase)."""
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    h = np.full((n_tones, n_antennas), amplitude * np.exp(1j * phase),
                dtype=complex)
    return ChannelRealization(h)


def save_channel_text(path, ch: ChannelRealization) -> None:
    """Plain-text export: one line per tone, (re, im) pair per antenna."""
    h = ch.require_single_rectenna()
    n, m = h.shape
    with open(path, "w") as f:
        f.write(f"# channel {n} {m}\n")
        for row in h:
            parts = []
            for v in row:
                parts.append(f"{v.real:.17g} {v.imag:.17g}")
            f.write(" ".join(parts) + "\n")


def load_channel_text(path) -> ChannelRealization:
    with open(path) as f:
        header = f.readline().split()
        if len(header) != 4 or header[:2] != ["#", "channel"]:
            raise ValueError("not a channel text file")
        n, m = int(header[2]), int(header[3])
        h = np.empty((n, m), dtype=complex)
        for i in range(n):
            vals = [float(tok) for tok in f.readline().split()]
            if len(vals) != 2 * m:
                raise ValueError(f"tone row {i} must carry {2 * m} numbers")
            h[i] = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
    return ChannelRealization(h)
