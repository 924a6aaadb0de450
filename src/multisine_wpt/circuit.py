"""Time-domain single-diode rectifier simulation with an RC load.

This is the model-free validation path: no Taylor truncation, just the
exponential diode law under ideal matching, where the rectifier input
voltage is the received signal scaled by the antenna resistance,
v_in(t) = y(t) * sqrt(R_ant).  Time is discretized by the implicit
trapezoidal rule (A-stable, second order) on K equal steps of one
waveform period, and the steady state is solved for directly: the K
trapezoidal equations under the periodic condition v_0 = v_K, by damped
Newton over the whole period (finite-difference periodic steady state:
Aprille & Trick, Proc. IEEE 1972; Kundert, White & Sangiovanni-
Vincentelli, 1990).  The Newton Jacobian is lower bidiagonal plus one
corner entry, so every row of a batch goes into one banded solve per
iteration; the CLI, the presets and the demos put every strategy's rows
into one batch.  A row whose solve stops at the iteration cap is counted
and makes the run not steady.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .channel import ChannelRealization, FrequencyGrid
from .rectenna import (DiodeParams, Waveform, monotone_root,
                       received_tone_coefficients)

_EXP_CLIP = 200.0  # caps the diode exponent; far above any modeled drive
_NEWTON_CAP = 200  # damped Newton iterations of the periodic solve
_CHUNK_ENTRIES = 1 << 16  # rows x steps per banded system; cache-sized


@dataclass(frozen=True)
class CircuitParams:
    """Diode constants plus the output smoothing capacitor and DC load."""

    diode: DiodeParams = DiodeParams()
    c_out: float = 100e-12
    r_load: float | None = None  # defaults to the diode's DC load

    def __post_init__(self):
        if self.c_out <= 0:
            raise ValueError("c_out must be positive")
        if self.r_load is not None and self.r_load <= 0:
            raise ValueError("r_load must be positive")

    @property
    def load(self) -> float:
        return self.diode.r_load if self.r_load is None else self.r_load


@dataclass
class SimTrace:
    """One steady period, possibly decimated, plus each Newton iterate's mean."""

    time: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray
    i_d: np.ndarray
    period_mean_vout: np.ndarray
    steady: bool
    dt: float
    store_every: int
    load: float
    newton_cap_hits: int  # rows whose periodic Newton solve hit its cap


class SteadyStateError(RuntimeError):
    """Raised when a quantity requires steady state that was not reached."""


def _default_dt(grid: FrequencyGrid, circuit: CircuitParams) -> float:
    """min(1/(200 f_max), R_L C/50): resolves the carrier and the RC pole."""
    f_max = grid.frequencies[-1]
    rc_step = circuit.load * circuit.c_out / 50.0
    if f_max <= 0:  # constant drive: only the RC pole sets the scale
        return rc_step
    return min(1.0 / (200.0 * f_max), rc_step)


def _diode_current(v_drop: np.ndarray, d: DiodeParams) -> np.ndarray:
    arg = np.clip(v_drop / (d.ideality * d.v_t), None, _EXP_CLIP)
    return d.i_s * np.expm1(arg)


def _drive_basis(omegas: np.ndarray, times: np.ndarray,
                 sqrt_rant: float) -> np.ndarray:
    """B (2N x K) with v_in = [Re r, Im r] @ B for received-tone rows r."""
    phase = np.outer(omegas, times)
    return sqrt_rant * np.vstack([np.cos(phase), -np.sin(phase)])


def _drive(tones: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rectifier input voltage for each instance (rows) at each step."""
    return np.hstack([tones.real, tones.imag]) @ basis


def _periodic_newton(vin: np.ndarray, circuit: CircuitParams, dt: float,
                     means: list | None = None):
    """Periodic trapezoidal steady state v_1..v_K for each row of `vin`.

    With a = (dt/2C) i_s, b = (dt/2C)/R_L and e_k = exp((vin_k - v_k)/(n v_t))
    step k of the trapezoidal rule leaves the residual
    R_k = (1+b) v_k - a e_k - (1-b) v_{k-1} - a e_{k-1} + 2a,  v_0 = v_K.
    Its Jacobian is lower bidiagonal, 1 + j_k on the diagonal and
    -(1 - j_{k-1}) below it with j = a e/(n v_t) + b, plus one corner entry
    -(1 - j_K) at (1, K).  Every active row's bidiagonal part is stacked into
    one lower-triangular banded system (zero coupling at row boundaries),
    solved once per iteration by forward substitution (LAPACK dtbtrs) for
    the residual p and for q, the response to (1 - j_K) at the row's first
    unknown; the corner then closes as dv = p + p_K/(1 - q_K) q.  j > 0
    gives 1 + j_k > |1 - j_k|, so every column is diagonally dominant and
    the substitution is stable without pivoting.  Steps are clipped to
    0.2 V per component, and a row stops updating once
    max|dv| <= 1e-14 max(1e-3, max|v|), so its answer does not depend on
    the rows it shares a batch with.  Returns the solution and the rows'
    passed flags; `means` collects each iterate's period mean of a
    single-row call.
    """
    d = circuit.diode
    inv_nvt = 1.0 / (d.ideality * d.v_t)
    half = dt / (2.0 * circuit.c_out)
    a = half * d.i_s
    b = half / circuit.load
    rows, steps = vin.shape
    v = np.empty_like(vin)
    passed = np.zeros(rows, dtype=bool)
    active = np.arange(rows)
    # peak-detector start: a conducting diode drops a few n v_t
    va = np.repeat(np.maximum(vin.max(axis=1) - 3.0 / inv_nvt, 0.0)[:, None],
                   steps, axis=1)
    for _ in range(_NEWTON_CAP):
        em1 = np.expm1(np.minimum((vin - va) * inv_nvt, _EXP_CLIP))
        jac = a * inv_nvt * (em1 + 1.0) + b
        vp = np.roll(va, 1, axis=1)
        resid = (va - vp) + b * (va + vp) - a * (em1 + np.roll(em1, 1, axis=1))
        n = va.shape[0]
        # LAPACK's column-major layout: diagonal and sub-diagonal interleaved
        banded = np.empty((n * steps, 2)).T
        banded[0] = (1.0 + jac).ravel()
        sub = jac - 1.0
        sub[:, -1] = 0.0
        banded[1] = sub.ravel()
        rhs = np.zeros((2, n * steps))
        rhs[0] = resid.ravel()
        rhs[1, ::steps] = 1.0 - jac[:, -1]
        sol, _ = dtbtrs(banded, rhs.T, uplo="L", overwrite_b=1)
        p = sol[:, 0].reshape(n, steps)
        q = sol[:, 1].reshape(n, steps)
        dv = np.clip(p + (p[:, -1] / (1.0 - q[:, -1]))[:, None] * q, -0.2, 0.2)
        va = va - dv
        if means is not None:
            means.append(float(va.mean()))
        done = np.abs(dv).max(axis=1) \
            <= 1e-14 * np.maximum(1e-3, np.abs(va).max(axis=1))
        if done.any():
            v[active[done]] = va[done]
            passed[active[done]] = True
            active, va, vin = active[~done], va[~done], vin[~done]
            if active.size == 0:
                break
    v[active] = va  # rows stopped by the cap keep their last iterate
    return v, passed


def _sample_times(grid: FrequencyGrid, circuit: CircuitParams,
                  dt: float | None) -> np.ndarray:
    """t = dt, 2 dt, ..., T: K >= 8 equal steps of one period, none above dt."""
    grid.carrier_multiple()  # commensurate grid required for periodicity
    if dt is None:
        dt = _default_dt(grid, circuit)
    steps = max(int(math.ceil(grid.period / dt)), 8)
    return (grid.period / steps) * np.arange(1, steps + 1)


def simulate(waveform: Waveform, channel: ChannelRealization,
             circuit: CircuitParams, dt: float | None = None,
             store_every: int | None = None) -> SimTrace:
    """Steady-state rectifier trace over one period of the received multisine.

    One periodic Newton solve gives v_out at t = dt, ..., T; the period
    mean of each of its iterates is kept, the last being the steady one.  A
    solve that stops at its iteration cap is flagged on the trace, never
    silently ignored.
    """
    r = received_tone_coefficients(waveform, channel)
    times = _sample_times(waveform.grid, circuit, dt)
    dt = float(times[0])
    vin = _drive(r[None, :], _drive_basis(waveform.grid.omegas, times,
                                          math.sqrt(circuit.diode.r_ant)))
    means = []
    vout, passed = _periodic_newton(vin, circuit, dt, means)
    if store_every is None:
        store_every = max(1, times.size // 4096)
    idx = np.arange(0, times.size, store_every)
    v_in = vin[0, idx]
    v_out = vout[0, idx]
    i_d = _diode_current(v_in - v_out, circuit.diode)
    return SimTrace(time=times[idx], v_in=v_in, v_out=v_out, i_d=i_d,
                    period_mean_vout=np.array(means), steady=bool(passed[0]),
                    dt=dt, store_every=store_every, load=circuit.load,
                    newton_cap_hits=int(not passed[0]))


def simulate_ensemble(tone_rows: np.ndarray, grid: FrequencyGrid,
                      circuit: CircuitParams,
                      dt: float | None = None) -> tuple[np.ndarray, bool]:
    """Steady-state DC output power for a batch of received-tone rows.

    Rows are independent, so one call can carry the rows of several
    strategies; they are solved in chunks of at most `_CHUNK_ENTRIES`
    unknowns.  Returns (power array, every-row-passed flag).
    """
    tone_rows = np.asarray(tone_rows, dtype=complex)
    times = _sample_times(grid, circuit, dt)
    basis = _drive_basis(grid.omegas, times, math.sqrt(circuit.diode.r_ant))
    chunk = max(1, _CHUNK_ENTRIES // times.size)
    means, passed = [], []
    for r0 in range(0, tone_rows.shape[0], chunk):
        vout, ok = _periodic_newton(_drive(tone_rows[r0:r0 + chunk], basis),
                                    circuit, float(times[0]))
        means.append(vout.mean(axis=1))
        passed.append(ok)
    return np.concatenate(means) ** 2 / circuit.load, \
        bool(np.all(np.concatenate(passed)))


def dc_operating_point(v_source: float, circuit: CircuitParams) -> float:
    """Algebraic steady state for a DC drive: diode current equals load current.

    Solves v/R_L - i_s*(exp((V - v)/(n*v_t)) - 1) = 0 by bracketed
    Newton-bisection; the left side grows in v, so the root is unique.
    """
    d = circuit.diode
    r_load = circuit.load
    nvt = d.ideality * d.v_t
    if v_source == 0.0:
        return 0.0

    def f(v):
        drop = min((v_source - v) / nvt, _EXP_CLIP)
        return (v / r_load - d.i_s * math.expm1(drop),
                1.0 / r_load + d.i_s * math.exp(drop) / nvt)

    return monotone_root(f, -d.i_s * r_load, max(v_source, 0.0) + 1e-9)


def harvested_dc_power(trace: SimTrace) -> float:
    """Mean output voltage over the final period, squared, over the load."""
    if not trace.steady:
        raise SteadyStateError(
            "steady state not reached: the periodic solve stopped at its "
            "Newton cap")
    mean_v = float(trace.period_mean_vout[-1])
    return mean_v ** 2 / trace.load


def export_trace_csv(trace: SimTrace, path, decimation: int = 1,
                     header_comment: str | None = None) -> None:
    """CSV dump of (t, v_in, v_out, i_d), optionally decimated further."""
    if decimation < 1:
        raise ValueError("decimation must be >= 1")
    with open(path, "w") as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        f.write("t_s,v_in_v,v_out_v,i_d_a\n")
        for k in range(0, trace.time.size, decimation):
            f.write(f"{trace.time[k]:.17g},{trace.v_in[k]:.17g},"
                    f"{trace.v_out[k]:.17g},{trace.i_d[k]:.17g}\n")
