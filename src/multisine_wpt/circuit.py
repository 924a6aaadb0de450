"""Time-domain single-diode rectifier simulation with an RC load.

This is the model-free validation path: no Taylor truncation, just the
exponential diode law integrated through time under ideal matching, where
the rectifier input voltage is the received signal scaled by the antenna
resistance,  v_in(t) = y(t) * sqrt(R_ant).  The integrator is an implicit
trapezoidal rule (A-stable, second order) with a damped scalar Newton
solve per step, vectorized over a batch of independent instances so that
Monte Carlo ensembles of rectifier runs stay cheap: the CLI, the presets
and the demos put every strategy's rows into one batch, because a step
costs about the same at batch 1 as at batch 100.  Steady state is reached
by shooting on the scalar period map (Aprille & Trick, Proc. IEEE 1972):
each period also carries the map's slope d v_end / d v_start, a product of
per-step factors built from the exponential the step already evaluates,
and the next period starts from the Newton update of its start state.
Newton solves that stop at their iteration cap are counted, and a cap hit
in the reported period makes the run not steady.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .channel import ChannelRealization, FrequencyGrid
from .rectenna import DiodeParams, Waveform, received_tone_coefficients

_EXP_CLIP = 200.0  # caps the diode exponent; far above any modeled drive
_NEWTON_CAP = 60  # damped Newton iterations per time step
_DRIVE_BLOCK = 256  # time steps of input voltage per matrix product


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
    """Stored (possibly decimated) trajectories plus per-period summaries."""

    time: np.ndarray
    v_in: np.ndarray
    v_out: np.ndarray
    i_d: np.ndarray
    period_mean_vout: np.ndarray
    steady: bool
    dt: float
    store_every: int
    load: float
    newton_cap_hits: int  # time steps whose Newton solve hit its cap


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


def _drive(tones: np.ndarray, omegas: np.ndarray, times: np.ndarray,
           sqrt_rant: float) -> np.ndarray:
    """Rectifier input voltage at `times` (rows) for each instance (columns)."""
    return sqrt_rant * np.real(np.exp(1j * np.outer(times, omegas)) @ tones.T)


def _advance_period(v: np.ndarray, tones: np.ndarray, omegas: np.ndarray,
                    dt: float, steps: int, circuit: CircuitParams,
                    sqrt_rant: float, collect: bool):
    """Integrate one waveform period, from its start, for a batch of instances.

    Returns the end state, the trapezoid-weighted period mean of v_out per
    instance, the period map's slope d v_end / d v_start per instance, the
    number of steps whose Newton solve stopped at its iteration cap and,
    when `collect` is set, the full per-step (v_in, v_out) arrays for trace
    storage.

    A step costs a few dozen numpy calls whatever the batch size, so the
    loop keeps them few: the drive comes in blocks of `_DRIVE_BLOCK` steps
    from one matrix product, and with a = (dt/2C) i_s, b = (dt/2C)/R_L and
    e = exp((v_in - v)/(n v_t)) the trapezoidal update reads
    (1 + b) v' - a e' = c,  c = (1 - b) v + a e - 2a.  The loop builds new
    arrays rather than updating in place: at batch 1, which `simulate`
    runs, numpy's in-place calls cost more.
    """
    d = circuit.diode
    inv_nvt = 1.0 / (d.ideality * d.v_t)
    half = dt / (2.0 * circuit.c_out)
    a = half * d.i_s
    b = half / circuit.load
    batch = v.shape[0]

    mean_acc = 0.5 * v
    slope = np.ones(batch)
    cap_hits = 0
    vin_steps = np.empty((steps, batch)) if collect else None
    vout_steps = np.empty((steps, batch)) if collect else None

    def update_terms(vin, v):
        # c of the next update and j = -(dt/2) f'(v) = a e/(n v_t) + b, both
        # from the one exponential of the diode current at the accepted state
        ae = a * np.exp(np.minimum((vin - v) * inv_nvt, _EXP_CLIP))
        return (1.0 - b) * v + ae - 2.0 * a, ae * inv_nvt + b

    c, jac_prev = update_terms(_drive(tones, omegas, np.zeros(1),
                                      sqrt_rant)[0], v)
    v_scale = float(np.abs(v).max())
    k = 0
    for k0 in range(0, steps, _DRIVE_BLOCK):
        times = dt * np.arange(k0 + 1, min(k0 + _DRIVE_BLOCK, steps) + 1)
        for vin in _drive(tones, omegas, times, sqrt_rant):
            v_new = v
            moved = 0.0
            # damped Newton on the trapezoidal update; the residual is
            # strictly increasing in v_new, so clipped steps cannot
            # overshoot forever.  The stopping test is
            # max|step| <= 1e-14 max(1e-3, max|v_new|); the bound
            # max|v_new| <= v_scale + moved skips its reduction while the
            # test cannot pass.
            for _ in range(_NEWTON_CAP):
                ae = a * np.exp(np.minimum((vin - v_new) * inv_nvt,
                                           _EXP_CLIP))
                delta = ((1.0 + b) * v_new - ae - c) \
                    / (ae * inv_nvt + (1.0 + b))
                delta = np.maximum(np.minimum(delta, 0.2), -0.2)
                v_new = v_new - delta
                step = float(np.abs(delta).max())
                moved += step
                if step <= 1e-14 * max(1e-3, v_scale + moved):
                    v_scale = float(np.abs(v_new).max())
                    if step <= 1e-14 * max(1e-3, v_scale):
                        break
            else:
                cap_hits += 1
                v_scale = float(np.abs(v_new).max())
            v = v_new
            c, jac_next = update_terms(vin, v)
            # chain rule through the implicit step:
            # dv_{k+1}/dv_k = (1 + dt/2 f'(v_k)) / (1 - dt/2 f'(v_{k+1}))
            slope = slope * (1.0 - jac_prev) / (1.0 + jac_next)
            jac_prev = jac_next
            mean_acc = mean_acc + v
            if collect:
                vin_steps[k] = vin
                vout_steps[k] = v
            k += 1
    mean_acc = mean_acc - 0.5 * v
    return v, mean_acc / steps, slope, cap_hits, vin_steps, vout_steps


def _shooting_update(v_start: np.ndarray, v_end: np.ndarray,
                     slope: np.ndarray, v_low: float,
                     v_high: np.ndarray) -> np.ndarray:
    """Safeguarded Newton step toward the fixed point of the period map P.

    v <- v + (P(v) - v) / (1 - P'(v)) (Aprille & Trick, Proc. IEEE 1972).
    A row whose slope is not below 1 (possible in a period that starts
    far from steady state with the diode conducting hard) takes the plain
    step v <- P(v), and every row is kept inside the physically reachable
    output range [-i_s R_L, peak input voltage].
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        newton = v_start + (v_end - v_start) / (1.0 - slope)
    return np.clip(np.where(slope < 1.0, newton, v_end), v_low, v_high)


def _run_to_steady(tones: np.ndarray, grid: FrequencyGrid,
                   circuit: CircuitParams, steady_tol: float,
                   max_periods: int, dt: float | None,
                   collect_last: bool):
    """Integrate whole periods until the period means settle.

    Each period starts from the shooting update of the previous one, so
    a long RC time constant costs Newton steps, not hundreds of periods.
    The run is steady when two consecutive period means agree to
    `steady_tol` (relative) and the final, reported period had no Newton
    solve stopped at its iteration cap.
    """
    grid.carrier_multiple()  # commensurate grid required for periodicity
    if dt is None:
        dt = _default_dt(grid, circuit)
    steps = max(int(math.ceil(grid.period / dt)), 8)
    dt = grid.period / steps
    sqrt_rant = math.sqrt(circuit.diode.r_ant)
    batch = tones.shape[0]
    v_low = -circuit.diode.i_s * circuit.load
    v_high = sqrt_rant * np.sum(np.abs(tones), axis=1)
    v = np.zeros(batch)
    means = []
    steady = False
    cap_hits = last_hits = 0
    t0 = 0.0
    for period in range(max_periods):
        v_end, mean, slope, last_hits, _, _ = _advance_period(
            v, tones, grid.omegas, dt, steps, circuit, sqrt_rant,
            collect=False)
        cap_hits += last_hits
        means.append(mean)
        v = _shooting_update(v, v_end, slope, v_low, v_high)
        t0 += grid.period
        if period > 0:
            prev = means[-2]
            scale = np.maximum(np.abs(mean), 1e-15)
            if np.all(np.abs(mean - prev) <= steady_tol * scale):
                steady = True
                break
    trace_data = None
    if collect_last:
        _, mean, _, last_hits, vin_s, vout_s = _advance_period(
            v, tones, grid.omegas, dt, steps, circuit, sqrt_rant,
            collect=True)
        cap_hits += last_hits
        means.append(mean)
        trace_data = (t0, vin_s, vout_s)
    steady = steady and last_hits == 0
    return np.column_stack(means), steady, cap_hits, dt, steps, trace_data


def simulate(waveform: Waveform, channel: ChannelRealization,
             circuit: CircuitParams, steady_tol: float = 1e-6,
             max_periods: int = 200, dt: float | None = None,
             store_every: int | None = None) -> SimTrace:
    """Drive the rectifier with the received multisine until steady state.

    Runs whole waveform periods, watching the per-period mean output
    voltage; once consecutive periods agree to `steady_tol` (relative) one
    more period is integrated and stored as the trace.  A hit period cap,
    or a Newton cap hit in the stored period, is flagged on the trace,
    never silently ignored.
    """
    r = received_tone_coefficients(waveform, channel)
    means, steady, cap_hits, dt, steps, trace_data = _run_to_steady(
        r[None, :], waveform.grid, circuit, steady_tol, max_periods, dt,
        collect_last=True)
    t0, vin_s, vout_s = trace_data
    if store_every is None:
        store_every = max(1, steps // 4096)
    idx = np.arange(0, steps, store_every)
    t = t0 + (idx + 1) * dt
    v_in = vin_s[idx, 0]
    v_out = vout_s[idx, 0]
    i_d = _diode_current(v_in - v_out, circuit.diode)
    return SimTrace(time=t, v_in=v_in, v_out=v_out, i_d=i_d,
                    period_mean_vout=means[0], steady=steady, dt=dt,
                    store_every=store_every, load=circuit.load,
                    newton_cap_hits=cap_hits)


def simulate_ensemble(tone_rows: np.ndarray, grid: FrequencyGrid,
                      circuit: CircuitParams, steady_tol: float = 1e-6,
                      max_periods: int = 200,
                      dt: float | None = None) -> tuple[np.ndarray, bool]:
    """Steady-state DC output power for a batch of received-tone rows.

    Memory-light companion to `simulate`: only per-period means are kept.
    Rows are independent, so one call can carry the rows of several
    strategies.  Returns (power array, all-steady flag).
    """
    means, steady, _, _, _, _ = _run_to_steady(
        np.asarray(tone_rows, dtype=complex), grid, circuit, steady_tol,
        max_periods, dt, collect_last=False)
    return means[:, -1] ** 2 / circuit.load, steady


def dc_operating_point(v_source: float, circuit: CircuitParams) -> float:
    """Algebraic steady state for a DC drive: diode current equals load current.

    Solves i_s*(exp((V - v)/(n*v_t)) - 1) = v/R_L by bracketed root
    finding; the left side falls and the right side grows in v, so the
    root is unique.  Residual is polished below 1e-14 A.
    """
    d = circuit.diode
    r_load = circuit.load
    nvt = d.ideality * d.v_t
    if v_source == 0.0:
        return 0.0

    def f(v):
        return d.i_s * math.expm1(min((v_source - v) / nvt, _EXP_CLIP)) \
            - v / r_load

    lo = -d.i_s * r_load
    hi = max(v_source, 0.0) + 1e-9
    root = brentq(f, lo, hi, rtol=4 * np.finfo(float).eps)
    for _ in range(2):
        drop = (v_source - root) / nvt
        deriv = -d.i_s * math.exp(min(drop, _EXP_CLIP)) / nvt - 1.0 / r_load
        root -= f(root) / deriv
    return float(root)


def harvested_dc_power(trace: SimTrace) -> float:
    """Mean output voltage over the final period, squared, over the load."""
    if not trace.steady:
        raise SteadyStateError(
            "steady state not reached; rerun with a higher period cap, or a "
            "shorter dt if steps hit the Newton cap "
            f"({trace.newton_cap_hits} did)")
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
