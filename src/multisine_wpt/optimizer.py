"""Waveform design strategies, from closed-form baselines to SCA loops.

Closed-form strategies (`ss`, `up`, `ass`, `mf`, `upmf`, `max_papr`) place
amplitudes directly; the `optimize*` family iterates AM-GM condensation of
the DC objective followed by an inner geometric-program solve (successive
convex approximation).  The joint, decoupled and PAPR designs condense
z_dc from the value and gradient of the rectenna's DC kernel, so its
posynomial is never enumerated (that enumeration is a test oracle); the
multi-rectenna design still condenses its enumerated signomial.  Each
run's iterates can only improve, and the ascent is restarted from every
closed-form baseline (single-tone corners are fixed points of the
iteration, so one start cannot see both kinds of optima); keeping the best
endpoint makes the optimized waveform dominate every baseline by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, FrequencyGrid
from .gp import (GPSolverError, GPStandardForm, Monomial, Posynomial,
                 condense, floor_constraints, maximize_monomial_under_power,
                 positivity_floor, power_constraint,
                 single_condensation_fraction, solve_gp)
from .rectenna import (DCKernel, RectennaParams, Waveform, papr,
                       papr_sample_times, weighted_sum_signomial,
                       zdc_analytic)

_TINY = 1e-300


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs shared by all successive-approximation loops."""

    eps: float = 1e-6                # relative z_dc change declaring convergence
    max_iterations: int = 100
    papr_oversampling: int = 8
    initialization: str = "best"     # best | up | mf | upmf | ass

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.papr_oversampling < 2:
            raise ValueError("papr_oversampling must be >= 2")


@dataclass
class SCATrace:
    """Per-iteration objective values and the final waveform."""

    zdc_history: np.ndarray
    waveform: Waveform
    converged: bool
    kkt_residual: float | None = None
    achieved_papr: float | None = None
    papr_certified: bool | None = None

    @property
    def zdc(self) -> float:
        return float(self.zdc_history[-1])

    @property
    def n_iterations(self) -> int:
        return len(self.zdc_history) - 1


# ---------------------------------------------------------------------------
# closed-form strategies
# ---------------------------------------------------------------------------

def optimal_phases(channel: ChannelRealization) -> np.ndarray:
    """Per-tone/antenna transmit phases that align every received tone."""
    h = channel.require_single_rectenna()
    return -np.angle(h)


def ss(grid: FrequencyGrid, n_antennas: int, power: float) -> Waveform:
    """Non-adaptive single sinewave: all power on tone 0, zero phases."""
    s = np.zeros((grid.n_tones, n_antennas))
    s[0, :] = np.sqrt(2.0 * power / n_antennas)
    return Waveform(s, np.zeros_like(s), grid, power_budget=power)


def up(grid: FrequencyGrid, n_antennas: int, power: float) -> Waveform:
    """Non-adaptive uniform power, zero phases."""
    s = np.full((grid.n_tones, n_antennas),
                np.sqrt(2.0 * power / (grid.n_tones * n_antennas)))
    return Waveform(s, np.zeros_like(s), grid, power_budget=power)


def ass(channel: ChannelRealization, power: float,
        grid: FrequencyGrid) -> Waveform:
    """All power beamformed onto the strongest tone (linear-model optimum).

    Ties break toward the lowest tone index.
    """
    h = channel.require_single_rectenna()
    gains = np.sum(np.abs(h) ** 2, axis=1)
    if not np.any(gains > 0):
        raise ValueError("channel is identically zero")
    best = int(np.argmax(gains))
    s = np.zeros(h.shape)
    s[best, :] = np.sqrt(2.0 * power) * np.abs(h[best, :]) / np.sqrt(gains[best])
    return Waveform(s, optimal_phases(channel), grid, power_budget=power)


def upmf(channel: ChannelRealization, power: float,
         grid: FrequencyGrid) -> Waveform:
    """Uniform power across tones, matched beamforming across antennas."""
    h = channel.require_single_rectenna()
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    s = np.zeros(h.shape)
    live = norms > 0
    s[live, :] = np.sqrt(2.0 * power / h.shape[0]) \
        * np.abs(h[live, :]) / norms[live, None]
    return Waveform(s, optimal_phases(channel), grid, power_budget=power)


def mf(channel: ChannelRealization, power: float,
       grid: FrequencyGrid) -> Waveform:
    """Amplitudes proportional to the channel amplitudes (matched filter)."""
    h = channel.require_single_rectenna()
    a = np.abs(h)
    scale = np.sqrt(np.sum(a ** 2))
    if scale == 0:
        raise ValueError("channel is identically zero")
    s = np.sqrt(2.0 * power) * a / scale
    return Waveform(s, optimal_phases(channel), grid, power_budget=power)


def max_papr(channel: ChannelRealization, power: float,
             grid: FrequencyGrid) -> Waveform:
    """Channel-inverting waveform giving equal received tone amplitudes.

    Maximizes the received PAPR (2N once aligned); needs every tone gain
    nonzero since weak tones must be boosted.
    """
    h = channel.require_single_rectenna()
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    if np.any(norms == 0):
        raise ValueError("channel inversion impossible: a tone gain is zero")
    inv = 1.0 / norms
    s_tone = np.sqrt(2.0 * power) * inv / np.sqrt(np.sum(inv ** 2))
    s = s_tone[:, None] * np.abs(h) / norms[:, None]
    return Waveform(s, optimal_phases(channel), grid, power_budget=power)


_STRATEGY_BUILDERS = {
    "ss": lambda h, p, g: ss(g, h.n_antennas, p),
    "up": lambda h, p, g: up(g, h.n_antennas, p),
    "ass": ass,
    "mf": mf,
    "upmf": upmf,
    "maxpapr": max_papr,
}


def baseline_waveform(name: str, channel: ChannelRealization, power: float,
                      grid: FrequencyGrid) -> Waveform:
    """Closed-form strategy by its CLI identifier."""
    try:
        builder = _STRATEGY_BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown strategy '{name}'") from None
    return builder(channel, power, grid)


# ---------------------------------------------------------------------------
# SCA core
# ---------------------------------------------------------------------------

class _AlignedDC:
    """z_dc over the flattened amplitudes at the aligned phases.

    Received tone n is r_n = sum_m |h_nm| s_nm (variable j = n*M + m), so
    the amplitude gradient and Hessian follow from the tone-domain kernel
    by the chain rule through the (N, N*M) map J.
    """

    def __init__(self, gains: np.ndarray, params: RectennaParams):
        n, m = gains.shape
        self.jac = np.zeros((n, n * m))
        self.jac[np.repeat(np.arange(n), m), np.arange(n * m)] = gains.ravel()
        self.kernel = DCKernel(params)

    def value(self, s: np.ndarray) -> float:
        return self.kernel.value(self.jac @ s)

    def value_grad_hess(self, s: np.ndarray, want_hess: bool = False):
        z, g, h = self.kernel.value_grad_hess(self.jac @ s, want_hess)
        hess = self.jac.T @ h @ self.jac if want_hess else None
        return z, self.jac.T @ g, hess


def _condensed_monomial(obj: _AlignedDC, s: np.ndarray) -> Monomial:
    """Best monomial lower bound of z_dc at the anchor s (AM-GM).

    Its exponents are the gradient of log z in log s,
    b_j = s_j dz/ds_j / z, and its coefficient is z(s) / prod s_j^b_j: the
    condensation of the enumerated posynomial, without enumerating it.
    """
    z, grad, _ = obj.value_grad_hess(s)
    b = s * grad / z
    return Monomial(float(np.exp(np.log(z) - b @ np.log(s))), b)


def _kkt_residual_power_only(obj: _AlignedDC, s: np.ndarray,
                             power: float, floor: float) -> float:
    """Log-domain projected-gradient norm of max log z s.t. power <= P.

    b_j is the gradient of log z in log variables and s_j^2/P the gradient
    of the active power constraint; at a KKT point they are parallel.
    Floored coordinates only count when they push upward (their bound
    multiplier absorbs the downward part).
    """
    z, grad, _ = obj.value_grad_hess(s)
    if z <= 0:
        return np.inf
    b = s * grad / z
    c = s ** 2 / power
    nu = float(b @ c) / float(c @ c)
    r = b - nu * c
    floored = s <= floor * (1.0 + 1e-9)
    r = np.where(floored, np.maximum(r, 0.0), r)
    return float(np.max(np.abs(r)))


def _seed_candidates(channel, power, grid, options):
    names = (["mf", "upmf", "ass", "up"] if options.initialization == "best"
             else [options.initialization])
    out = []
    for name in names:
        try:
            w = baseline_waveform(name, channel, power, grid)
        except ValueError:
            continue
        out.append((name, w))
    if not out:
        raise ValueError("no usable seed strategy for this channel")
    return out


def _floored(amplitudes: np.ndarray, floor: float) -> np.ndarray:
    return np.maximum(amplitudes, floor)


def _kkt_polish_power_only(obj: _AlignedDC, s: np.ndarray, power: float,
                           floor: float) -> np.ndarray:
    """Newton refinement of the stationarity system at the SCA endpoint.

    The condensation loop converges only linearly, and badly-conditioned
    instances can stall above the wanted stationarity residual; a few
    Newton steps on [grad log z = nu * grad power, power = budget] over the
    coordinates above the floor finish the job.  The Jacobian of the
    log-gradient b in log variables is diag(s) H diag(s) / z + diag(b)
    - b b^T, with H the amplitude Hessian of z.  Falls back to the input
    point whenever the refinement does not verifiably improve it.
    """
    free = s > floor * (1.0 + 1e-9)
    if not np.any(free):
        return s
    n_free = int(np.count_nonzero(free))
    best = s
    z_start = obj.value(s)
    s_work = s.copy()
    y = np.log(s_work[free])
    nu = None
    for _ in range(30):
        z, grad, hess = obj.value_grad_hess(s_work, want_hess=True)
        s_free = s_work[free]
        b = s_free * grad[free] / z
        c = s_free ** 2 / power
        if nu is None:
            nu = float(b @ c) / float(c @ c)
        res = np.concatenate([b - nu * c,
                              [(np.sum(s_work ** 2) - 2.0 * power)
                               / (2.0 * power)]])
        if np.max(np.abs(res)) <= 1e-13:
            break
        hess_b = (np.outer(s_free, s_free) * hess[np.ix_(free, free)] / z
                  + np.diag(b) - np.outer(b, b))
        jac = np.zeros((n_free + 1, n_free + 1))
        jac[:n_free, :n_free] = hess_b - np.diag(2.0 * nu * c)
        jac[:n_free, n_free] = -c
        jac[n_free, :n_free] = c
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        step = min(1.0, 0.5 / max(np.max(np.abs(delta[:n_free])), 1e-9))
        y = y + step * delta[:n_free]
        nu = nu + step * delta[n_free]
        s_work = s_work.copy()
        s_work[free] = np.exp(y)
    # exact power projection, then accept only a verified improvement
    fixed_power = np.sum(s_work[~free] ** 2)
    scale_sq = (2.0 * power - fixed_power) / np.sum(s_work[free] ** 2)
    if scale_sq > 0:
        s_work[free] *= np.sqrt(scale_sq)
    if np.all(np.isfinite(s_work)) and np.all(s_work > 0):
        old = _kkt_residual_power_only(obj, best, power, floor)
        new = _kkt_residual_power_only(obj, s_work, power, floor)
        if new < old and obj.value(s_work) >= z_start * (1.0 - 1e-9):
            best = s_work
    return best


def _sca_power_only(obj: _AlignedDC, seed: np.ndarray, power: float,
                    options: OptimizerOptions):
    """Condense-and-reallocate loop when power is the only constraint.

    The inner GP collapses to the closed-form monomial maximization, so
    each iteration is exact and the ascent is monotone by AM-GM.
    """
    floor = positivity_floor(power)
    s = _floored(seed, floor)
    history = [obj.value(s)]
    converged = False
    for _ in range(options.max_iterations):
        mono = _condensed_monomial(obj, s)
        s_new = maximize_monomial_under_power(mono, power, floor)
        z_new = obj.value(s_new)
        if z_new < history[-1]:
            converged = True  # numerically stationary; keep the better point
            break
        s = s_new
        history.append(z_new)
        if abs(history[-1] - history[-2]) < options.eps * max(history[-1], _TINY):
            converged = True
            break
    polished = _kkt_polish_power_only(obj, s, power, floor)
    z_polished = obj.value(polished)
    if z_polished >= history[-1] * (1.0 - 1e-12):  # within monotonicity slack
        s = polished
        history.append(z_polished)
    kkt = _kkt_residual_power_only(obj, s, power, floor)
    return s, np.asarray(history), converged, kkt


def _best_power_only_run(obj: _AlignedDC, seeds: list[np.ndarray],
                         power: float, options: OptimizerOptions):
    """Monotone ascent from every seed; keep the best endpoint.

    Single-tone corners are fixed points of the condensation map, so a run
    started there cannot discover a better interior allocation; restarting
    from each closed-form baseline covers both kinds of optima while
    keeping every individual trace nondecreasing.
    """
    best = None
    for seed in seeds:
        run = _sca_power_only(obj, seed, power, options)
        if best is None or run[1][-1] > best[1][-1]:
            best = run
    return best


def _dominant_result(waveform: Waveform, seeds: list[Waveform],
                     channel: ChannelRealization, params: RectennaParams):
    """(waveform, z_dc): the endpoint, or a closed-form seed that beats it.

    Both are scored with `zdc_analytic`, the evaluation path external
    checks use.  Rounding can place a refined endpoint an ulp below an
    exact seed; keeping the seed then makes the design dominate every seed
    exactly.
    """
    best_z = zdc_analytic(waveform, channel, params)
    for w in seeds:
        z = zdc_analytic(w, channel, params)
        if z > best_z:
            waveform, best_z = w, z
    return waveform, best_z


def optimize(channel: ChannelRealization, power: float,
             params: RectennaParams, grid: FrequencyGrid,
             options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Joint space-frequency amplitude design at the aligned phases.

    Phases are fixed at their closed-form optimum; amplitudes follow the
    monotone condensation loop restarted from each closed-form baseline.
    """
    h = channel.require_single_rectenna()
    obj = _AlignedDC(np.abs(h), params)
    seed_waveforms = [w for _, w in _seed_candidates(channel, power, grid,
                                                     options)]
    s, history, converged, kkt = _best_power_only_run(
        obj, [w.amplitudes.ravel() for w in seed_waveforms], power, options)
    waveform = Waveform(s.reshape(h.shape), optimal_phases(channel), grid,
                        power_budget=power)
    waveform, history[-1] = _dominant_result(waveform, seed_waveforms,
                                             channel, params)
    return SCATrace(history, waveform, converged, kkt_residual=kkt)


def optimize_decoupled(channel: ChannelRealization, power: float,
                       params: RectennaParams, grid: FrequencyGrid,
                       options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Per-tone matched beamforming, then an N-variable amplitude design.

    The matched spatial weights turn the array into a single effective
    antenna with per-tone gain ||h_n||, shrinking the variable count from
    N*M to N without any loss at the optimum.
    """
    h = channel.require_single_rectenna()
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    if not np.any(norms > 0):
        raise ValueError("channel is identically zero")
    obj = _AlignedDC(norms[:, None], params)

    # effective single-antenna seeds: project each baseline onto tone powers
    candidates = []
    n = grid.n_tones
    uniform = np.full(n, np.sqrt(2.0 * power / n))
    candidates.append(uniform)
    if np.all(norms > 0):
        candidates.append(np.sqrt(2.0 * power) * norms / np.sqrt(np.sum(norms ** 2)))
    one_tone = np.zeros(n)
    one_tone[int(np.argmax(norms))] = np.sqrt(2.0 * power)
    candidates.append(one_tone)

    s_tone, history, converged, kkt = _best_power_only_run(
        obj, candidates, power, options)
    spatial = np.full(h.shape, 1.0 / np.sqrt(h.shape[1]))
    live = norms > 0
    spatial[live, :] = np.abs(h[live, :]) / norms[live, None]
    waveform = Waveform(s_tone[:, None] * spatial, optimal_phases(channel),
                        grid, power_budget=power)
    seed_waveforms = [w for _, w in _seed_candidates(channel, power, grid,
                                                     options)]
    waveform, history[-1] = _dominant_result(waveform, seed_waveforms,
                                             channel, params)
    return SCATrace(history, waveform, converged, kkt_residual=kkt)


# ---------------------------------------------------------------------------
# PAPR-constrained design
# ---------------------------------------------------------------------------

def _papr_signomial_pieces(amps_phase_cos: np.ndarray, antenna: int,
                           n_tones: int, n_antennas: int):
    """Split |x_m(t_q)|^2 into positive/negative posynomial parts.

    `amps_phase_cos[q, n]` holds cos(w_n t_q + phi*_{n, antenna}); the
    squared sample is sum_{n0,n1} s_{n0,m} s_{n1,m} c_{n0} c_{n1}.
    """
    n_vars = n_tones * n_antennas
    pieces = []
    for cq in amps_phase_cos:
        prod = np.outer(cq, cq)
        coeffs_pos, rows_pos, coeffs_neg, rows_neg = [], [], [], []
        for n0 in range(n_tones):
            for n1 in range(n_tones):
                c = prod[n0, n1]
                if c == 0.0:
                    continue
                e = np.zeros(n_vars)
                e[n0 * n_antennas + antenna] += 1.0
                e[n1 * n_antennas + antenna] += 1.0
                if c > 0:
                    coeffs_pos.append(c)
                    rows_pos.append(e)
                else:
                    coeffs_neg.append(-c)
                    rows_neg.append(e)
        f1 = (Posynomial(np.array(coeffs_pos), np.vstack(rows_pos))
              if coeffs_pos else None)
        f2 = (Posynomial(np.array(coeffs_neg), np.vstack(rows_neg))
              if coeffs_neg else None)
        pieces.append((f1, f2))
    return pieces


def _mean_power_posynomial(antenna: int, n_tones: int, n_antennas: int,
                           scale: float) -> Posynomial:
    """scale * ||s_m||^2 as a posynomial over the flattened variables."""
    coeffs = np.full(n_tones, scale)
    expos = np.zeros((n_tones, n_tones * n_antennas))
    for n in range(n_tones):
        expos[n, n * n_antennas + antenna] = 2.0
    return Posynomial(coeffs, expos)


def optimize_papr(channel: ChannelRealization, power: float, eta: float,
                  params: RectennaParams, grid: FrequencyGrid,
                  options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Amplitude design under per-antenna peak-to-average power limits.

    The sampled peak constraint is a signomial inequality; a single
    condensation of its denominator turns each sample into a posynomial
    constraint, and the resulting GP is solved per SCA iteration.  A
    post-hoc check on a 4x finer grid triggers a re-solve with a tightened
    limit when sampling missed a peak.
    """
    if eta < 2.0:
        raise ValueError("eta below 2 is infeasible (single-tone PAPR is 2)")
    h = channel.require_single_rectenna()
    n, m = h.shape
    n_vars = n * m
    obj = _AlignedDC(np.abs(h), params)
    floor = positivity_floor(power)
    phi_star = optimal_phases(channel)
    t_q = papr_sample_times(grid, options.papr_oversampling)
    cos_tables = [np.cos(np.outer(t_q, grid.omegas) + phi_star[:, ant])
                  for ant in range(m)]
    pieces = {ant: _papr_signomial_pieces(cos_tables[ant], ant, n, m)
              for ant in range(m)}
    mean_power = {ant: _mean_power_posynomial(ant, n, m, 0.5)
                  for ant in range(m)}
    base_cons = [power_constraint(np.arange(n_vars), n_vars, power)]
    base_cons += floor_constraints(n_vars, floor)

    def worst_papr(amps_flat: np.ndarray, oversampling: int) -> float:
        wf = Waveform(amps_flat.reshape(n, m), phi_star, grid)
        worst = 0.0
        for ant in range(m):
            if np.any(wf.amplitudes[:, ant] > 0):
                worst = max(worst, papr(wf, ant, oversampling))
        return worst

    def feasible_seeds(limit: float) -> list[np.ndarray]:
        """Baselines under the limit, plus a blend rescuing the best one.

        PAPR is scale-invariant, so an over-the-limit candidate cannot be
        scaled into feasibility; blending it toward a compliant one keeps
        its allocation shape while meeting the limit.
        """
        scored = []
        for name, w in _seed_candidates(channel, power, grid, options):
            s = _floored(w.amplitudes.ravel(), floor)
            scored.append((obj.value(s), worst_papr(
                s, options.papr_oversampling), s))
        safe = _floored(ass(channel, power, grid).amplitudes.ravel(), floor)
        seeds = [s for _, p, s in scored if p <= limit * (1.0 - 1e-9)]
        if not seeds:
            seeds = [safe]
        z_best, p_best, s_best = max(scored, key=lambda t: t[0])
        if p_best > limit * (1.0 - 1e-9):
            for t in np.linspace(0.0, 1.0, 33)[1:]:
                blend = (1.0 - t) * s_best + t * safe
                if worst_papr(blend, options.papr_oversampling) \
                        <= limit * (1.0 - 1e-9):
                    seeds.append(blend)
                    break
        return seeds

    def run(anchor: np.ndarray, limit: float):
        history = [obj.value(anchor)]
        converged = False
        for _ in range(options.max_iterations):
            cons = list(base_cons)
            for ant in range(m):
                half_eta = mean_power[ant].scaled(limit)
                for f1, f2 in pieces[ant]:
                    if f1 is None:
                        continue
                    denom = half_eta + f2 if f2 is not None else half_eta
                    cons.append(single_condensation_fraction(f1, denom, anchor))
            objective = _condensed_monomial(obj, anchor).inverse()
            problem = GPStandardForm(objective, cons, n_vars)
            report = solve_gp(problem, anchor)
            z_new = obj.value(report.x)
            if z_new < history[-1]:
                converged = True
                break
            anchor = report.x
            history.append(z_new)
            if abs(history[-1] - history[-2]) < options.eps * max(history[-1], _TINY):
                converged = True
                break
        return anchor, np.asarray(history), converged

    limit = eta
    for _ in range(3):
        best = None
        for seed in feasible_seeds(limit):
            try:
                out = run(seed, limit)
            except GPSolverError:
                # feasible set has (numerically) no interior around this
                # seed, e.g. the single-tone corner at eta = 2; keep the
                # seed itself as this run's result
                out = (seed, np.array([obj.value(seed)]), True)
            if best is None or out[1][-1] > best[1][-1]:
                best = out
        s, history, converged = best
        wf = Waveform(s.reshape(n, m), phi_star, grid, power_budget=power)
        fine = worst_papr(s, 4 * options.papr_oversampling)
        if fine <= eta * (1.0 + 1e-6):
            return SCATrace(history, wf, converged,
                            achieved_papr=fine, papr_certified=True)
        limit *= 0.999 * eta / fine
    return SCATrace(history, wf, converged,
                    achieved_papr=fine, papr_certified=False)


# ---------------------------------------------------------------------------
# multiple rectennas
# ---------------------------------------------------------------------------

def _as_channel_list(channels) -> list[np.ndarray]:
    if isinstance(channels, ChannelRealization):
        return [channels.rectenna(u).require_single_rectenna()
                for u in range(channels.n_rectennas)]
    return [c.require_single_rectenna() if isinstance(c, ChannelRealization)
            else np.asarray(c, dtype=complex) for c in channels]


def _stacked_weighted_channels(hs, weights):
    """Per-tone stack with rows sqrt(v_u) * h_{n,u,:}.

    The diode's quadratic coefficient scales every row identically, so it
    changes neither the best tone nor the singular vectors and is dropped.
    """
    scale = np.sqrt(np.asarray(weights, dtype=float))
    return [np.vstack([scale[u] * hs[u][tone] for u in range(len(hs))])
            for tone in range(hs[0].shape[0])]


def _dominant_right_vector(mat: np.ndarray) -> tuple[float, np.ndarray]:
    """(largest squared singular value, phase-anchored right vector).

    The singular vector's free phase is fixed by making the summed
    per-rectenna response real positive, which reduces to the matched
    beamformer exactly when there is a single row.
    """
    _, sing, vh = np.linalg.svd(mat)
    v = vh[0].conj()
    ref = np.sum(mat @ v)
    if np.abs(ref) > 1e-300:
        v = v * (ref.conjugate() / np.abs(ref))
    return float(sing[0] ** 2), v


def ass_multi(channels, weights, power: float, grid: FrequencyGrid) -> Waveform:
    """Single-tone design for the weighted multi-rectenna sum.

    Transmits on the tone whose weighted stacked channel has the largest
    principal gain, along its dominant right singular vector; ties break
    toward the lowest tone index.
    """
    hs = _as_channel_list(channels)
    weights = np.asarray(weights, dtype=float)
    if len(hs) == 1:
        return ass(ChannelRealization(hs[0]), power, grid)
    stacks = _stacked_weighted_channels(hs, weights)
    gains, vecs = zip(*[_dominant_right_vector(s) for s in stacks])
    best = int(np.argmax(gains))
    s = np.zeros(hs[0].shape)
    phases = np.vstack([np.angle(v) for v in vecs])
    s[best, :] = np.sqrt(2.0 * power) * np.abs(vecs[best])
    return Waveform(s, phases, grid, power_budget=power)


def optimize_multi(channels, weights, power: float, params: RectennaParams,
                   grid: FrequencyGrid,
                   options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Weighted-sum DC maximization across several rectennas.

    Phases follow the per-tone dominant singular vectors of the stacked
    weighted channels (no optimality claim); amplitudes come from an SCA on
    the signomial objective with its positive part condensed.
    """
    hs = _as_channel_list(channels)
    weights = np.asarray(weights, dtype=float)
    if weights.size != len(hs):
        raise ValueError("one weight per rectenna required")
    n, m = hs[0].shape
    n_vars = n * m

    if len(hs) == 1:
        phases = -np.angle(hs[0])
    else:
        stacks = _stacked_weighted_channels(hs, weights)
        phases = np.vstack([_dominant_right_vector(s)[1] for s in stacks])
        phases = np.angle(phases)
    sig = weighted_sum_signomial(hs, weights, params, phases)
    f1, f2 = sig.positive, sig.negative
    floor = positivity_floor(power)

    # widen s-variable posynomials with a trailing t0 column
    def widen(p: Posynomial) -> Posynomial:
        return Posynomial(p.coefficients,
                          np.hstack([p.exponents, np.zeros((p.n_terms, 1))]))

    # candidate starts: uniform, the single-tone corner, weighted-mean
    # matching, and each rectenna's own matched-filter shapes, so the U = 1
    # case sees the same basins as the single-rectenna optimizer
    candidates = [np.full(n_vars, np.sqrt(2.0 * power / n_vars))]
    corner = None
    try:
        corner = _floored(ass_multi(hs, weights, power, grid).amplitudes.ravel(),
                          floor)
    except ValueError:
        pass
    mean_amp = np.mean([np.abs(h) for h in hs], axis=0)
    if np.any(mean_amp > 0):
        candidates.append(np.sqrt(2.0 * power) * mean_amp.ravel()
                          / np.sqrt(np.sum(mean_amp ** 2)))
    for h_u in hs:
        ch_u = ChannelRealization(h_u)
        for builder in (mf, upmf):
            try:
                candidates.append(builder(ch_u, power, grid).amplitudes.ravel())
            except ValueError:
                pass
    seeds = [_floored(c, floor) for c in candidates]
    seeds = [s for s in seeds if sig.evaluate(s) > 0]
    if not seeds and (corner is None or sig.evaluate(corner) <= 0):
        raise GPSolverError("no starting point with positive weighted DC sum")
    # run the SCA only from the most promising few, plus the corner, which
    # is cheap to refine and covers linear-regime optima
    seeds.sort(key=sig.evaluate, reverse=True)
    seeds = seeds[:3]
    if corner is not None and sig.evaluate(corner) > 0 \
            and not any(np.array_equal(corner, s) for s in seeds):
        seeds.append(corner)

    power_con = widen(power_constraint(np.arange(n_vars), n_vars, power))
    floors = [widen(c) for c in floor_constraints(n_vars, floor)]
    t0_exp = np.zeros(n_vars + 1)
    t0_exp[-1] = 1.0
    objective = Monomial(1.0, -t0_exp)

    def run(anchor: np.ndarray):
        history = [sig.evaluate(anchor)]
        converged = False
        for _ in range(options.max_iterations):
            bound = condense(f1, anchor).inverse()
            bound = Monomial(bound.coefficient, np.append(bound.exponents, 0.0))
            t0_term = Posynomial(np.array([1.0]), t0_exp[None, :])
            lhs = t0_term + widen(f2) if f2 is not None else t0_term
            cons = [power_con, lhs * bound] + floors
            problem = GPStandardForm(objective, cons, n_vars + 1)
            x0 = np.append(anchor, max(history[-1], _TINY) * (1.0 - 1e-6))
            report = solve_gp(problem, x0)
            s_new = report.x[:-1]
            z_new = sig.evaluate(s_new)
            if z_new < history[-1]:
                converged = True
                break
            anchor = s_new
            history.append(z_new)
            if abs(history[-1] - history[-2]) < options.eps * max(abs(history[-1]), _TINY):
                converged = True
                break
        return anchor, np.asarray(history), converged

    best = None
    for seed in seeds:
        out = run(seed)
        if best is None or out[1][-1] > best[1][-1]:
            best = out
    anchor, history, converged = best
    waveform = Waveform(anchor.reshape(n, m), phases, grid,
                        power_budget=power)
    return SCATrace(history, waveform, converged)


# ---------------------------------------------------------------------------
# two-tone enumeration
# ---------------------------------------------------------------------------

def toy_n2(a0: float, a1: float, power: float,
           params: RectennaParams) -> tuple[np.ndarray, float]:
    """Exact two-tone single-antenna optimum by stationary-point enumeration.

    With a fourth-order model the Lagrangian admits at most three valid
    stationary points: the two single-tone corners and an interior split
    with a closed-form expression; the best of them is the global optimum.
    """
    if params.truncation_order != 4:
        raise ValueError("two-tone enumeration assumes a fourth-order model")
    k2, k4 = params.k
    r_ant = params.diode.r_ant
    kt2 = k2 * r_ant / 2.0
    kt4 = 3.0 * k4 * r_ant ** 2 / 8.0

    def value(s0sq, s1sq):
        lin = s0sq * a0 ** 2 + s1sq * a1 ** 2
        return kt2 * lin + kt4 * (lin ** 2 + 2.0 * s0sq * s1sq
                                  * a0 ** 2 * a1 ** 2)

    two_p = 2.0 * power
    candidates = [(two_p, 0.0), (0.0, two_p)]
    den = kt4 * (8.0 * a0 ** 2 * a1 ** 2 - 2.0 * a0 ** 4 - 2.0 * a1 ** 4)
    if den != 0.0:
        num = (8.0 * power * kt4 * a0 ** 2 * a1 ** 2 + kt2 * a0 ** 2
               - 4.0 * power * kt4 * a1 ** 4 - kt2 * a1 ** 2)
        s0sq = num / den
        if 0.0 <= s0sq <= two_p:
            candidates.append((s0sq, two_p - s0sq))
    best = max(candidates, key=lambda c: value(*c))
    return np.sqrt(np.array(best)), value(*best)
