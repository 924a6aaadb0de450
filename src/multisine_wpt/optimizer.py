"""Waveform design strategies, from closed-form baselines to iterative designs.

The closed-form strategies are one table, `CLOSED_FORM`: each places
amplitudes by a rule of the channel and the power, sent at the aligned
phases or at zero phase, and `baseline_waveform` builds one by name.  Every
iterative design maximizes one objective, `_WeightedDC`, a nonnegatively
weighted sum of z_dc over rectennas on the rectenna's DC kernel.  The
joint, decoupled and multi-rectenna designs share one minorize-maximize
(MM) ascent on it: the first two over the real amplitudes on the gains |h|
at the aligned phases, the third over the complex weights.  The objective
is convex in the weights, so its linearization at the current point is a
global lower bound, and maximizing that bound over the power ball gives the
closed-form, monotone update w <- sqrt(2P) grad / ||grad||.  That map
converges only linearly, so the ascent extrapolates it by SQUAREM (Varadhan
& Roland 2008) and keeps an extrapolated step only when it beats two plain
steps, which keeps the ascent monotone.  Single-tone corners are fixed
points of the update, so the start matters: the joint and decoupled designs
run the ascent once, from the scaled matched filter SMF(3), and the
multi-rectenna design from every distinct closed-form seed, keeping the
best endpoint.  Each design scores every closed-form baseline against its
endpoint and returns one that still beats it, so every design dominates
them by construction.  The PAPR-constrained design first runs that
unconstrained ascent and returns its design when it already meets the
limit; only otherwise does it need the geometric-program solver.  Per SCA
iteration it condenses the same objective into a monomial, condenses each
antenna's sampled peak-constraint denominators by AM-GM in one call, and
solves the GP whose constraints are rows of one stacked term matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, FrequencyGrid
from .gp import (GPSolverError, condense, positivity_floor, solve_gp,
                 stack_constraints)
from .rectenna import (DCKernel, RectennaParams, Waveform, papr_basis,
                       worst_papr)

_TINY = 1e-300


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs shared by all iterative designs.

    One iteration of the joint, decoupled and multi-rectenna designs is one
    SQUAREM cycle of the MM ascent (up to four gradient evaluations).  The
    PAPR-constrained design returns the joint design when it meets the
    limit, with that design's iterations; otherwise one of its iterations
    is one GP solve.  `eps` and `max_iterations` apply per iteration.
    """

    eps: float = 1e-6                # relative z_dc change declaring convergence
    max_iterations: int = 100
    papr_oversampling: int = 8

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.papr_oversampling < 2:
            raise ValueError("papr_oversampling must be >= 2")


@dataclass
class SCATrace:
    """Per-iteration objective values, the final waveform and why the run
    stopped.

    An iteration is an MM cycle or a GP solve (see `OptimizerOptions`).
    `stop_reason` is `tol` (the last iteration changed z by less than
    eps*z), `max_iter` (the iteration cap), `stall` (an iteration would
    have lowered z by more than that and was rejected) or `solver_fallback`
    (the GP solver refused a start that was not strictly inside its
    constraints, and the run kept its last accepted iterate).
    """

    zdc_history: np.ndarray
    waveform: Waveform
    stop_reason: str
    kkt_residual: float | None = None
    achieved_papr: float | None = None
    papr_certified: bool | None = None

    @property
    def zdc(self) -> float:
        return float(self.zdc_history[-1])

    @property
    def n_iterations(self) -> int:
        return len(self.zdc_history) - 1

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


# ---------------------------------------------------------------------------
# closed-form strategies
# ---------------------------------------------------------------------------

def optimal_phases(channel: ChannelRealization) -> np.ndarray:
    """Per-tone/antenna transmit phases that align every received tone."""
    h = channel.require_single_rectenna()
    return -np.angle(h)


def _ss_amplitudes(h: np.ndarray, power: float) -> np.ndarray:
    s = np.zeros(h.shape)
    s[0, :] = np.sqrt(2.0 * power / h.shape[1])
    return s


def _up_amplitudes(h: np.ndarray, power: float) -> np.ndarray:
    return np.full(h.shape, np.sqrt(2.0 * power / h.size))


def _ass_amplitudes(h: np.ndarray, power: float) -> np.ndarray:
    gains = np.sum(np.abs(h) ** 2, axis=1)
    if not np.any(gains > 0):
        raise ValueError("channel is identically zero")
    best = int(np.argmax(gains))
    s = np.zeros(h.shape)
    s[best, :] = np.sqrt(2.0 * power) * np.abs(h[best, :]) / np.sqrt(gains[best])
    return s


def _mf_amplitudes(h: np.ndarray, power: float) -> np.ndarray:
    a = np.abs(h)
    scale = np.sqrt(np.sum(a ** 2))
    if scale == 0:
        raise ValueError("channel is identically zero")
    return np.sqrt(2.0 * power) * a / scale


def _upmf_amplitudes(h: np.ndarray, power: float) -> np.ndarray:
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    s = np.zeros(h.shape)
    live = norms > 0
    s[live, :] = np.sqrt(2.0 * power / h.shape[0]) \
        * np.abs(h[live, :]) / norms[live, None]
    return s


def _maxpapr_amplitudes(h: np.ndarray, power: float) -> np.ndarray:
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    if np.any(norms == 0):
        raise ValueError("channel inversion impossible: a tone gain is zero")
    inv = 1.0 / norms
    s_tone = np.sqrt(2.0 * power) * inv / np.sqrt(np.sum(inv ** 2))
    return s_tone[:, None] * np.abs(h) / norms[:, None]


# The closed-form strategies by CLI identifier: name -> (amplitude rule
# (h, P) -> s, whether s is sent at the aligned phases rather than at zero
# phase).
#   ss       non-adaptive single sinewave: all power on tone 0
#   up       non-adaptive uniform power
#   ass      all power beamformed onto the strongest tone, the linear-model
#            optimum; ties break toward the lowest tone index
#   mf       amplitudes proportional to the channel amplitudes (matched filter)
#   upmf     uniform power across tones, matched beamforming across antennas
#   maxpapr  channel inversion to equal received tone amplitudes, which
#            maximizes the received PAPR (2N once aligned); every tone gain
#            must be nonzero
CLOSED_FORM = {
    "ss": (_ss_amplitudes, False),
    "up": (_up_amplitudes, False),
    "ass": (_ass_amplitudes, True),
    "mf": (_mf_amplitudes, True),
    "upmf": (_upmf_amplitudes, True),
    "maxpapr": (_maxpapr_amplitudes, True),
}

# The closed-form strategies that seed and bound every design, in the order
# that breaks ties between them; `mf` and `ass` need a nonzero channel.
_SEEDS = ("mf", "upmf", "ass", "up")


def _closed_form(name: str, h: np.ndarray,
                 power: float) -> tuple[np.ndarray, np.ndarray]:
    """(amplitudes, phases) of a closed-form strategy on the channel h."""
    try:
        rule, aligned = CLOSED_FORM[name]
    except KeyError:
        raise ValueError(f"unknown strategy '{name}'") from None
    s = rule(h, power)
    return s, -np.angle(h) if aligned else np.zeros_like(s)


def baseline_waveform(name: str, channel: ChannelRealization, power: float,
                      grid: FrequencyGrid) -> Waveform:
    """Closed-form strategy by its CLI identifier (see `CLOSED_FORM`)."""
    s, phases = _closed_form(name, channel.require_single_rectenna(), power)
    return Waveform(s, phases, grid, power_budget=power)


def _baselines(h: np.ndarray, power: float) -> list[tuple]:
    """(amplitudes, phases) of each of the `_SEEDS` the channel allows, in
    that order, as arrays: a design scores them and builds a `Waveform`
    only for the one it returns."""
    out = []
    for name in _SEEDS:
        try:
            out.append(_closed_form(name, h, power))
        except ValueError:
            continue
    return out


# ---------------------------------------------------------------------------
# minorize-maximize ascent
# ---------------------------------------------------------------------------

class _WeightedDC:
    """z(w) = sum_u v_u z_dc(h_u . w) over weights w of shape (N, M), the
    one objective of every design.

    Rectenna u receives tone n as r_un = sum_m h_unm w_nm, so the kernel's
    gradient 2 dz/d conj(r) maps back to the weights through conj(h_u).
    The weights are complex, or real amplitudes on real gains |h|, the
    aligned-phase view; only the latter has a Hessian.
    """

    def __init__(self, hs: list[np.ndarray], weights, params: RectennaParams):
        self.terms = list(zip(weights, hs))
        self.kernel = DCKernel(params)

    def value(self, w: np.ndarray) -> float:
        """z(w), the same sum as the weighted sum of `zdc_analytic`."""
        return self.value_grad_hess(w)[0]

    def value_grad_hess(self, w: np.ndarray, want_hess: bool = False):
        """(z, 2 dz/d conj(w), Hessian or None): the gradient is the ascent
        direction in the weights; the Hessian, for real gains and weights,
        has shape (N, M, N, M), entry (n, m, p, q) = h_nm H_np h_pq with H
        the kernel's Hessian in the received tones."""
        z, grad, hess = 0.0, 0.0, 0.0
        for v, h in self.terms:
            z_u, g_u, hess_u = self.kernel.value_grad_hess(
                np.einsum("nm,nm->n", h, w), want_hess)
            z += v * z_u
            grad = grad + v * np.conj(h) * g_u[:, None]
            if want_hess:
                hess = hess + v * h[:, :, None, None] \
                    * hess_u[:, None, :, None] * h
        return z, grad, hess if want_hess else None


def _monotone(iterate, state, z: float, options: OptimizerOptions):
    """(state, z history, stop reason) of (state, z) <- iterate(state) from
    a state scoring z, the one stopping rule of the iterative designs.

    The history holds one z per accepted iteration.  The run stops with
    `tol` when an iteration changes z by less than eps*z, with `max_iter`
    after `max_iterations` iterations, and with `stall` when an iteration
    lowers z by more than that (rounding at a stationary point), which is
    rejected.  An `iterate` that returns None cannot step from its state,
    and the run stops there with `solver_fallback`.
    """
    history = [z]
    for _ in range(options.max_iterations):
        step = iterate(state)
        if step is None:
            return state, np.asarray(history), "solver_fallback"
        state_new, z_new = step
        converged = abs(z_new - history[-1]) < options.eps * max(z_new, _TINY)
        if z_new < history[-1]:
            return state, np.asarray(history), "tol" if converged else "stall"
        state = state_new
        history.append(z_new)
        if converged:
            return state, np.asarray(history), "tol"
    return state, np.asarray(history), "max_iter"


def _mm_ascent(obj: _WeightedDC, w: np.ndarray, power: float,
               options: OptimizerOptions):
    """SQUAREM-accelerated MM ascent from the weights w: (w, z history,
    stop reason).

    z is convex, so z(x) >= z(w) + Re<grad, x - w> for every x, and that
    bound is maximized over the ball ||x||^2 <= 2P by the map
    F(w) = sqrt(2P) grad / ||grad||: z cannot fall along it.  The map
    converges only linearly, so each iteration is one SQUAREM cycle
    (Varadhan & Roland, Scand. J. Stat. 2008, scheme SqS3): w1 = F(w0),
    w2 = F(w1), r = w1 - w0, v = w2 - 2 w1 + w0,
    alpha = min(-||r|| / ||v||, -1), and the extrapolate
    w0 - 2 alpha r + alpha^2 v, scaled back onto the power sphere, takes
    one more map step to w3.  The cycle keeps w3 when z(w3) > z(w2) and w2
    otherwise (also when v = 0), so it cannot lower z either; it costs at
    most four gradient evaluations.

    One cycle is one iteration of `_monotone`.
    """
    radius = np.sqrt(2.0 * power)

    def step(grad):
        w_next = radius * grad / np.linalg.norm(grad)
        return (w_next, *obj.value_grad_hess(w_next)[:2])

    def cycle(state):
        w, grad = state
        w1, _, grad1 = step(grad)
        w_new, z_new, grad_new = step(grad1)
        r = w1 - w
        v = w_new - 2.0 * w1 + w
        v_norm = np.linalg.norm(v)
        if v_norm > 0:
            alpha = min(-np.linalg.norm(r) / v_norm, -1.0)
            w_ext = w - 2.0 * alpha * r + alpha ** 2 * v
            _, grad_ext, _ = obj.value_grad_hess(radius * w_ext
                                                 / np.linalg.norm(w_ext))
            w3, z3, grad3 = step(grad_ext)
            if z3 > z_new:
                w_new, z_new, grad_new = w3, z3, grad3
        return (w_new, grad_new), z_new

    z, grad, _ = obj.value_grad_hess(w)
    (w, _), history, stop_reason = _monotone(cycle, (w, grad), z, options)
    return w, history, stop_reason


# Relative tolerance under which two starts are one.  The closed-form seeds
# coincide up to their normalizations' rounding (`upmf` is `up` on one
# antenna, `mf` is `up` on a flat channel); distinct seeds differ far more.
_SAME_START_RTOL = 1e-12


def _distinct(starts: list[np.ndarray]) -> list[np.ndarray]:
    """The starts without any equal to an earlier one; the earlier one is
    kept, so ties between runs still go to the same seed."""
    return [w for i, w in enumerate(starts)
            if not any(np.all(np.abs(w - u) <= _SAME_START_RTOL * np.abs(u))
                       for u in starts[:i])]


def _ascents(obj: _WeightedDC, seeds: list[np.ndarray], power: float,
             options: OptimizerOptions) -> list:
    """One MM run from each distinct seed with z > 0.

    z(0) = 0 and convexity give Re<grad, w> >= z(w), so a positive start
    keeps the gradient nonzero for the whole run.
    """
    seeds = [w for w in _distinct(seeds) if obj.value(w) > 0]
    if not seeds:
        raise ValueError("no seed reaches a rectenna: the channel is zero")
    return [_mm_ascent(obj, w, power, options) for w in seeds]


def _best_run(runs: list):
    """The run ending at the highest z; ties go to the earlier seed."""
    return max(runs, key=lambda run: run[1][-1])


def _stationarity_gap(obj: _WeightedDC, s: np.ndarray,
                      power: float) -> tuple[float, float]:
    """(max |b - nu c|, nu) for max log z s.t. power <= P, in log variables.

    b_j is the gradient of log z in log variables and c_j = s_j^2/P the
    gradient of the active power constraint; at a KKT point they are
    parallel, b = nu c.  Both vanish at a zero amplitude.
    """
    z, grad, _ = obj.value_grad_hess(s)
    b = s * grad / z
    c = s ** 2 / power
    nu = float(np.vdot(b, c)) / float(np.vdot(c, c))
    return float(np.max(np.abs(b - nu * c))), nu


def _kkt_residual_power_only(obj: _WeightedDC, s: np.ndarray,
                             power: float) -> float:
    """The stationarity gap, or a larger KKT violation at a zero amplitude.

    With multiplier nu z / (2P) on the power constraint, an amplitude held
    at s_j = 0 needs dz/ds_j <= 0 and, since e_j is tangent to the power
    sphere there, d2z/ds_j2 <= nu z / P.  Measured on the amplitude scale
    sqrt(P), as b and c are, the violations are sqrt(P) dz/ds_j / z and
    P d2z/ds_j2 / z - nu; a saddle corner shows in the second.
    """
    gap, nu = _stationarity_gap(obj, s, power)
    zero = s == 0
    if not np.any(zero):
        return gap
    z, grad, hess = obj.value_grad_hess(s, want_hess=True)
    first = np.sqrt(power) * grad[zero] / z
    second = power * np.diag(hess[zero][:, zero]) / z - nu
    return max(gap, float(first.max()), float(second.max()))


def _smf_start(gains: np.ndarray, power: float) -> np.ndarray:
    """The scaled matched filter with beta = 3 (Clerckx & Bayguzina, IEEE
    AWPL 2017), s_nm proportional to |h_nm| ||h_n||^2, on the power sphere;
    zero on a zero channel, a start `_ascents` refuses."""
    s = gains * np.sum(gains ** 2, axis=1, keepdims=True)
    norm = np.linalg.norm(s)
    return np.sqrt(2.0 * power) * s / norm if norm > 0 else s


# Smallest log-gradient share b_j of a coordinate the KKT polish moves.
# Rounding adds about eps/b_j to that coordinate's relative Newton step, and
# an ascent stopped at its iteration cap leaves shares down to 1e-26, whose
# steps would be rounding noise.  At b_j >= 1e-14 the noise stays below
# 0.02, and a held coordinate can lift z by only about b_j.
_POLISH_MIN_SHARE = 1e-14


def _kkt_polish_power_only(obj: _WeightedDC, s: np.ndarray,
                           power: float) -> np.ndarray:
    """Newton refinement of the stationarity system at the ascent endpoint.

    The MM ascent stops once z changes by less than eps*z per cycle, and
    badly-conditioned instances stop there above the wanted stationarity
    residual; a few Newton steps on [dz/ds / z = nu s / P, power = budget]
    over the coordinates with a log-gradient share above
    `_POLISH_MIN_SHARE` finish the job.  In the relative steps d = ds / s,
    with row j scaled by s_j, the residual is the log-gradient gap
    b - nu c and the Jacobian diag(s) H diag(s) / z - b b^T - nu diag(c),
    with H the amplitude Hessian of z.  Newton on the gap itself would have
    a spurious root at s_j = 0, where its row vanishes, and walks a weak
    coordinate that starts below its optimum toward it; these rows have no
    such root.  A coordinate the step takes to zero or below is held at
    zero, where its bound s_j >= 0 is active.  Falls back to the input
    point whenever the refinement does not verifiably improve it.
    """
    z_start, grad, _ = obj.value_grad_hess(s)
    free = s * grad > _POLISH_MIN_SHARE * z_start
    s_work = s.copy()
    nu = None
    for _ in range(30):
        z, grad, hess = obj.value_grad_hess(s_work, want_hess=True)
        s_free = s_work[free]
        n_free = s_free.size
        b = s_free * grad[free] / z
        c = s_free ** 2 / power
        if nu is None:
            nu = float(b @ c) / float(c @ c)
        res = np.concatenate([b - nu * c,
                              [(np.sum(s_work ** 2) - 2.0 * power)
                               / (2.0 * power)]])
        if np.max(np.abs(res)) <= 1e-13:
            break
        jac = np.zeros((n_free + 1, n_free + 1))
        jac[:n_free, :n_free] = (np.outer(s_free, s_free)
                                 * hess[free][:, free] / z
                                 - np.outer(b, b) - np.diag(nu * c))
        jac[:n_free, n_free] = -c
        jac[n_free, :n_free] = c
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        s_next = s_free * np.maximum(1.0 + delta[:n_free], 0.0)
        if not np.any(s_next > 0):
            break
        nu = nu + delta[n_free]
        s_work = s_work.copy()
        s_work[free] = s_next
        free &= s_work > 0
    # exact power projection, then accept only a verified improvement
    fixed_power = np.sum(s_work[~free] ** 2)
    scale_sq = (2.0 * power - fixed_power) / np.sum(s_work[free] ** 2)
    if scale_sq > 0:
        s_work[free] *= np.sqrt(scale_sq)
    if np.all(np.isfinite(s_work)) \
            and _stationarity_gap(obj, s_work, power)[0] \
            < _stationarity_gap(obj, s, power)[0] \
            and obj.value(s_work) >= z_start * (1.0 - 1e-9):
        return s_work
    return s


def _polished(obj: _WeightedDC, s: np.ndarray, history: np.ndarray,
              stop_reason: str, power: float):
    """(s, history, stop reason) of an ascent run after the KKT polish.

    The polished point is kept when z stays within rounding of the
    endpoint, so the history stays monotone.
    """
    polished = _kkt_polish_power_only(obj, s, power)
    z_polished = obj.value(polished)
    if z_polished >= history[-1] * (1.0 - 1e-12):
        return polished, np.append(history, z_polished), stop_reason
    return s, history, stop_reason


def _dominant_result(candidates: list[np.ndarray],
                     obj: _WeightedDC) -> tuple[int, float]:
    """(k, z) of the first of the candidate weights with the highest z.

    Candidate 0 is a design's endpoint and the others its closed-form
    seeds.  z is `obj.value` of the complex weights on the complex
    channels, the weighted `zdc_analytic` sum that external checks use.
    Rounding can place a refined endpoint an ulp below an exact seed;
    keeping the seed then makes the design dominate every seed exactly.
    """
    zs = [obj.value(w) for w in candidates]
    k = int(np.argmax(zs))
    return k, zs[k]


def _aligned_design(h: np.ndarray, gains: np.ndarray, spread,
                    baselines: list[tuple], power: float,
                    params: RectennaParams, grid: FrequencyGrid,
                    options: OptimizerOptions) -> SCATrace:
    """One polished MM run over real amplitudes s on the gains, from
    `_smf_start`, returned as the weights s * spread at the aligned phases
    of h, or as the baseline amplitudes that beat them there.

    The map keeps the amplitudes nonnegative; an extrapolated step can flip
    the sign of one, which is safe: the magnitudes kept here score no lower.
    A Newton polish of the amplitudes' stationarity conditions finishes the
    run, since an unpolished endpoint can be a saddle corner.  The KKT
    residual is that of the returned amplitudes, in the joint problem over
    the gains |h|.
    """
    obj = _WeightedDC([gains], [1.0], params)
    [(w, history, stop_reason)] = _ascents(obj, [_smf_start(gains, power)],
                                           power, options)
    s, history, stop_reason = _polished(obj, np.abs(w), history, stop_reason,
                                        power)
    phases = -np.angle(h)
    rotor = np.exp(1j * phases)
    candidates = [s * spread] + [b for b, _ in baselines]
    k, history[-1] = _dominant_result([c * rotor for c in candidates],
                                      _WeightedDC([h], [1.0], params))
    joint = _WeightedDC([np.abs(h)], [1.0], params)
    return SCATrace(history,
                    Waveform(candidates[k], phases, grid, power_budget=power),
                    stop_reason, kkt_residual=_kkt_residual_power_only(
                        joint, candidates[k], power))


def optimize(channel: ChannelRealization, power: float,
             params: RectennaParams, grid: FrequencyGrid,
             options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Joint space-frequency amplitude design at the aligned phases.

    At the aligned phases tone n arrives as sum_m |h_nm| s_nm, so the MM
    ascent runs over the real amplitudes on the gains |h|.  It runs once,
    from the scaled matched filter SMF(3), which puts the power on the
    strong tones and still spreads it over several, as the nonlinear model
    does at its optimum; every closed-form baseline is scored against the
    endpoint.
    """
    h = channel.require_single_rectenna()
    return _aligned_design(h, np.abs(h), 1.0, _baselines(h, power), power,
                           params, grid, options)


def optimize_decoupled(channel: ChannelRealization, power: float,
                       params: RectennaParams, grid: FrequencyGrid,
                       options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Per-tone matched beamforming, then `optimize`'s ascent on the
    effective channel.

    The matched spatial weights turn the array into a single effective
    antenna with per-tone gain ||h_n||, shrinking the variable count from
    N*M to N without any loss at the optimum.
    """
    h = channel.require_single_rectenna()
    norms = np.sqrt(np.sum(np.abs(h) ** 2, axis=1))
    spatial = np.full(h.shape, 1.0 / np.sqrt(h.shape[1]))
    live = norms > 0
    spatial[live, :] = np.abs(h[live, :]) / norms[live, None]
    return _aligned_design(h, norms[:, None], spatial, _baselines(h, power),
                           power, params, grid, options)


# ---------------------------------------------------------------------------
# PAPR-constrained design
# ---------------------------------------------------------------------------

class _PeakConstraints:
    """Every antenna's sampled peak constraints as stacked GP rows.

    `cos[m, q, n]` holds cos(w_n t_q + phi*_{n,m}); the squared sample
    x_m(t_q)^2 is sum_{n0<=n1} c_q s_{n0,m} s_{n1,m}, one monomial per tone
    pair, with c_q = cos_{n0} cos_{n1} doubled off the diagonal.  Sample q
    must stay below limit * ||s_m||^2 / 2: its positive pairs form the
    numerator, and the negated negative pairs plus the mean-power terms (on
    the diagonal, which is never negative) the denominator.  Zero pairs join
    neither side, and a sample without a positive pair is no constraint.
    The tables are split once per design; `rows` condenses each antenna's
    denominators over its own pairs in one call and stacks antenna-major.
    """

    def __init__(self, cos: np.ndarray):
        n_ant, _, n_tones = cos.shape
        n0, n1 = np.triu_indices(n_tones)
        self.diagonal = n0 == n1
        # pairs[a, k] is the exponent row of pair k's product on antenna a
        tone = np.eye(n_tones * n_ant).reshape(n_tones, n_ant, -1)
        pairs = (tone[n0] + tone[n1]).swapaxes(0, 1)
        prods = np.where(self.diagonal, 1.0, 2.0) * cos[..., n0] * cos[..., n1]
        live = np.any(prods > 0, axis=2)  # (antenna, sample)
        ant, _ = np.nonzero(live)
        prods = prods[live]  # (row, pair), antenna-major
        self.owner, k = np.nonzero(prods > 0)
        self.sizes = np.count_nonzero(prods > 0, axis=1)
        self.num_log_c = np.log(prods[prods > 0])
        self.num_A = pairs[ant[self.owner], k]
        neg_log_c = np.log(-prods, out=np.full(prods.shape, -np.inf),
                           where=prods < 0)
        self.denominators = [(neg_log_c[ant == a], pairs[a])
                             for a in range(n_ant)]

    def rows(self, log_anchor: np.ndarray, limit: float):
        """(log_c, A, sizes) of the constraints condensed at the anchor."""
        log_d, expo_d = map(np.concatenate, zip(*[
            condense(np.where(self.diagonal, np.log(0.5 * limit), neg_log_c),
                     pairs, log_anchor)
            for neg_log_c, pairs in self.denominators]))
        return (self.num_log_c - log_d[self.owner],
                self.num_A - expo_d[self.owner], self.sizes)


def optimize_papr(channel: ChannelRealization, power: float, eta: float,
                  params: RectennaParams, grid: FrequencyGrid,
                  options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Amplitude design under per-antenna peak-to-average power limits.

    The peak rows only add constraints to `optimize`'s problem, so its
    design, exactly as returned, is checked first on a 4x finer grid than
    the design grid.  When it meets eta there it is returned certified with
    no GP solve: a maximizer of the relaxation that meets the added rows
    maximizes the constrained problem, and `optimize`'s design dominates
    every baseline.  Any N-tone waveform has PAPR <= 2N, so at eta >= 2N
    this is always the path.

    Otherwise the sampled peak constraint is a signomial inequality; a
    single condensation of its denominator turns each sample into a
    posynomial constraint, and the resulting GP is solved per SCA
    iteration.  A post-hoc check on the 4x grid triggers a re-solve with a
    tightened limit when sampling missed a peak.  A closed-form baseline
    that passes the same check and scores higher replaces a certified
    design.
    """
    if eta < 2.0:
        raise ValueError("eta below 2 is infeasible (single-tone PAPR is 2)")
    ceiling = eta * (1.0 + 1e-6)
    h = channel.require_single_rectenna()
    baselines = _baselines(h, power)
    unconstrained = _aligned_design(h, np.abs(h), 1.0, baselines, power,
                                    params, grid, options)
    fine_basis = papr_basis(grid, 4 * options.papr_oversampling)
    fine = worst_papr(unconstrained.waveform.amplitudes,
                      unconstrained.waveform.phases, fine_basis)
    if fine <= ceiling:
        unconstrained.achieved_papr, unconstrained.papr_certified = fine, True
        return unconstrained
    n, m = h.shape
    n_vars = n * m
    obj = _WeightedDC([np.abs(h)], [1.0], params)
    floor = positivity_floor(power)
    phi_star = optimal_phases(channel)
    basis = papr_basis(grid, options.papr_oversampling)
    # cos(w_n t_q + phi) from the basis rows cos(w_n t_q), -sin(w_n t_q)
    peaks = _PeakConstraints(np.einsum(
        "inq,inm->mqn", basis.reshape(2, n, -1),
        np.stack([np.cos(phi_star), np.sin(phi_star)])))
    # (1/2P) sum_j s_j^2 <= 1, then floor/s_j <= 1 for every j
    base_log_c = np.concatenate([np.full(n_vars, np.log(1.0 / (2.0 * power))),
                                 np.full(n_vars, np.log(floor))])
    base_A = np.vstack([2.0 * np.eye(n_vars), -np.eye(n_vars)])
    base_sizes = np.concatenate([[n_vars], np.ones(n_vars, dtype=int)])

    # the baselines' z and PAPR do not depend on the limit: score them once
    baselines = [np.maximum(s, floor) for s, _ in baselines]
    paprs = [worst_papr(s, phi_star, basis) for s in baselines]
    zs = [obj.value(s) for s in baselines]
    best = int(np.argmax(zs))
    s_best, p_best = baselines[best], paprs[best]
    safe = baselines[2]  # `ass`: the channel is nonzero, so all four seeds

    def feasible_seeds(limit: float) -> list[np.ndarray]:
        """Distinct baselines under the limit, and a blend saving the best.

        PAPR is scale-invariant, so an over-the-limit candidate cannot be
        scaled into feasibility; blending it toward a compliant one keeps
        its allocation shape while meeting the limit.
        """
        seeds = _distinct([s for s, p in zip(baselines, paprs)
                           if p <= limit * (1.0 - 1e-9)]) or [safe]
        if p_best > limit * (1.0 - 1e-9):
            for t in np.linspace(0.0, 1.0, 33)[1:]:
                blend = (1.0 - t) * s_best + t * safe
                if worst_papr(blend, phi_star, basis) <= limit * (1.0 - 1e-9):
                    seeds.append(blend)
                    break
        return seeds

    def run(anchor: np.ndarray, limit: float):
        def solve(anchor):
            # the best monomial lower bound of z at the anchor has the
            # exponents s dz/ds / z, the AM-GM condensation of z without
            # enumerating its posynomial; its coefficient does not move
            # the optimum
            z, grad, _ = obj.value_grad_hess(anchor)
            log_c, A, sizes = peaks.rows(np.log(anchor).ravel(), limit)
            # solve_gp needs a strictly feasible start.  The anchor may sit
            # on its floor rows (a clipped amplitude) and within rounding of
            # the power row, and a start about 1e-12 inside a row can crawl;
            # lifting to twice the floor and shrinking the power by 1e-6
            # puts it well inside both.  PAPR is scale-invariant, so the
            # shrink leaves the peak rows as they are.
            start = np.maximum(anchor, 2.0 * floor) * np.sqrt(1.0 - 1e-6)
            try:
                report = solve_gp(-(anchor * grad / z).ravel(),
                                  stack_constraints(
                                      np.concatenate([base_log_c, log_c]),
                                      np.vstack([base_A, A]),
                                      np.concatenate([base_sizes, sizes])),
                                  start.ravel())
            except GPSolverError:
                # the start is not strictly inside its peak rows, e.g. the
                # single-tone corner at eta = 2, which touches them; the
                # run keeps its last accepted iterate
                return None
            x = report.x.reshape(n, m)
            return x, obj.value(x)

        return _monotone(solve, anchor, obj.value(anchor), options)

    limit = eta
    for _ in range(3):
        s, history, stop_reason = _best_run(
            [run(seed, limit) for seed in feasible_seeds(limit)])
        fine = worst_papr(s, phi_star, fine_basis)
        if fine <= ceiling:
            # the seeds stay 1e-9 inside the limit, so a baseline at the
            # limit can beat the design; the best one whose fine check
            # passes takes its place
            for k in sorted(range(len(zs)), key=lambda k: -zs[k]):
                if zs[k] > history[-1] and paprs[k] <= ceiling:
                    fine_k = worst_papr(baselines[k], phi_star, fine_basis)
                    if fine_k <= ceiling:
                        s, history[-1], fine = baselines[k], zs[k], fine_k
                        break
            break
        limit *= 0.999 * eta / fine
    return SCATrace(history, Waveform(s, phi_star, grid, power_budget=power),
                    stop_reason, achieved_papr=fine,
                    papr_certified=fine <= ceiling)


# ---------------------------------------------------------------------------
# multiple rectennas
# ---------------------------------------------------------------------------

def _as_channel_list(channels) -> list[np.ndarray]:
    if isinstance(channels, ChannelRealization):
        return [channels.rectenna(u).require_single_rectenna()
                for u in range(channels.n_rectennas)]
    return [(c if isinstance(c, ChannelRealization) else ChannelRealization(c))
            .require_single_rectenna() for c in channels]


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
        return baseline_waveform("ass", ChannelRealization(hs[0]), power, grid)
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

    The MM ascent designs amplitudes and phases jointly over the complex
    weights, from `ass_multi` and from each rectenna's own closed-form
    seeds, and keeps the best endpoint.  With U = 1 these are the four
    baselines, not the SMF(3) start of the single-rectenna design.  The
    seeds are scored at their own strategies' phases, and a `Waveform` is
    built only for the design returned.
    """
    hs = _as_channel_list(channels)
    weights = np.asarray(weights, dtype=float)
    if weights.size != len(hs):
        raise ValueError("one weight per rectenna required")
    if np.any(weights < 0) or not np.any(weights > 0):
        raise ValueError("weights must be nonnegative, not all zero")
    start = ass_multi(hs, weights, power, grid)
    seeds = [(start.amplitudes, start.phases)]
    for h_u in hs:
        seeds += _baselines(h_u, power)
    obj = _WeightedDC(hs, weights, params)
    w, history, stop_reason = _best_run(_ascents(
        obj, [s * np.exp(1j * phi) for s, phi in seeds], power, options))
    candidates = [(np.abs(w), np.angle(w))] + seeds
    k, history[-1] = _dominant_result(
        [s * np.exp(1j * phi) for s, phi in candidates], obj)
    return SCATrace(history, Waveform(*candidates[k], grid, power_budget=power),
                    stop_reason)


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
