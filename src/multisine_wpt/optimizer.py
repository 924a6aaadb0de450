"""Waveform design strategies, from closed-form baselines to iterative designs.

The closed-form strategies are one table, `CLOSED_FORM`: each places
amplitudes by a rule of the channel and the power, sent at the aligned
phases or at zero phase, and `baseline_waveform` builds one by name.  Every
iterative design maximizes one objective, `_WeightedDC`, a nonnegatively
weighted sum of z_dc over rectennas on the rectenna's DC kernel.  The
single- and multi-rectenna designs share one minorize-maximize (MM) ascent
on it: the first over the N tone amplitudes on the effective channel
||h_n||, since at the aligned phases matched beamforming is optimal on
every tone, the second over the complex weights.  The objective is convex
in the weights, so its linearization at the current point is a global
lower bound, and maximizing that bound over the power ball gives the
closed-form, monotone update w <- sqrt(2P) grad / ||grad||.  That map
converges only linearly, so the ascent extrapolates it by SQUAREM (Varadhan
& Roland 2008) and keeps an extrapolated step only when it beats two plain
steps, which keeps the ascent monotone.  Single-tone corners are fixed
points of the update, so the start matters: the single-rectenna design
runs the ascent once, from the scaled matched filter SMF(3), and the
multi-rectenna design from every distinct closed-form seed, keeping the
best endpoint.  Each design scores every closed-form baseline against its
endpoint and returns one that still beats it, so every design dominates
them by construction.  The PAPR-constrained design first runs that
unconstrained ascent and returns its design when it already meets the
limit.  Otherwise it runs the same MM argument under the sampled peak
rows (a convex-concave procedure): each step maximizes the linearization
of z over the power ball and the amplitude floors, with each peak row's
concave side replaced by its tangent at the current point, a convex QCQP
in the amplitudes.  A step whose MM map meets every peak row is that map;
any other runs the primal-dual loop of `interior`.  A design that fails
the check on a 4x finer grid is designed again at the same limit with its
peak rows on that grid, which certifies it by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelRealization, FrequencyGrid
from .interior import InfeasibleStartError, minimize_linear
from .rectenna import (DCKernel, RectennaParams, Waveform, papr_basis,
                       worst_papr)

_TINY = 1e-300


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs shared by all iterative designs.

    One iteration of the single- and multi-rectenna designs is one SQUAREM
    cycle of the MM ascent (up to four gradient evaluations).  The
    PAPR-constrained design returns `optimize`'s design when it meets the
    limit, with that design's iterations; otherwise one of its iterations
    is one step, a QCQP in the amplitudes.  `eps` and `max_iterations`
    apply per iteration.  `papr_oversampling` sets the sample grid of that
    design's first round; 4x of it certifies the design and hosts the
    second round, run when the first round's design fails that check.
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

    An iteration is an MM cycle or a PAPR step (see `OptimizerOptions`).
    `stop_reason` is `tol` (the last iteration changed z by less than
    eps*z), `max_iter` (the iteration cap), `stall` (an iteration would
    have lowered z by more than that and was rejected) or `solver_fallback`
    (the primal-dual loop refused a start that was not strictly inside its
    rows, and the run kept its last accepted iterate).

    `kkt_residual` is the returned design's stationarity number: the KKT
    gap of its amplitudes for `optimize`'s design, the MM fixed-point
    residual ||g/||g|| - w/||w|||| of its weights w and gradient g for
    `optimize_multi`, and for a design of `optimize_papr`'s steps the dual
    residual max |c + J^T lambda| of the last step's multipliers lambda on
    the rows rebuilt at the design, where each tangent row has its peak
    row's gradient (c is the scaled objective gradient, as in the step).
    A PAPR design that keeps a seed or a baseline leaves it None.

    The PAPR-constrained design also records its inner work, summed over
    both rounds: `step_solves` steps that ran the primal-dual loop, with
    `step_iterations` loop iterations between them, the
    `SolveReport.message` of each loop that stopped unconverged (at its
    iteration cap, say) in `step_unconverged`, and `step_refused` starts
    the loop refused.  A step whose MM map meets its peak rows runs no
    loop; designs without one leave them at zero and empty.
    """

    zdc_history: np.ndarray
    waveform: Waveform
    stop_reason: str
    kkt_residual: float | None = None
    achieved_papr: float | None = None
    papr_certified: bool | None = None
    step_solves: int = 0
    step_iterations: int = 0
    step_unconverged: list[str] = field(default_factory=list)
    step_refused: int = 0

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
    aligned-phase view; only the latter has a Hessian.  The maps v_u
    conj(h_u) are formed once, at construction, so an evaluation does only
    the work that depends on its point; z and the gradient do not depend on
    `want_hess`, so an evaluation with the Hessian also serves one without.
    """

    def __init__(self, hs: list[np.ndarray], weights, params: RectennaParams):
        self.terms = list(zip(weights, hs))
        self.kernel = DCKernel(params)
        self._maps = [v * np.conj(h) for v, h in self.terms]

    def value(self, w: np.ndarray) -> float:
        """z(w), the same sum as the weighted sum of `zdc_analytic`."""
        return self.value_grad_hess(w)[0]

    def value_grad_hess(self, w: np.ndarray, want_hess: bool = False):
        """(z, 2 dz/d conj(w), Hessian or None): the gradient is the ascent
        direction in the weights; the Hessian, for real gains and weights,
        is sum_u v_u H_u, the N x N Hessian of the kernel in the received
        tones.  With one rectenna on the gains g, the amplitude Hessian
        entry (n, m, p, q) is g_nm H_np g_pq."""
        z, grad, hess = 0.0, 0.0, 0.0
        for (v, h), back in zip(self.terms, self._maps):
            z_u, g_u, hess_u = self.kernel.value_grad_hess(
                np.einsum("nm,nm->n", h, w), want_hess)
            z += v * z_u
            grad = grad + back * g_u[:, None]
            if want_hess:
                hess = hess + v * hess_u
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


def _norm(x: np.ndarray) -> float:
    """`np.linalg.norm(x)` of a float or complex array: the same dot
    products, without the dispatch that costs more than they do at the
    ascent's sizes."""
    x = x.ravel(order="K")
    if np.iscomplexobj(x):
        return np.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return np.sqrt(x.dot(x))


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
    most four gradient evaluations, each at a point no other one scores.

    One cycle is one iteration of `_monotone`.  The start is scored once,
    and its z decides whether the run starts at all: None for z(w) = 0, a
    start that reaches no rectenna, where the gradient vanishes and the map
    is undefined.
    """
    radius = np.sqrt(2.0 * power)

    def step(grad):
        w_next = radius * grad / _norm(grad)
        return (w_next, *obj.value_grad_hess(w_next)[:2])

    def cycle(state):
        w, grad = state
        w1, _, grad1 = step(grad)
        w_new, z_new, grad_new = step(grad1)
        r = w1 - w
        v = w_new - 2.0 * w1 + w
        v_norm = _norm(v)
        if v_norm > 0:
            alpha = min(-_norm(r) / v_norm, -1.0)
            w_ext = w - 2.0 * alpha * r + alpha ** 2 * v
            _, grad_ext, _ = obj.value_grad_hess(radius * w_ext
                                                 / _norm(w_ext))
            w3, z3, grad3 = step(grad_ext)
            if z3 > z_new:
                w_new, z_new, grad_new = w3, z3, grad3
        return (w_new, grad_new), z_new

    z, grad, _ = obj.value_grad_hess(w)
    if not z > 0:
        return None
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
    keeps the gradient nonzero for the whole run.  `_mm_ascent` scores
    each seed once, and the z > 0 test reuses that evaluation: a seed at
    z = 0 returns no run.
    """
    runs = [run for run in (_mm_ascent(obj, w, power, options)
                            for w in _distinct(seeds)) if run is not None]
    if not runs:
        raise ValueError("no seed reaches a rectenna: the channel is zero")
    return runs


def _best_run(runs: list):
    """The run ending at the highest z; ties go to the earlier seed."""
    return max(runs, key=lambda run: run[1][-1])


def _stationarity_gap(s: np.ndarray, z: float, grad: np.ndarray,
                      power: float) -> tuple[float, float]:
    """(max |b - nu c|, nu) for max log z s.t. power <= P, in log variables.

    b_j is the gradient of log z in log variables and c_j = s_j^2/P the
    gradient of the active power constraint; at a KKT point they are
    parallel, b = nu c.  Both vanish at a zero amplitude.  z and its
    gradient are those of the amplitudes s, from an evaluation the caller
    already holds, so the gap costs no evaluation of its own.
    """
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
    P d2z/ds_j2 / z - nu; a saddle corner shows in the second.  On the
    gains g, d2z/ds_nm2 = g_nm^2 H_nn, with H the kernel's Hessian.  One
    evaluation serves both, with the Hessian only when an amplitude is zero.
    """
    zero = s == 0
    z, grad, hess = obj.value_grad_hess(s, want_hess=bool(np.any(zero)))
    gap, nu = _stationarity_gap(s, z, grad, power)
    if hess is None:
        return gap
    [(_, gains)] = obj.terms
    first = np.sqrt(power) * grad[zero] / z
    second = power * (gains * np.diag(hess)[:, None] * gains)[zero] / z - nu
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
    with H_np = t_n H'_np t_p the Hessian of z in amplitudes s of shape
    (N, 1) on one column of gains t, H' the kernel's: a step solves at most
    an (N + 1)^2 system.  Newton on the gap itself would have a spurious
    root at s_j = 0, where its row vanishes, and walks a weak coordinate
    that starts below its optimum toward it; these rows have no such root.
    A coordinate the step takes to zero or below is held at zero, where its
    bound s_j >= 0 is active.  Falls back to the input point whenever the
    refinement does not verifiably improve it.

    Returns (s, z) of the point kept, and scores each point once: the
    input's one evaluation, with the Hessian, serves its share test, the
    first Newton step and the acceptance test, and the acceptance test
    scores the final point only when it is not the last one scored.
    """
    [(_, gains)] = obj.terms
    z_start, grad_start, hess = obj.value_grad_hess(s, want_hess=True)
    z, grad, s_scored = z_start, grad_start, s
    free = s * grad > _POLISH_MIN_SHARE * z_start
    s_work = s
    nu = None
    for _ in range(30):
        if s_work is not s_scored:
            z, grad, hess = obj.value_grad_hess(s_work, want_hess=True)
            s_scored = s_work
        keep = free[:, 0]
        hess = (gains * hess * gains.T)[keep][:, keep]
        s_free = s_work[free]
        n_free = s_free.size
        b = s_free * grad[free] / z
        c = s_free ** 2 / power
        if nu is None:
            nu = float(b @ c) / float(c @ c)
        res = np.concatenate([b - nu * c,
                              [((s_work ** 2).sum() - 2.0 * power)
                               / (2.0 * power)]])
        if np.abs(res).max() <= 1e-13:
            break
        # the outer products and the diagonal term, written out: numpy's
        # helpers cost more than the arithmetic at these sizes
        jac = np.zeros((n_free + 1, n_free + 1))
        jac[:n_free, :n_free] = (s_free[:, None] * s_free * hess / z
                                 - b[:, None] * b)
        diagonal = np.arange(n_free)
        jac[diagonal, diagonal] -= nu * c
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
    fixed_power = (s_work[~free] ** 2).sum()
    scale_sq = (2.0 * power - fixed_power) / (s_work[free] ** 2).sum()
    if scale_sq > 0:
        s_work = s_work.copy()
        s_work[free] *= np.sqrt(scale_sq)
    if not np.isfinite(s_work).all():
        return s, z_start
    if not (s_work == s_scored).all():
        z, grad, _ = obj.value_grad_hess(s_work)
    if _stationarity_gap(s_work, z, grad, power)[0] \
            < _stationarity_gap(s, z_start, grad_start, power)[0] \
            and z >= z_start * (1.0 - 1e-9):
        return s_work, z
    return s, z_start


def _dominant_result(candidates: list[np.ndarray],
                     obj: _WeightedDC) -> tuple[int, float, np.ndarray]:
    """(k, z, gradient) of the first of the candidate weights with the
    highest z.

    Candidate 0 is a design's endpoint and the others its closed-form
    seeds.  z is `obj.value` of the complex weights on the complex
    channels, the weighted `zdc_analytic` sum that external checks use,
    and the gradient comes from the same evaluation.  Rounding can place a
    refined endpoint an ulp below an exact seed; keeping the seed then
    makes the design dominate every seed exactly.
    """
    scored = [obj.value_grad_hess(w)[:2] for w in candidates]
    k = int(np.argmax([z for z, _ in scored]))
    return k, *scored[k]


def _aligned_design(h: np.ndarray, baselines: list[tuple], power: float,
                    params: RectennaParams, grid: FrequencyGrid,
                    options: OptimizerOptions) -> SCATrace:
    """One polished MM run over the tone amplitudes p on the effective
    gains ||h_n||, from `_smf_start`, spread as s_nm = p_n |h_nm| / ||h_n||
    (zero on a tone without gain) and returned at the aligned phases of h,
    or as the baseline amplitudes that beat it there.

    The map keeps the amplitudes nonnegative; an extrapolated step can flip
    the sign of one, which is safe: the magnitudes kept here score no lower.
    A Newton polish of the amplitudes' stationarity conditions finishes the
    run, since an unpolished endpoint can be a saddle corner.  The KKT
    residual is the returned amplitudes' in the N*M problem on |h|.
    """
    gains = np.abs(h)
    norms = np.linalg.norm(gains, axis=1, keepdims=True)
    obj = _WeightedDC([norms], [1.0], params)
    [(p, history, stop_reason)] = _ascents(obj, [_smf_start(norms, power)],
                                           power, options)
    # the polished point is kept when z stays within rounding of the
    # endpoint, so the history stays monotone
    polished, z_polished = _kkt_polish_power_only(obj, np.abs(p), power)
    if z_polished >= history[-1] * (1.0 - 1e-12):
        p, history = polished, np.append(history, z_polished)
    s = np.abs(p) * np.divide(gains, norms, out=np.zeros_like(gains),
                              where=norms > 0)
    phases = -np.angle(h)
    rotor = np.exp(1j * phases)
    candidates = [s] + [b for b, _ in baselines]
    k, history[-1], _ = _dominant_result([c * rotor for c in candidates],
                                         _WeightedDC([h], [1.0], params))
    return SCATrace(
        history, Waveform(candidates[k], phases, grid, power_budget=power),
        stop_reason, kkt_residual=_kkt_residual_power_only(
            _WeightedDC([gains], [1.0], params), candidates[k], power))


def optimize(channel: ChannelRealization, power: float,
             params: RectennaParams, grid: FrequencyGrid,
             options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Joint space-frequency amplitude design at the aligned phases.

    At the aligned phases tone n arrives as sum_m |h_nm| s_nm, largest for
    a fixed tone power p_n^2 at s_nm proportional to |h_nm|, as p_n ||h_n||:
    matched beamforming is optimal on every tone, and only the N tone
    amplitudes on the effective channel ||h_n|| are left to design.  The MM
    ascent runs over those once, from the scaled matched filter SMF(3),
    which puts the power on the strong tones and still spreads it over
    several, as the nonlinear model does at its optimum; every closed-form
    baseline is scored against the endpoint on the complex channel.
    """
    h = channel.require_single_rectenna()
    return _aligned_design(h, _baselines(h, power), power, params, grid,
                           options)


# ---------------------------------------------------------------------------
# PAPR-constrained design
# ---------------------------------------------------------------------------

def positivity_floor(power_budget: float) -> float:
    """Amplitude floor of the PAPR design's step: its rows keep every
    amplitude at or above it, and its seeds are lifted onto it."""
    return 1e-12 * np.sqrt(2.0 * power_budget)


def _peak_matrix(cos: np.ndarray) -> np.ndarray:
    """The sampled peak rows as one (M*Q, N*M) matrix.

    `cos[m, q, n]` holds cos(w_n t_q + phi*_{n,m}), so antenna m's sample q
    is x_m(t_q) = a_mq . s_m.  Row m*Q + q holds a_mq on antenna m's
    amplitudes, the columns n*M + m of the flattened (N, M) amplitudes, and
    zeros elsewhere, so one product gives every sample of every antenna.
    """
    n_ant, n_samples, n_tones = cos.shape
    rows = np.zeros((n_ant, n_samples, n_tones, n_ant))
    ant = np.arange(n_ant)
    rows[ant, :, :, ant] = cos
    return rows.reshape(n_ant * n_samples, n_tones * n_ant)


def _step_rows(peaks: np.ndarray, anchor: np.ndarray, limit: float,
               floor: float):
    """(values, evaluate) of the PAPR step's rows at the anchor, in the
    scaled amplitudes u = s / sqrt(2P) of shape (N, M), flattened.

    The rows are the power ||u|| - 1 <= 0, the floors floor - u_j <= 0
    and, for each antenna m and sample q, the peak row
    (a_mq . u_m)^2 <= (limit/2) ||u_m||^2 with its concave right side
    replaced by its tangent at the anchor u',
    (limit/2) (2 u'_m . u_m - ||u'_m||^2), which lies below it everywhere
    and equals it at u'.  Divided by (limit/2) ||u'_m||^2, row i of `peaks`
    reads sigma_i (p_i . u)^2 - c_i . u + 1 <= 0, with
    sigma_i = 2 / (limit ||u'_m||^2) and c_i = 2 u'_m / ||u'_m||^2 on
    antenna m's amplitudes.  Its gradient is 2 sigma_i (p_i . u) p_i - c_i,
    and the weighted sum of the rows' Hessians is
    w_0 (I - u u^T / ||u||^2) / ||u|| + P^T diag(2 sigma w) P, one matrix
    product.  The power row ||u||^2 - 1 bounds the same ball and gives the
    same step; over 831 PAPR designs the loop reached its iteration cap on
    11 steps with it and on 8 with the norm.
    """
    n_ant = anchor.shape[1]
    owner = np.repeat(np.arange(n_ant), peaks.shape[0] // n_ant)
    column = np.tile(np.arange(n_ant), anchor.shape[0])  # antenna of u_j
    norms_sq = np.sum(anchor ** 2, axis=0)
    sigma = 2.0 / (limit * norms_sq[owner])
    tangent = 2.0 * anchor.ravel() / norms_sq[column]
    lin = np.where(owner[:, None] == column, tangent, 0.0)

    def values(u):
        return np.concatenate([[_norm(u) - 1.0], floor - u,
                               sigma * (peaks @ u) ** 2 - lin @ u + 1.0])

    def evaluate(u):
        x = peaks @ u
        length = _norm(u)
        J = np.vstack([u / length, -np.eye(u.size),
                       (2.0 * sigma * x)[:, None] * peaks - lin])

        def hess(w):
            h = peaks.T @ ((2.0 * sigma * w[1 + u.size:])[:, None] * peaks)
            h -= (w[0] / length ** 3) * np.outer(u, u)
            h[np.diag_indices_from(h)] += w[0] / length
            return h

        return values(u), J, hess

    return values, evaluate


def optimize_papr(channel: ChannelRealization, power: float, eta: float,
                  params: RectennaParams, grid: FrequencyGrid,
                  options: OptimizerOptions = OptimizerOptions()) -> SCATrace:
    """Amplitude design under per-antenna peak-to-average power limits.

    The peak rows only add constraints to `optimize`'s problem, so its
    design, exactly as returned, is checked first on a 4x finer grid than
    the design grid.  When it meets eta there it is returned certified with
    no step: a maximizer of the relaxation that meets the added rows
    maximizes the constrained problem, and `optimize`'s design dominates
    every baseline.  Any N-tone waveform has PAPR <= 2N, so at eta >= 2N
    this is always the path.

    Otherwise each sampled peak row x_m(t_q)^2 <= (eta/2) ||s_m||^2 is a
    difference of convex quadratics in the amplitudes, and the SCA runs the
    convex-concave procedure (Yuille & Rangarajan, Neural Computation 2003;
    Lipp & Boyd, Optim. Eng. 2016) from each feasible seed: a step at the
    anchor s' maximizes grad z(s') . s over the power ball and the floors,
    with ||s_m||^2 replaced by its tangent 2 s'_m . s_m - ||s'_m||^2
    (`_step_rows`).  The step is tight at s' and an inner approximation, so
    its solution is feasible and z cannot fall, the argument of
    `_mm_ascent`.  When the MM map sqrt(2P) grad / ||grad||, floored,
    meets every peak row it is the step's solution; otherwise
    `interior.minimize_linear` solves the QCQP from the anchor.  A
    baseline at the limit is a seed too, and a run whose start the loop
    refuses keeps it.  The best run's design is checked on the 4x grid;
    when sampling missed a peak there, a second round runs the same seeds
    and steps at eta with every peak row, seed PAPR and blend on the 4x
    grid, so each of its iterates meets every sample the check reads.
    """
    if eta < 2.0:
        raise ValueError("eta below 2 is infeasible (single-tone PAPR is 2)")
    ceiling = eta * (1.0 + 1e-6)
    h = channel.require_single_rectenna()
    baselines = _baselines(h, power)
    unconstrained = _aligned_design(h, baselines, power, params, grid,
                                    options)
    fine_basis = papr_basis(grid, 4 * options.papr_oversampling)
    fine = worst_papr(unconstrained.waveform.amplitudes,
                      unconstrained.waveform.phases, fine_basis)
    if fine <= ceiling:
        unconstrained.achieved_papr, unconstrained.papr_certified = fine, True
        return unconstrained
    n, m = h.shape
    radius = np.sqrt(2.0 * power)
    obj = _WeightedDC([np.abs(h)], [1.0], params)
    floor = positivity_floor(power)
    phi_star = optimal_phases(channel)

    # z and its gradient at each point the SCA reaches, by the point's
    # bytes: a step's solution is scored once as an iterate and serves as
    # the next anchor, and a seed is scored once as a baseline (equal
    # baselines, `mf`, `upmf` and `up` on a flat channel, are one point)
    scores = {}

    def score(s: np.ndarray) -> tuple[float, np.ndarray]:
        key = s.tobytes()
        if key not in scores:
            scores[key] = obj.value_grad_hess(s)[:2]
        return scores[key]

    baselines = [np.maximum(s, floor) for s, _ in baselines]
    best = int(np.argmax([score(s)[0] for s in baselines]))
    safe = baselines[2]  # `ass`: the channel is nonzero, so all four seeds

    def feasible_seeds(basis: np.ndarray) -> list[np.ndarray]:
        """Distinct baselines meeting eta on the basis, and a blend saving
        the best.

        A baseline at the limit is a seed: a run that cannot step from it
        keeps it.  PAPR is scale-invariant, so an over-the-limit candidate
        cannot be scaled into feasibility; blending it toward a compliant
        one, strictly inside the limit, keeps its allocation shape.
        """
        paprs = [worst_papr(s, phi_star, basis) for s in baselines]
        seeds = _distinct([s for s, p in zip(baselines, paprs)
                           if p <= ceiling]) or [safe]
        if paprs[best] > eta * (1.0 - 1e-9):
            for t in np.linspace(0.0, 1.0, 33)[1:]:
                blend = (1.0 - t) * baselines[best] + t * safe
                if worst_papr(blend, phi_star, basis) <= eta * (1.0 - 1e-9):
                    seeds.append(blend)
                    break
        return seeds

    # every run's step reports and refused starts, for the trace's counts
    reports, refused = [], []

    def run(anchor: np.ndarray, peaks: np.ndarray):
        """(s, z history, stop reason, KKT residual or None) of one SCA run
        from the anchor under the peak rows."""
        multipliers = []  # the duals of each step the run takes

        def step(anchor):
            # the step maximizes the linearization of z at the anchor,
            # grad . s, scaled by sqrt(2P) / z in the amplitudes u
            z, grad = score(anchor)
            objective = -(radius * grad / z).ravel()
            values, evaluate = _step_rows(peaks, anchor / radius, eta,
                                          floor / radius)
            # the MM map, the maximizer over the power ball and the floors,
            # is the step's solution when it meets every peak row; its
            # multipliers are ||c|| on the ball and c_j + ||c|| u_j on a
            # floor it holds
            lam_power = _norm(objective)
            mm_map = -objective / lam_power
            u = np.maximum(mm_map, floor / radius)
            if np.all(values(u)[1 + u.size:] < 0):
                multipliers.append(np.concatenate([
                    [lam_power],
                    np.where(u > mm_map, objective + lam_power * u, 0.0),
                    np.zeros(peaks.shape[0])]))
                x = radius * u.reshape(n, m)
                return x, score(x)[0]
            # the loop needs a strictly feasible start.  The anchor may sit
            # on its floor rows (a clipped amplitude) and within rounding of
            # the power row, and a start about 1e-12 inside a row can crawl;
            # lifting to twice the floor and shrinking the power by 1e-6
            # puts it well inside both.  The tangent rows are left strictly
            # inside only by the anchor's own margin under the limit.
            start = np.maximum(anchor, 2.0 * floor) / radius \
                * np.sqrt(1.0 - 1e-6)
            try:
                report = minimize_linear(objective, values, evaluate,
                                         start.ravel())
            except InfeasibleStartError:
                # the start is not strictly inside its peak rows, e.g. a
                # seed at the limit or the single-tone corner at eta = 2,
                # which touch them; the run keeps its last accepted iterate
                refused.append(anchor)
                return None
            reports.append(report)
            multipliers.append(report.multipliers)
            x = radius * report.x.reshape(n, m)
            return x, score(x)[0]

        s, history, stop_reason = _monotone(step, anchor, score(anchor)[0],
                                            options)
        if history.size == 1:
            return s, history, stop_reason, None  # the seed
        # the last step's multipliers on the rows rebuilt at the design,
        # where each tangent row has its peak row's gradient
        z, grad = score(s)
        _, evaluate = _step_rows(peaks, s / radius, eta, floor / radius)
        _, J, _ = evaluate(s.ravel() / radius)
        residual = -(radius * grad / z).ravel() + J.T @ multipliers[-1]
        return s, history, stop_reason, float(np.abs(residual).max())

    # round 1 samples the peak rows on the design grid; when its design
    # fails the 4x check, round 2 samples them on the 4x grid, so every
    # iterate meets each sample the check reads
    for basis in (papr_basis(grid, options.papr_oversampling), fine_basis):
        # cos(w_n t_q + phi) from the basis rows cos(w_n t_q), -sin(w_n t_q)
        peaks = _peak_matrix(np.einsum(
            "inq,inm->mqn", basis.reshape(2, n, -1),
            np.stack([np.cos(phi_star), np.sin(phi_star)])))
        s, history, stop_reason, kkt = _best_run(
            [run(seed, peaks) for seed in feasible_seeds(basis)])
        fine = worst_papr(s, phi_star, fine_basis)
        if fine <= ceiling:
            break
    return SCATrace(history, Waveform(s, phi_star, grid, power_budget=power),
                    stop_reason, kkt_residual=kkt, achieved_papr=fine,
                    papr_certified=fine <= ceiling,
                    step_solves=len(reports),
                    step_iterations=sum(r.iterations for r in reports),
                    step_unconverged=[r.message for r in reports
                                      if not r.converged],
                    step_refused=len(refused))


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
    built only for the design returned.  Its `kkt_residual` is the MM
    fixed-point residual of the returned weights, from the gradient of the
    evaluation that picks them.
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
    ws = [s * np.exp(1j * phi) for s, phi in candidates]
    k, history[-1], grad = _dominant_result(ws, obj)
    # the MM map F(w) = sqrt(2P) grad / ||grad|| fixes w exactly when the
    # gradient points along w
    residual = _norm(grad / _norm(grad) - ws[k] / _norm(ws[k]))
    return SCATrace(history, Waveform(*candidates[k], grid, power_budget=power),
                    stop_reason, kkt_residual=float(residual))


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
