"""A self-contained geometric-program solver and AM-GM condensation.

A geometric program minimizes a monomial ``x1^b1 * ... * xV^bV`` over
strictly positive variables subject to posynomial constraints
``sum_k c_k * x1^A_k1 * ... * xV^A_kV <= 1``.  After the substitution
``x = exp(y)`` it is convex: the objective turns affine in ``y`` and each
constraint a log-sum-exp function.  As in the standard form of Boyd et
al. ("A tutorial on geometric programming", Optim. Eng. 2007), a problem
is data only: the objective's exponent vector and one stacked constraint
set, the log coefficients and exponent rows of every constraint's terms
with each constraint's term count (`stack_constraints`).  The constraint
values, their Jacobian and the weighted sum of their Hessians come from
segment reductions and matrix products, whatever the number of
constraints; single-term (monomial) constraints are rows like any other.

`solve_gp` is a primal-dual interior-point method, preceded by a barrier
phase I when the start is not strictly feasible; phase I stops early,
from a duality bound, once it can prove that no strictly feasible point
exists.

The arithmetic-geometric mean condensation `condense` replaces each of
many posynomials over one exponent matrix by its best monomial lower
bound at an anchor point (tight at the anchor); the PAPR-constrained
design uses it to turn each sampled peak constraint into a posynomial one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# primal-dual stopping tolerances, and the Newton step cap of each phase
_GAP_TOL = 1e-9
_KKT_TOL = 1e-6
_FEAS_TOL = 1e-8
_MAX_NEWTON = 200


def condense(log_c: np.ndarray, A: np.ndarray,
             log_anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best monomial lower bound of each posynomial at an anchor (AM-GM).

    Row r of `log_c` holds posynomial r's log coefficients over the shared
    exponent matrix `A` (one row per term), with -inf for a term it lacks.
    With weights gamma_k = g_k(anchor)/f(anchor), the weighted geometric
    mean prod (g_k/gamma_k)^gamma_k is <= f everywhere and equals f at the
    anchor.  Returns each row's log coefficient and exponents, computed in
    the log domain; absent and underflowed terms contribute nothing.
    """
    z = log_c + A @ log_anchor
    w = np.exp(z - z.max(axis=1, keepdims=True))
    gamma = w / w.sum(axis=1, keepdims=True)
    live = gamma > 0
    log_gamma = np.log(np.where(live, gamma, 1.0))
    log_coeff = np.sum(gamma * (np.where(live, log_c, 0.0) - log_gamma), axis=1)
    return log_coeff, gamma @ A


@dataclass
class SolveReport:
    """A `solve_gp` result.  `converged` means that the primal-dual
    loop's own stopping test passed and the point meets the feasibility
    tolerance.  `message` is empty when converged, and otherwise names why
    the loop stopped: its iteration cap, a stalled line search, or a
    passed test whose point missed the feasibility tolerance."""

    x: np.ndarray
    constraint_values: np.ndarray
    iterations: int
    converged: bool
    kkt_residual: float
    duality_gap: float
    message: str = ""


class GPSolverError(RuntimeError):
    """Raised when the barrier solver cannot produce a usable point."""


def stack_constraints(log_c: np.ndarray, A: np.ndarray, sizes) -> tuple:
    """The constraint set sum_k exp(log_c_k + A_k.y) <= 1, one per segment.

    Row k of log_c and A is one term, and constraint i owns the next
    sizes[i] rows.  Returns (log_c, A, starts, seg): constraint i owns the
    rows from starts[i] up to starts[i+1], and seg[k] is the constraint
    that owns row k.
    """
    sizes = np.asarray(sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return log_c, A, starts, np.repeat(np.arange(sizes.size), sizes)


def _log_sums(stack, y):
    """(g, e, total): the log constraint values at y and their parts.

    g_i = log sum_k exp(log_c_k + A_k.y) over constraint i's terms, by
    segment reductions shifted by each segment's largest term top_i; e_k
    is term k's exp(log_c_k + A_k.y - top_i) and total_i the sum of
    constraint i's e_k.  Line searches take g alone.
    """
    log_c, A, starts, seg = stack
    z = log_c + A @ y
    top = np.maximum.reduceat(z, starts)
    e = np.exp(z - top[seg])
    total = np.add.reduceat(e, starts)
    return top + np.log(total), e, total


def _evaluate(stack, y, sums=None):
    """(g, J, hess) of the log constraint values at y.

    g comes from `_log_sums`, or is `sums` when the caller already holds
    `_log_sums(stack, y)`; J holds the gradients A^T p_i, with p the
    terms' shares of their constraint; hess(w) = sum_i w_i hess g_i =
    A^T diag(w[seg] p) A - J^T diag(w) J.
    """
    _, A, starts, seg = stack
    g, e, total = _log_sums(stack, y) if sums is None else sums
    p = e / total[seg]
    J = np.add.reduceat(p[:, None] * A, starts, axis=0)

    def hess(w):
        return A.T @ ((w[seg] * p)[:, None] * A) - J.T @ (w[:, None] * J)

    return g, J, hess


def _newton_center(stack, t, b0, y, max_steps, tol):
    """Damped Newton for t*(b0.y) - sum log(-g_i(y)); y must start interior.

    Returns (y, steps, centred): centred means the Newton decrement of the
    returned y met `tol`.  The backtracking line search evaluates the
    constraint values only.
    """
    n = y.size

    def objective(yv, g):
        return t * (b0 @ yv) - np.sum(np.log(-g)) if np.all(g < 0) else np.inf

    steps = 0
    sums = _log_sums(stack, y)
    # the accepted trial's values serve the next step's derivatives
    for _ in range(max_steps):
        g, J, hess_of = _evaluate(stack, y, sums)
        if not np.all(g < 0):
            raise GPSolverError("iterate left the feasible region")
        w = 1.0 / -g
        grad = t * b0 + J.T @ w
        hess = hess_of(w) + (J * (w * w)[:, None]).T @ J
        try:
            d = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            reg = 1e-10 * max(1.0, np.trace(hess) / n)
            d = np.linalg.solve(hess + reg * np.eye(n), -grad)
        decrement = float(-grad @ d)
        if decrement < 0:  # numerical loss of positive definiteness
            reg = 1e-8 * max(1.0, np.trace(hess) / n)
            d = np.linalg.solve(hess + reg * np.eye(n), -grad)
            decrement = float(-grad @ d)
        steps += 1
        if decrement / 2.0 <= tol:
            return y, steps, True
        f0 = objective(y, g)
        step = 1.0
        while step > 1e-14:
            y_new = y + step * d
            sums = _log_sums(stack, y_new)
            f_new = objective(y_new, sums[0])
            if f_new <= f0 - 0.25 * step * decrement:
                break
            step *= 0.5
        else:
            return y, steps, False  # stalled line search
        y = y_new
    return y, steps, False


def _phase_one(stack, y0, margin, max_steps):
    """Find y with all g_i(y) <= -margin starting from (possibly) infeasible y0.

    A barrier method on min s subject to g_i(y) <= s: the slack s enters
    every term as exp(-s), one extra column of -1 in the stacked exponent
    matrix, and starts at the worst g plus one.  Each round takes one
    damped Newton step, then raises t by 1.5, and returns as soon as the
    margin is met.  That exit bounds the work, not the distance travelled:
    the slack starts a whole unit above the worst g, so a start already
    within rounding of the margin can end far from where it began, and
    well inside the margin.  `solve_gp` runs it only on cold starts, at
    some g_i >= 0; a warm start strictly inside skips it.

    One step per t leaves the iterates uncentred, and the duality bound
    p* >= s - m/t on the least worst g (Boyd & Vandenberghe, Convex
    Optimization, section 11.4) holds only at a centred point.  Once
    s - m/t > -margin at an iterate, the iterate is centred at that t; if
    the centred bound still exceeds -margin, no point meets the margin and
    GPSolverError says so.  With a point inside the margin, p* <= -margin,
    so the centred bound never exceeds it (up to the centring tolerance).
    """
    n = y0.size
    worst = _log_sums(stack, y0)[0].max()
    if worst <= -margin:
        return y0
    log_c, A, starts, seg = stack
    m = starts.size
    aug = (log_c, np.hstack([A, -np.ones((A.shape[0], 1))]), starts, seg)
    z = np.concatenate([y0, [worst + 1.0]])
    b0 = np.zeros(n + 1)
    b0[-1] = 1.0
    t = 1.0
    steps = 0
    while steps < max_steps:
        z, _, _ = _newton_center(aug, t, b0, z, max_steps=1, tol=1e-12)
        steps += 1
        worst = _log_sums(stack, z[:n])[0].max()
        if worst <= -margin:
            return z[:n]
        if z[-1] - m / t > -margin:
            z, taken, centred = _newton_center(aug, t, b0, z,
                                               max_steps - steps, tol=1e-12)
            steps += taken
            worst = _log_sums(stack, z[:n])[0].max()
            if worst <= -margin:
                return z[:n]
            bound = z[-1] - m / t
            if centred and bound > -margin:
                raise GPSolverError(
                    f"certified: no strictly feasible point (bound "
                    f"{bound:.3g} after {steps} steps)")
        if z[-1] - worst > 2.0:  # slack variable lagging; re-anchor it
            z[-1] = worst + 1.0
        t *= 1.5
    raise GPSolverError(f"phase I reached its step cap ({max_steps} steps)")


def solve_gp(objective: np.ndarray, stack: tuple,
             x0: np.ndarray) -> SolveReport:
    """Minimize the monomial prod x^objective subject to `constraints`.

    `stack` is a `stack_constraints` set.  The start need not be
    strictly feasible (a phase-I search runs first when it is not; a
    strictly feasible start, however close to a constraint, is the
    primal-dual loop's start), but the problem must be feasible.  The
    engine is a primal-dual interior-point iteration on the log-domain
    convex program, which copes with the near-degenerate corners the
    waveform designs produce (many peak constraints active at once).
    Raises GPSolverError when phase I certifies that no point lies 1e-9
    inside every constraint, or reaches its `_MAX_NEWTON` step cap without
    finding one.
    """
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise GPSolverError("starting point must be strictly positive")
    b0 = np.asarray(objective, dtype=float)
    n = b0.size
    m = stack[2].size  # one start per constraint

    y = np.log(x0)
    sums = _log_sums(stack, y)
    if not np.all(sums[0] < 0):
        y = _phase_one(stack, y, margin=1e-9, max_steps=_MAX_NEWTON)
        sums = _log_sums(stack, y)

    g_vals, J, hess_of = _evaluate(stack, y, sums)
    # a row 5e-12 inside would start at lambda = 2e11, and such a start
    # makes the first Newton systems useless; of the floors 1e-3 to 1,
    # 1e-2 took the fewest iterations on the PAPR designs
    lam = 1.0 / np.maximum(-g_vals, 1e-2)
    mu = 10.0
    steps = 0
    # the stopping test runs on every iterate, the last one included
    for _ in range(_MAX_NEWTON + 1):
        gap = float(-lam @ g_vals)
        r_dual = b0 + J.T @ lam
        if gap <= _GAP_TOL and np.abs(r_dual).max() <= min(_KKT_TOL, 1e-9):
            stop = ""
            break
        if steps == _MAX_NEWTON:
            stop = "iteration cap reached"
            break
        t = mu * m / gap
        r_cent = -lam * g_vals - 1.0 / t
        h_pd = hess_of(lam) + (J * (lam / (-g_vals))[:, None]).T @ J
        rhs = -b0 - J.T @ (1.0 / (t * (-g_vals)))
        try:
            dy = np.linalg.solve(h_pd, rhs)
        except np.linalg.LinAlgError:
            reg = 1e-12 * max(1.0, np.trace(h_pd) / n)
            dy = np.linalg.solve(h_pd + reg * np.eye(n), rhs)
        dlam = (r_cent - lam * (J @ dy)) / g_vals

        step = 1.0
        shrink = dlam < 0
        if np.any(shrink):
            step = min(1.0, 0.99 * np.min(-lam[shrink] / dlam[shrink]))
        res0 = np.linalg.norm(np.concatenate([r_dual, r_cent]))
        accepted = False
        # a trial outside the constraints is rejected on its values alone,
        # and the accepted trial's derivatives serve the next iteration
        for _ in range(50):
            y_new = y + step * dy
            lam_new = lam + step * dlam
            sums = _log_sums(stack, y_new)
            if np.all(sums[0] < 0):
                vals_new, grads_new, hess_new = _evaluate(stack, y_new, sums)
                r_new = np.concatenate([b0 + grads_new.T @ lam_new,
                                        -lam_new * vals_new - 1.0 / t])
                if np.linalg.norm(r_new) <= (1.0 - 0.01 * step) * res0:
                    accepted = True
                    break
            step *= 0.5
        steps += 1
        if not accepted:  # the current iterate is the best available
            stop = "line search stalled"
            break
        y, lam = y_new, lam_new
        g_vals, J, hess_of = vals_new, grads_new, hess_new

    cons_vals = np.exp(g_vals)  # log-domain values, overflow-safe
    if not np.all(cons_vals <= 1.0 + _FEAS_TOL):
        stop = stop or "tolerances not met"
    return SolveReport(x=np.exp(y), constraint_values=cons_vals,
                       iterations=steps, converged=not stop,
                       kkt_residual=float(np.abs(r_dual).max()),
                       duality_gap=gap, message=stop)


def positivity_floor(power_budget: float) -> float:
    """Amplitude floor standing in for exact zeros in the log domain."""
    return 1e-12 * np.sqrt(2.0 * power_budget)
