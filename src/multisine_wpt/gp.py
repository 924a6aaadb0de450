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

`solve_gp` is a primal-dual interior-point method.  It needs a strictly
feasible start and refuses any other: its one caller, the PAPR design,
knows such a point by construction, so there is no phase I (Boyd &
Vandenberghe, Convex Optimization, section 11.4, need one only when no
strictly feasible point is known).

The arithmetic-geometric mean condensation `condense` replaces each of
many posynomials over one exponent matrix by its best monomial lower
bound at an anchor point (tight at the anchor); the PAPR-constrained
design uses it to turn each sampled peak constraint into a posynomial one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# primal-dual stopping tolerances, and the loop's iteration cap
_GAP_TOL = 1e-9
_KKT_TOL = 1e-9
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
    """Raised for a start that `solve_gp` refuses: one that is not
    strictly positive or not strictly feasible."""


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


def solve_gp(objective: np.ndarray, stack: tuple,
             x0: np.ndarray) -> SolveReport:
    """Minimize the monomial prod x^objective subject to `stack`.

    `stack` is a `stack_constraints` set.  The start must be strictly
    feasible, every g_i < 0 however close to 0; the caller builds such a
    point.  The engine is a primal-dual interior-point iteration on the
    log-domain convex program, which copes with the near-degenerate
    corners the waveform designs produce (many peak constraints active at
    once).  Raises GPSolverError for a start that is not strictly positive
    or has some g_i >= 0, naming the worst row and its value.
    """
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise GPSolverError("starting point must be strictly positive")
    b0 = np.asarray(objective, dtype=float)
    n = b0.size
    m = stack[2].size  # one start per constraint

    y = np.log(x0)
    sums = _log_sums(stack, y)
    worst = int(np.argmax(sums[0]))
    if not sums[0][worst] < 0:
        raise GPSolverError(f"start not strictly feasible: constraint "
                            f"{worst} has g = {sums[0][worst]:.3g}")

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
        if gap <= _GAP_TOL and np.abs(r_dual).max() <= _KKT_TOL:
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
