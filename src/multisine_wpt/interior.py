"""A primal-dual interior-point loop: minimize a linear objective c.y
subject to smooth convex rows g_i(y) < 0.

A problem is its objective vector and one function of the point,
`rows(y) -> (g, derivatives)`: g holds the rows' values, and
`derivatives() -> (J, hess)` builds their Jacobian J (one gradient per
row) and hess(w), the weighted sum sum_i w_i hess g_i, from the work
`rows` already did.  The loop calls `rows` once per point it visits and
builds the derivatives only at a point strictly inside every row, at most
once, so a line-search trial outside the rows costs its values alone.

The loop needs a strictly feasible start and refuses any other: its one
caller in the package, the PAPR design's step, knows such a point by
construction, so there is no phase I (Boyd & Vandenberghe, Convex
Optimization, section 11.4, need one only when no strictly feasible point
is known).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# primal-dual stopping tolerances, and the loop's iteration cap
_GAP_TOL = 1e-9
_KKT_TOL = 1e-9
_FEAS_TOL = 1e-8
_MAX_NEWTON = 200


@dataclass
class SolveReport:
    """A `minimize_linear` result.  `converged` means that the loop's own
    stopping test passed and the point meets the feasibility tolerance.
    `message` is empty when converged, and otherwise names why the loop
    stopped: its iteration cap, a stalled line search, or a passed test
    whose point missed the feasibility tolerance.  `multipliers` are the
    rows' duals at the returned point, and `kkt_residual` is
    max |c + J^T multipliers| there."""

    x: np.ndarray
    constraint_values: np.ndarray
    iterations: int
    converged: bool
    kkt_residual: float
    duality_gap: float
    multipliers: np.ndarray
    message: str = ""


class InfeasibleStartError(RuntimeError):
    """Raised for a start that `minimize_linear` refuses: one that is not
    strictly inside every row."""


def minimize_linear(objective: np.ndarray, rows,
                    y0: np.ndarray) -> SolveReport:
    """Minimize objective . y subject to g(y) < 0, from y0.

    `rows(y)` returns (g, derivatives), and `derivatives()` returns
    (J, hess) at the same y.  Each point the loop visits, the start and
    every line-search trial, costs one `rows` call; `derivatives()` runs
    only where every g_i < 0, at most once per point.  The start must be
    strictly feasible, every g_i < 0 however close to 0; the caller
    builds such a point.  Raises InfeasibleStartError for a start with
    some g_i >= 0, naming the worst row and its value.
    """
    b0 = np.asarray(objective, dtype=float)
    n = b0.size
    y = np.asarray(y0, dtype=float)
    g_vals, derivatives = rows(y)
    m = g_vals.size
    worst = int(g_vals.argmax())
    if not g_vals[worst] < 0:
        raise InfeasibleStartError(f"start not strictly feasible: constraint "
                                   f"{worst} has g = {g_vals[worst]:.3g}")

    J, hess_of = derivatives()
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
        if shrink.any():
            step = min(1.0, 0.99 * (-lam[shrink] / dlam[shrink]).min())
        # ||r|| as np.linalg.norm takes it for a 1-D float array
        r = np.concatenate([r_dual, r_cent])
        res0 = math.sqrt(r.dot(r))
        accepted = False
        # a trial outside the rows is rejected on its values alone, and
        # the accepted trial's derivatives serve the next iteration
        for _ in range(50):
            y_new = y + step * dy
            lam_new = lam + step * dlam
            vals_new, derivatives = rows(y_new)
            if (vals_new < 0).all():
                grads_new, hess_new = derivatives()
                r = np.concatenate([b0 + grads_new.T @ lam_new,
                                    -lam_new * vals_new - 1.0 / t])
                if math.sqrt(r.dot(r)) <= (1.0 - 0.01 * step) * res0:
                    accepted = True
                    break
            step *= 0.5
        steps += 1
        if not accepted:  # the current iterate is the best available
            stop = "line search stalled"
            break
        y, lam = y_new, lam_new
        g_vals, J, hess_of = vals_new, grads_new, hess_new

    if not (g_vals <= _FEAS_TOL).all():
        stop = stop or "tolerances not met"
    return SolveReport(x=y, constraint_values=g_vals, iterations=steps,
                       converged=not stop,
                       kkt_residual=float(np.abs(r_dual).max()),
                       duality_gap=gap, multipliers=lam, message=stop)
