"""A geometric program and the AM-GM condensation, on the package's
primal-dual loop.

A geometric program minimizes a monomial x1^b1 * ... * xV^bV over strictly
positive variables subject to posynomial constraints
sum_k c_k * x1^A_k1 * ... * xV^A_kV <= 1.  After the substitution
x = exp(y) it is convex: the objective turns affine in y and each
constraint a log-sum-exp function (Boyd et al., "A tutorial on geometric
programming", Optim. Eng. 2007).  A problem is data only: the objective's
exponent vector and one stacked constraint set, the log coefficients and
exponent rows of every constraint's terms with each constraint's term
count (`stack_constraints`).  `solve_gp` hands the log-domain rows to
`interior.minimize_linear`, the loop the PAPR design's step runs on.

The PAPR design solved such programs until its step became a convex QCQP
in the amplitudes; these are its GP rows and its condensation, kept as a
reference for the shared loop.
"""

import numpy as np

from multisine_wpt.interior import InfeasibleStartError, minimize_linear


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


def _evaluate(stack, y):
    """(g, J, hess) of the log constraint values at y.

    J holds the gradients A^T p_i, with p the terms' shares of their
    constraint; hess(w) = sum_i w_i hess g_i =
    A^T diag(w[seg] p) A - J^T diag(w) J.
    """
    _, A, starts, seg = stack
    g, e, total = _log_sums(stack, y)
    p = e / total[seg]
    J = np.add.reduceat(p[:, None] * A, starts, axis=0)

    def hess(w):
        return A.T @ ((w[seg] * p)[:, None] * A) - J.T @ (w[:, None] * J)

    return g, J, hess


def solve_gp(objective: np.ndarray, stack: tuple, x0: np.ndarray):
    """Minimize the monomial prod x^objective subject to `stack`, from a
    strictly feasible x0, on the log-domain rows.

    Returns the loop's report with `x` and `constraint_values` mapped back
    from the log domain.  Raises InfeasibleStartError for a start that is
    not strictly positive or has some g_i >= 0.
    """
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise InfeasibleStartError("starting point must be strictly positive")
    report = minimize_linear(
        objective, lambda y: (_log_sums(stack, y)[0],
                              lambda: _evaluate(stack, y)[1:]), np.log(x0))
    report.x = np.exp(report.x)
    report.constraint_values = np.exp(report.constraint_values)
    return report
