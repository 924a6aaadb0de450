"""Posynomial/signomial algebra and a self-contained geometric-program solver.

A monomial is ``c * x1^a1 * ... * xV^aV`` with ``c > 0`` over strictly
positive variables; a posynomial is a sum of monomials.  Geometric programs
(monomial objective, posynomial <= 1 constraints) become convex after the
substitution ``x = exp(y)``: monomials turn affine in ``y`` and posynomial
constraints turn into log-sum-exp functions.  The solver below is a plain
primal barrier method with damped Newton centering, which is plenty for the
small, well-conditioned programs produced by the waveform optimizers.

The arithmetic-geometric mean condensation `condense` is the workhorse of
the successive-approximation loops: it replaces a posynomial by its best
monomial lower bound at an anchor point (tight at the anchor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Monomial:
    """Single power product: coefficient * prod_j x_j**exponents[j]."""

    coefficient: float
    exponents: np.ndarray

    def __post_init__(self):
        if not self.coefficient > 0:
            raise ValueError("monomial coefficient must be strictly positive")
        e = np.asarray(self.exponents, dtype=float)
        if e.ndim != 1 or not np.all(np.isfinite(e)):
            raise ValueError("exponents must be a finite 1-D array")
        object.__setattr__(self, "exponents", e)

    @property
    def n_vars(self) -> int:
        return self.exponents.size

    def evaluate(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.coefficient * np.prod(x ** self.exponents))

    def log_evaluate(self, log_x: np.ndarray) -> float:
        return float(np.log(self.coefficient) + self.exponents @ log_x)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coefficient * other.coefficient,
                        self.exponents + other.exponents)

    def __pow__(self, p: float) -> "Monomial":
        return Monomial(self.coefficient ** p, self.exponents * p)

    def inverse(self) -> "Monomial":
        return self ** -1.0


class Posynomial:
    """Sum of monomials, stored as a coefficient vector and exponent matrix."""

    def __init__(self, coefficients: np.ndarray, exponents: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=float)
        exponents = np.asarray(exponents, dtype=float)
        if coefficients.ndim != 1 or exponents.ndim != 2 \
                or exponents.shape[0] != coefficients.size:
            raise ValueError("need coefficients (K,) and exponents (K, V)")
        if coefficients.size == 0:
            raise ValueError("posynomial must have at least one term")
        if np.any(coefficients <= 0):
            raise ValueError("posynomial coefficients must be strictly positive")
        self.coefficients = coefficients
        self.exponents = exponents

    @property
    def n_terms(self) -> int:
        return self.coefficients.size

    @property
    def n_vars(self) -> int:
        return self.exponents.shape[1]

    def term_values(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.coefficients * np.prod(x[None, :] ** self.exponents, axis=1)

    def evaluate(self, x: np.ndarray) -> float:
        return float(self.term_values(x).sum())

    def log_term_values(self, log_x: np.ndarray) -> np.ndarray:
        return np.log(self.coefficients) + self.exponents @ log_x

    def __add__(self, other: "Posynomial") -> "Posynomial":
        return Posynomial(np.concatenate([self.coefficients, other.coefficients]),
                          np.vstack([self.exponents, other.exponents]))

    def __mul__(self, m: Monomial) -> "Posynomial":
        return Posynomial(self.coefficients * m.coefficient,
                          self.exponents + m.exponents[None, :])

    def scaled(self, c: float) -> "Posynomial":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return Posynomial(self.coefficients * c, self.exponents.copy())


@dataclass(frozen=True)
class Signomial:
    """Difference of posynomials: value = positive - negative."""

    positive: Posynomial
    negative: Posynomial | None = None

    def evaluate(self, x: np.ndarray) -> float:
        v = self.positive.evaluate(x)
        if self.negative is not None:
            v -= self.negative.evaluate(x)
        return v


def condense(f: Posynomial, anchor: np.ndarray) -> Monomial:
    """Best monomial lower bound of `f` at `anchor` (AM-GM inequality).

    With weights gamma_k = g_k(anchor)/f(anchor), the weighted geometric
    mean prod (g_k/gamma_k)^gamma_k is <= f everywhere and equals f at the
    anchor.  Computed in log domain to avoid over/underflow.
    """
    anchor = np.asarray(anchor, dtype=float)
    if np.any(anchor <= 0):
        raise ValueError("anchor must be strictly positive")
    log_vals = f.log_term_values(np.log(anchor))
    shift = log_vals.max()
    w = np.exp(log_vals - shift)
    gamma = w / w.sum()
    live = gamma > 0  # underflowed terms contribute nothing in the limit
    g = gamma[live]
    log_coeff = float(g @ (np.log(f.coefficients[live]) - np.log(g)))
    exponents = g @ f.exponents[live]
    return Monomial(np.exp(log_coeff), exponents)


def single_condensation_fraction(numerator: Posynomial,
                                 denominator: Posynomial,
                                 anchor: np.ndarray) -> Posynomial:
    """Conservative posynomial form of numerator/denominator <= 1.

    The denominator is replaced by its condensed monomial at the anchor, so
    the returned posynomial <= 1 implies the original fraction <= 1, with
    identical slack at the anchor.
    """
    return numerator * condense(denominator, anchor).inverse()


@dataclass
class GPStandardForm:
    """min objective (monomial) s.t. each constraint posynomial <= 1."""

    objective: Monomial
    constraints: list[Posynomial]
    n_vars: int

    def __post_init__(self):
        if self.objective.n_vars != self.n_vars:
            raise ValueError("objective width does not match n_vars")
        for i, c in enumerate(self.constraints):
            if c.n_vars != self.n_vars:
                raise ValueError(f"constraint {i} width does not match n_vars")


@dataclass
class SolveReport:
    x: np.ndarray
    objective_value: float
    constraint_values: np.ndarray
    iterations: int
    converged: bool
    kkt_residual: float
    duality_gap: float
    message: str = ""


class GPSolverError(RuntimeError):
    """Raised when the barrier solver cannot produce a usable point."""


def _lse_value_grad_hess(log_c, A, y, want_hess=True):
    z = log_c + A @ y
    m = z.max()
    e = np.exp(z - m)
    s = e.sum()
    val = m + np.log(s)
    p = e / s
    grad = A.T @ p
    if not want_hess:
        return val, grad, None
    Ap = A * p[:, None]
    hess = A.T @ Ap - np.outer(grad, grad)
    return val, grad, hess


def _newton_center(cons_data, t, b0, y, max_steps, tol):
    """Damped Newton for t*(b0.y) - sum log(-g_i(y)); y must start interior."""
    n = y.size

    def barrier_terms(yv, want_hess):
        vals, grads, hesses = [], [], []
        for log_c, A in cons_data:
            v, g, h = _lse_value_grad_hess(log_c, A, yv, want_hess)
            if v >= 0:
                return None, None, None
            vals.append(v)
            grads.append(g)
            hesses.append(h)
        return vals, grads, hesses

    def objective(yv):
        vals, _, _ = barrier_terms(yv, want_hess=False)
        if vals is None:
            return np.inf
        return t * (b0 @ yv) - sum(np.log(-v) for v in vals)

    steps = 0
    for _ in range(max_steps):
        vals, grads, hesses = barrier_terms(y, want_hess=True)
        if vals is None:
            raise GPSolverError("iterate left the feasible region")
        grad = t * b0.copy()
        hess = np.zeros((n, n))
        for v, g, h in zip(vals, grads, hesses):
            grad += g / (-v)
            hess += h / (-v) + np.outer(g, g) / (v * v)
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
            return y, steps
        f0 = objective(y)
        step = 1.0
        while step > 1e-14:
            y_new = y + step * d
            f_new = objective(y_new)
            if f_new <= f0 - 0.25 * step * decrement:
                break
            step *= 0.5
        else:
            return y, steps  # stalled line search: accept current center
        y = y_new
    return y, steps


def _phase_one(cons_data, y0, margin, max_steps):
    """Find y with all g_i(y) <= -margin starting from (possibly) infeasible y0.

    Damped Newton on the slack-minimization barrier, checking the exit
    condition after every step: anchors are usually infeasible only at
    rounding level, and leaving as soon as the margin is met keeps the
    result close to the start (the barrier itself is unbounded below in
    slack directions, so running any centering to optimality would drift
    far away).
    """
    n = y0.size

    def worst_of(yv):
        return max(_lse_value_grad_hess(lc, A, yv, False)[0]
                   for lc, A in cons_data)

    if worst_of(y0) <= -margin:
        return y0
    aug = [(log_c, np.hstack([A, -np.ones((A.shape[0], 1))]))
           for log_c, A in cons_data]
    z = np.concatenate([y0, [worst_of(y0) + 1.0]])
    b0 = np.zeros(n + 1)
    b0[-1] = 1.0
    t = 1.0
    for _ in range(max_steps):
        z, _ = _newton_center(aug, t, b0, z, max_steps=1, tol=1e-12)
        worst = worst_of(z[:n])
        if worst <= -margin:
            return z[:n]
        if z[-1] - worst > 2.0:  # slack variable lagging; re-anchor it
            z[-1] = worst + 1.0
        t *= 1.5
    raise GPSolverError("no strictly feasible point found (phase I)")


def solve_gp(problem: GPStandardForm, x0: np.ndarray,
             gap_tol: float = 1e-9, kkt_tol: float = 1e-6,
             feas_tol: float = 1e-8, max_newton: int = 200) -> SolveReport:
    """Solve a standard-form GP from a positive starting point.

    The start need not be strictly feasible (a phase-I search runs first
    when it is not), but the problem must be feasible.  The engine is a
    primal-dual interior-point iteration on the log-domain convex program,
    which copes with the near-degenerate corners the waveform designs
    produce (many peak constraints active at once).  Raises GPSolverError
    when no interior point can be found.
    """
    x0 = np.asarray(x0, dtype=float)
    if np.any(x0 <= 0):
        raise GPSolverError("starting point must be strictly positive")
    cons_data = [(np.log(c.coefficients), c.exponents)
                 for c in problem.constraints]
    b0 = problem.objective.exponents
    n = b0.size
    m = len(cons_data)

    y = _phase_one(cons_data, np.log(x0), margin=1e-9, max_steps=max_newton)

    def eval_all(yv, want_hess):
        vals = np.empty(m)
        grads = np.empty((m, n))
        hesses = [] if want_hess else None
        for i, (log_c, A) in enumerate(cons_data):
            v, g, h = _lse_value_grad_hess(log_c, A, yv, want_hess)
            vals[i] = v
            grads[i] = g
            if want_hess:
                hesses.append(h)
        return vals, grads, hesses

    g_vals, J, _ = eval_all(y, want_hess=False)
    lam = 1.0 / np.maximum(-g_vals, 1e-12)
    mu = 10.0
    steps = 0
    for _ in range(max_newton):
        g_vals, J, hesses = eval_all(y, want_hess=True)
        gap = float(-lam @ g_vals)
        r_dual = b0 + J.T @ lam
        if gap <= gap_tol and np.abs(r_dual).max() <= min(kkt_tol, 1e-9):
            break
        t = mu * m / gap
        r_cent = -lam * g_vals - 1.0 / t
        h_pd = np.zeros((n, n))
        for i in range(m):
            h_pd += lam[i] * hesses[i]
        h_pd += (J * (lam / (-g_vals))[:, None]).T @ J
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
        for _ in range(50):
            y_new = y + step * dy
            lam_new = lam + step * dlam
            vals_new, grads_new, _ = eval_all(y_new, want_hess=False)
            if np.all(vals_new < 0):
                r_new = np.concatenate([b0 + grads_new.T @ lam_new,
                                        -lam_new * vals_new - 1.0 / t])
                if np.linalg.norm(r_new) <= (1.0 - 0.01 * step) * res0:
                    accepted = True
                    break
            step *= 0.5
        steps += 1
        if not accepted:
            break  # stalled; current iterate is the best available
        y, lam = y_new, lam_new

    g_vals, J, _ = eval_all(y, want_hess=False)
    gap = float(-lam @ g_vals)
    kkt = float(np.abs(b0 + J.T @ lam).max())
    x = np.exp(y)
    cons_vals = np.exp(g_vals)  # log-domain values, overflow-safe
    feasible = bool(np.all(cons_vals <= 1.0 + feas_tol))
    converged = feasible and gap <= gap_tol * 10 and kkt <= kkt_tol
    msg = "" if converged else "tolerances not met"
    log_obj = problem.objective.log_evaluate(y)
    return SolveReport(x=x,
                       objective_value=float(np.exp(log_obj)) if log_obj < 700.0
                       else float("inf"),
                       constraint_values=cons_vals, iterations=steps,
                       converged=converged, kkt_residual=kkt,
                       duality_gap=gap, message=msg)


def positivity_floor(power_budget: float) -> float:
    """Amplitude floor standing in for exact zeros in the log domain."""
    return 1e-12 * np.sqrt(2.0 * power_budget)


def maximize_monomial_under_power(objective: Monomial, power_budget: float,
                                  floor: float | None = None) -> np.ndarray:
    """argmax of a monomial under (1/2)*sum s_j^2 <= power_budget.

    Closed form: active variables get s_j^2 = 2P a_j / sum(a); variables
    with zero exponent sit at the positivity floor.  Exponents must be
    nonnegative and not all zero.
    """
    a = objective.exponents
    if np.any(a < 0):
        raise ValueError("exponents must be nonnegative")
    total = a.sum()
    if total <= 0:
        raise ValueError("at least one exponent must be positive")
    if floor is None:
        floor = positivity_floor(power_budget)
    s = np.sqrt(2.0 * power_budget * a / total)
    return np.maximum(s, floor)


def floor_constraints(n_vars: int, floor: float) -> list[Posynomial]:
    """Constraints floor/s_j <= 1 pinning each variable above the floor."""
    cons = []
    for j in range(n_vars):
        e = np.zeros((1, n_vars))
        e[0, j] = -1.0
        cons.append(Posynomial(np.array([floor]), e))
    return cons


def power_constraint(var_indices: np.ndarray, n_vars: int,
                     power_budget: float) -> Posynomial:
    """(1/2P) * sum_j s_j^2 <= 1 over the given variable indices."""
    k = len(var_indices)
    coeffs = np.full(k, 1.0 / (2.0 * power_budget))
    expos = np.zeros((k, n_vars))
    for row, j in enumerate(var_indices):
        expos[row, j] = 2.0
    return Posynomial(coeffs, expos)


def dump_gp(problem: GPStandardForm) -> str:
    """Plain-text dump: one monomial per line as coefficient + index:exponent pairs."""
    def fmt(c, e):
        pairs = " ".join(f"{j}:{e[j]:.17g}" for j in np.nonzero(e)[0])
        return f"{c:.17g} {pairs}".rstrip()

    lines = [f"gp n_vars={problem.n_vars} n_constraints={len(problem.constraints)}",
             "minimize",
             fmt(problem.objective.coefficient, problem.objective.exponents)]
    for i, cons in enumerate(problem.constraints):
        lines.append(f"constraint {i} <= 1")
        for c, e in zip(cons.coefficients, cons.exponents):
            lines.append(fmt(c, e))
    return "\n".join(lines) + "\n"
