import numpy as np
import pytest

import gp_oracle
from gp_oracle import (_evaluate, _log_sums, condense, solve_gp,
                       stack_constraints)
from multisine_wpt import interior
from multisine_wpt.interior import InfeasibleStartError
from multisine_wpt.optimizer import positivity_floor


def _random_posynomial(rng, n_terms, n_vars, max_exp=3):
    """(coefficients, exponents) of a random posynomial."""
    coeffs = rng.uniform(0.1, 5.0, n_terms)
    expos = rng.integers(0, max_exp + 1, (n_terms, n_vars)).astype(float)
    return coeffs, expos


def _value(posy, x):
    coeffs, expos = posy
    return float(np.sum(coeffs * np.prod(x[None, :] ** expos, axis=1)))


def _monomial(log_coeff, expos, x):
    return float(np.exp(log_coeff) * np.prod(x ** expos))


def _stack(cons):
    """The stacked set of a list of (coefficients, exponents) posynomials."""
    return stack_constraints(np.log(np.concatenate([c for c, _ in cons])),
                             np.vstack([e for _, e in cons]),
                             [c.size for c, _ in cons])


def _power(n_vars, p):
    """(1/2p) * sum_j s_j^2 <= 1."""
    return np.full(n_vars, 1.0 / (2.0 * p)), 2.0 * np.eye(n_vars)


def _floors(n_vars, floor):
    """floor/s_j <= 1 for each j."""
    return [(np.array([floor]), -np.eye(n_vars)[j:j + 1])
            for j in range(n_vars)]


def test_condense_reciprocal_pair():
    # c * (x + 1/x) condensed at x = 1: weights 1/2 each, constant 2c
    c = np.array([1.0, 3.0, 0.25])
    log_c = np.log(np.repeat(c[:, None], 2, axis=1))
    expos = np.array([[1.0], [-1.0]])
    log_coeff, mono = condense(log_c, expos, np.zeros(1))
    assert np.allclose(mono, 0.0)
    assert np.allclose(np.exp(log_coeff), 2.0 * c, rtol=1e-15)
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.05, 20.0, 200):
        for r in range(c.size):
            assert _monomial(log_coeff[r], mono[r], np.array([x])) \
                <= c[r] * (x + 1.0 / x) * (1 + 1e-12)


def test_condense_single_term_is_identity():
    # each row holds one of the shared terms; -inf marks the absent ones
    expos = np.array([[2.0, 1.0], [0.0, -1.0], [1.5, 3.0]])
    log_c = np.full((3, 3), -np.inf)
    log_c[np.arange(3), [0, 2, 1]] = np.log([3.0, 0.5, 7.0])
    log_coeff, mono = condense(log_c, expos, np.log([0.7, 1.3]))
    assert np.allclose(np.exp(log_coeff), [3.0, 0.5, 7.0], rtol=1e-14)
    assert np.allclose(mono, expos[[0, 2, 1]])


def test_condense_tight_at_anchor_and_global_lower_bound():
    rng = np.random.default_rng(2)
    for _ in range(10):
        # four posynomials over six shared terms, each missing some
        coeffs, expos = _random_posynomial(rng, 6, 3)
        coeffs = coeffs * rng.uniform(0.5, 2.0, (4, 6))
        coeffs[rng.uniform(size=(4, 6)) < 0.3] = 0.0
        coeffs[:, 0] += 1.0  # every row keeps a term
        with np.errstate(divide="ignore"):
            log_c = np.log(coeffs)
        anchor = rng.uniform(0.3, 2.0, 3)
        log_coeff, mono = condense(log_c, expos, np.log(anchor))
        rows = [(c, expos) for c in coeffs]
        for r, f in enumerate(rows):
            assert np.isclose(_monomial(log_coeff[r], mono[r], anchor),
                              _value(f, anchor), rtol=1e-12)
        for _ in range(100):
            x = rng.uniform(0.05, 5.0, 3)
            for r, f in enumerate(rows):
                assert _monomial(log_coeff[r], mono[r], x) \
                    <= _value(f, x) * (1 + 1e-12)


def test_solve_gp_product_split():
    # maximize s0^2 s1^2 under (s0^2+s1^2)/2 <= P: equal split, value P^2
    p = 2.5
    objective = np.array([-2.0, -2.0])  # minimize the inverse
    report = solve_gp(objective, _stack([_power(2, p)]), np.array([0.3, 1.9]))
    assert report.converged
    assert np.allclose(report.x, np.sqrt(p), rtol=1e-7)
    assert np.isclose(np.prod(report.x ** 2), p * p, rtol=1e-6)
    assert np.all(report.constraint_values <= 1 + 1e-8)
    assert report.kkt_residual <= 1e-6


def test_solve_gp_matches_waterlevel_closed_form():
    rng = np.random.default_rng(3)
    p = 0.8
    for _ in range(5):
        b = rng.uniform(0.5, 4.0, 4)
        report = solve_gp(-b, _stack([_power(4, p)]), np.full(4, 0.1))
        expected = np.sqrt(2 * p * b / b.sum())
        assert np.allclose(report.x, expected, rtol=1e-7)


def test_solve_gp_with_floor_constraints_and_infeasible_start():
    p = 1.0
    floor = positivity_floor(p)
    objective = np.array([-2.0, 0.0])
    stack = _stack([_power(2, p)] + _floors(2, floor))
    report = solve_gp(objective, stack, np.array([0.5, 0.5]))
    assert report.converged
    assert np.isclose(report.x[0], np.sqrt(2 * p), rtol=1e-6)
    # a start that is not strictly inside is refused, and the error names
    # the worst row
    with pytest.raises(InfeasibleStartError):
        solve_gp(objective, stack, np.array([-1.0, 1.0]))
    with pytest.raises(InfeasibleStartError, match="constraint 0 has g = 2.2"):
        solve_gp(objective, stack, np.array([3.0, 3.0]))
    # an amplitude clipped to the floor sits exactly on its row
    on_floor = np.array([1.0, floor])
    assert _log_sums(stack, np.log(on_floor))[0][2] == 0.0
    with pytest.raises(InfeasibleStartError, match="constraint 2 has g = 0"):
        solve_gp(objective, stack, on_floor)
    # full power, whose row reads a rounding error above 0
    full = np.sqrt(2 * p) * np.array([0.6, 0.8])
    assert 0.0 < _log_sums(stack, np.log(full))[0][0] <= 1e-15
    with pytest.raises(InfeasibleStartError, match="constraint 0 has g = "):
        solve_gp(objective, stack, full)


def _condensed_fraction(numer, denom, anchor):
    """numer/denom <= 1 with the denominator condensed once at the anchor:
    the posynomial numer / condense(denom)."""
    log_d, mono = condense(np.log(denom[0])[None, :], denom[1],
                           np.log(anchor))
    return numer[0] * np.exp(-log_d[0]), numer[1] - mono[0]


def test_single_condensation_fraction_is_conservative():
    rng = np.random.default_rng(4)
    for _ in range(5):
        numer = _random_posynomial(rng, 4, 2, max_exp=2)
        denom = _random_posynomial(rng, 3, 2, max_exp=2)
        anchor = rng.uniform(0.4, 1.6, 2)
        con = _condensed_fraction(numer, denom, anchor)
        # identical slack at the anchor
        assert np.isclose(_value(con, anchor),
                          _value(numer, anchor) / _value(denom, anchor),
                          rtol=1e-12)
        for _ in range(200):
            x = rng.uniform(0.1, 3.0, 2)
            if _value(con, x) <= 1.0:  # conservative form satisfied
                assert _value(numer, x) <= _value(denom, x) * (1 + 1e-12)


def test_single_condensation_fraction_monomial_denominator_identity():
    numer = (np.array([2.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    denom = (np.array([4.0]), np.array([[1.0, 1.0]]))
    anchor = np.array([0.9, 1.4])
    con = _condensed_fraction(numer, denom, anchor)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(0.2, 2.0, 2)
        assert np.isclose(_value(con, x),
                          _value(numer, x) / _value(denom, x), rtol=1e-12)


def test_stacked_evaluator_matches_per_constraint_formulas():
    rng = np.random.default_rng(6)
    cons = [_random_posynomial(rng, k, 3) for k in (1, 4, 1, 7, 2, 1)]
    # the second term sits about 940 below the first in log value: exp of
    # their difference underflows to 0
    cons.append((np.array([1e60, 1.0, 0.5]),
                 np.array([[0.0, 0.0, 0.0], [-400.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0]])))
    # every term about 830 below the first term above: each constraint
    # must be shifted by its own largest term
    cons.append((np.array([1e-300, 2e-300]),
                 np.array([[-1.0, 0.0, 0.0], [-1.0, 1.0, 0.0]])))
    stack = _stack(cons)
    for _ in range(5):
        y = rng.uniform(-1.0, 1.0, 3)
        y[0] = 2.0
        w = rng.uniform(0.1, 3.0, len(cons))
        g, J, hess = _evaluate(stack, y)
        # the line searches' values are the evaluator's, bit for bit
        assert np.array_equal(_log_sums(stack, y)[0], g)
        want_h = np.zeros((3, 3))
        for i, (coeffs, expos) in enumerate(cons):
            z = np.log(coeffs) + expos @ y
            p = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
            assert np.isclose(g[i], z.max() + np.log(np.exp(z - z.max()).sum()),
                              rtol=1e-12)
            grad = expos.T @ p
            assert np.allclose(J[i], grad, rtol=1e-12, atol=0.0)
            want_h += w[i] * (expos.T @ (p[:, None] * expos)
                              - np.outer(grad, grad))
        scale = np.abs(want_h).max()
        assert np.allclose(hess(w), want_h, rtol=1e-12, atol=1e-12 * scale)


def test_line_search_builds_derivatives_only_at_feasible_points(monkeypatch):
    # a trial outside the constraints is rejected on its values alone
    seen = []

    def feasible_only(stack, y):
        g = _log_sums(stack, y)[0]
        assert np.all(g < 0), g.max()
        seen.append(g.max())
        return _evaluate(stack, y)

    monkeypatch.setattr(gp_oracle, "_evaluate", feasible_only)
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = rng.uniform(0.5, 4.0, 4)
        report = solve_gp(-b, _stack([_power(4, 0.8)]), np.full(4, 0.1))
        assert report.converged
    assert seen


def test_warm_start_within_rounding_of_a_constraint_converges():
    # an SCA iteration starts from the previous solution, which the
    # re-condensed constraints leave about 1e-12 inside: strictly feasible,
    # so the primal-dual loop starts there
    rng = np.random.default_rng(3)
    p = 0.8
    stack = _stack([_power(4, p)] + _floors(4, positivity_floor(p)))
    for _ in range(5):
        b = rng.uniform(0.5, 4.0, 4)
        previous = solve_gp(-b, stack, np.full(4, 0.1)).x
        b = b * rng.uniform(0.9, 1.1, 4)
        deep = solve_gp(-b, stack, np.full(4, 0.1))
        x0 = previous * np.sqrt(2 * p / np.sum(previous ** 2)) * (1 - 2e-13)
        g = _log_sums(stack, np.log(x0))[0]
        assert -1e-12 <= g.max() < 0
        report = solve_gp(-b, stack, x0)
        assert report.converged
        assert np.allclose(report.x, deep.x, rtol=1e-7, atol=0.0)


def test_solve_gp_all_single_term_constraints():
    # maximize s0 * s1 under s0 <= 2, s1 <= 3, s1/s0 <= 1: s = (2, 2)
    cons = [(np.array([0.5]), np.array([[1.0, 0.0]])),
            (np.array([1.0 / 3.0]), np.array([[0.0, 1.0]])),
            (np.array([1.0]), np.array([[-1.0, 1.0]]))]
    report = solve_gp(np.array([-1.0, -1.0]), _stack(cons),
                      np.array([0.5, 0.2]))
    assert report.converged
    assert np.allclose(report.x, [2.0, 2.0], rtol=1e-7)


def test_solve_report_names_why_the_primal_dual_loop_stopped(monkeypatch):
    p = 2.5
    objective, stack = np.array([-2.0, -2.0]), _stack([_power(2, p)])
    x0 = np.array([0.3, 1.9])  # strictly feasible
    assert solve_gp(objective, stack, x0).message == ""
    with monkeypatch.context() as patch:
        patch.setattr(interior, "_MAX_NEWTON", 2)
        capped = solve_gp(objective, stack, x0)
    assert not capped.converged and capped.iterations == 2
    assert capped.message == "iteration cap reached"
    # at a cap of 13 steps the last iterate's gap, 3.5e-9, is within ten
    # times the gap tolerance but fails the loop's own test: still capped
    with monkeypatch.context() as patch:
        patch.setattr(interior, "_MAX_NEWTON", 13)
        capped = solve_gp(objective, stack, x0)
    assert not capped.converged and capped.iterations == 13
    assert capped.message == "iteration cap reached"
    assert interior._GAP_TOL < capped.duality_gap <= 10 * interior._GAP_TOL
    # the loop's own test passes, but the point misses the feasibility
    # tolerance
    with monkeypatch.context() as patch:
        patch.setattr(interior, "_FEAS_TOL", -0.5)
        strict = solve_gp(objective, stack, x0)
    assert not strict.converged and strict.message == "tolerances not met"
    # zero tolerances cannot be met; this problem's residual stops falling
    # before the cap, and the 50-halving line search gives up
    rng = np.random.default_rng(0)
    b = rng.uniform(0.5, 4.0, 3)
    cons = [_power(3, 1.0)] + _floors(3, positivity_floor(1.0))
    cons.append((rng.uniform(0.1, 2.0, 4),
                 rng.integers(0, 3, (4, 3)).astype(float)))
    monkeypatch.setattr(interior, "_GAP_TOL", 0.0)
    monkeypatch.setattr(interior, "_KKT_TOL", 0.0)
    stalled = solve_gp(-b, _stack(cons), np.full(3, 0.1))
    assert stalled.iterations < 200
    assert stalled.message == "line search stalled"
