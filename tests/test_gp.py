import numpy as np
import pytest

from multisine_wpt import gp
from multisine_wpt.gp import (GPSolverError, GPStandardForm, Monomial,
                              Posynomial, _evaluate, _log_sums, _phase_one,
                              _stack, condense, floor_constraints,
                              positivity_floor, power_constraint,
                              single_condensation_fraction, solve_gp)


def _random_posynomial(rng, n_terms, n_vars, max_exp=3):
    coeffs = rng.uniform(0.1, 5.0, n_terms)
    expos = rng.integers(0, max_exp + 1, (n_terms, n_vars)).astype(float)
    return Posynomial(coeffs, expos)


def test_monomial_validation_and_arithmetic():
    with pytest.raises(ValueError):
        Monomial(-1.0, np.array([1.0]))
    a = Monomial(2.0, np.array([1.0, -0.5]))
    b = Monomial(3.0, np.array([0.0, 2.0]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.2, 3.0, 2)
        assert np.isclose((a * b).evaluate(x), a.evaluate(x) * b.evaluate(x),
                          rtol=1e-14)
        assert np.isclose((a ** 2.5).evaluate(x), a.evaluate(x) ** 2.5,
                          rtol=1e-13)
        assert np.isclose(a.inverse().evaluate(x), 1.0 / a.evaluate(x),
                          rtol=1e-14)


def test_condense_reciprocal_pair():
    # f = x + 1/x condensed at x = 1: weights 1/2 each, constant monomial 2
    f = Posynomial(np.array([1.0, 1.0]), np.array([[1.0], [-1.0]]))
    mono = condense(f, np.array([1.0]))
    assert np.allclose(mono.exponents, 0.0)
    assert np.isclose(mono.coefficient, 2.0, rtol=1e-15)
    rng = np.random.default_rng(1)
    for x in rng.uniform(0.05, 20.0, 200):
        assert mono.evaluate(np.array([x])) <= f.evaluate(np.array([x])) * (1 + 1e-12)


def test_condense_single_term_is_identity():
    f = Posynomial(np.array([3.0]), np.array([[2.0, 1.0]]))
    mono = condense(f, np.array([0.7, 1.3]))
    assert np.isclose(mono.coefficient, 3.0, rtol=1e-14)
    assert np.allclose(mono.exponents, [2.0, 1.0])


def test_condense_tight_at_anchor_and_global_lower_bound():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = _random_posynomial(rng, 6, 3)
        anchor = rng.uniform(0.3, 2.0, 3)
        mono = condense(f, anchor)
        assert np.isclose(mono.evaluate(anchor), f.evaluate(anchor), rtol=1e-12)
        for _ in range(100):
            x = rng.uniform(0.05, 5.0, 3)
            assert mono.evaluate(x) <= f.evaluate(x) * (1 + 1e-12)


def test_condense_rejects_nonpositive_anchor():
    f = Posynomial(np.array([1.0]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        condense(f, np.array([0.0]))


def test_solve_gp_product_split():
    # maximize s0^2 s1^2 under (s0^2+s1^2)/2 <= P: equal split, value P^2
    p = 2.5
    objective = Monomial(1.0, np.array([-2.0, -2.0]))  # minimize inverse
    cons = [power_constraint(np.arange(2), 2, p)]
    report = solve_gp(GPStandardForm(objective, cons, 2),
                      np.array([0.3, 1.9]))
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
        objective = Monomial(1.0, -b)
        cons = [power_constraint(np.arange(4), 4, p)]
        report = solve_gp(GPStandardForm(objective, cons, 4),
                          np.full(4, 0.1))
        expected = np.sqrt(2 * p * b / b.sum())
        assert np.allclose(report.x, expected, rtol=1e-7)


def test_solve_gp_with_floor_constraints_and_infeasible_start():
    p = 1.0
    floor = positivity_floor(p)
    objective = Monomial(1.0, np.array([-2.0, 0.0]))
    cons = [power_constraint(np.arange(2), 2, p)] + floor_constraints(2, floor)
    # start violates the power budget; phase I must recover
    report = solve_gp(GPStandardForm(objective, cons, 2),
                      np.array([3.0, 3.0]))
    assert report.converged
    assert np.isclose(report.x[0], np.sqrt(2 * p), rtol=1e-6)
    with pytest.raises(GPSolverError):
        solve_gp(GPStandardForm(objective, cons, 2), np.array([-1.0, 1.0]))


def test_single_condensation_fraction_is_conservative():
    rng = np.random.default_rng(4)
    for _ in range(5):
        numer = _random_posynomial(rng, 4, 2, max_exp=2)
        denom = _random_posynomial(rng, 3, 2, max_exp=2)
        anchor = rng.uniform(0.4, 1.6, 2)
        con = single_condensation_fraction(numer, denom, anchor)
        # identical slack at the anchor
        assert np.isclose(con.evaluate(anchor),
                          numer.evaluate(anchor) / denom.evaluate(anchor),
                          rtol=1e-12)
        for _ in range(200):
            x = rng.uniform(0.1, 3.0, 2)
            if con.evaluate(x) <= 1.0:  # conservative form satisfied
                assert numer.evaluate(x) <= denom.evaluate(x) * (1 + 1e-12)


def test_single_condensation_fraction_monomial_denominator_identity():
    numer = Posynomial(np.array([2.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    denom = Posynomial(np.array([4.0]), np.array([[1.0, 1.0]]))
    anchor = np.array([0.9, 1.4])
    con = single_condensation_fraction(numer, denom, anchor)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(0.2, 2.0, 2)
        assert np.isclose(con.evaluate(x),
                          numer.evaluate(x) / denom.evaluate(x), rtol=1e-12)


def test_stacked_evaluator_matches_per_constraint_formulas():
    rng = np.random.default_rng(6)
    cons = [_random_posynomial(rng, k, 3) for k in (1, 4, 1, 7, 2, 1)]
    # the second term sits about 940 below the first in log value: exp of
    # their difference underflows to 0
    cons.append(Posynomial(np.array([1e60, 1.0, 0.5]),
                           np.array([[0.0, 0.0, 0.0], [-400.0, 0.0, 0.0],
                                     [0.0, 1.0, 0.0]])))
    # every term about 830 below the first term above: each constraint
    # must be shifted by its own largest term
    cons.append(Posynomial(np.array([1e-300, 2e-300]),
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
        for i, c in enumerate(cons):
            z = np.log(c.coefficients) + c.exponents @ y
            p = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
            assert np.isclose(g[i], z.max() + np.log(np.exp(z - z.max()).sum()),
                              rtol=1e-12)
            grad = c.exponents.T @ p
            assert np.allclose(J[i], grad, rtol=1e-12, atol=0.0)
            want_h += w[i] * (c.exponents.T @ (p[:, None] * c.exponents)
                              - np.outer(grad, grad))
        scale = np.abs(want_h).max()
        assert np.allclose(hess(w), want_h, rtol=1e-12, atol=1e-12 * scale)


def test_solve_gp_all_single_term_constraints():
    # maximize s0 * s1 under s0 <= 2, s1 <= 3, s1/s0 <= 1: s = (2, 2)
    objective = Monomial(1.0, np.array([-1.0, -1.0]))
    cons = [Posynomial(np.array([0.5]), np.array([[1.0, 0.0]])),
            Posynomial(np.array([1.0 / 3.0]), np.array([[0.0, 1.0]])),
            Posynomial(np.array([1.0]), np.array([[-1.0, 1.0]]))]
    report = solve_gp(GPStandardForm(objective, cons, 2), np.array([0.5, 0.2]))
    assert report.converged
    assert np.allclose(report.x, [2.0, 2.0], rtol=1e-7)


def _margin_pair(p):
    """e^p x <= 1 and e^p / x <= 1: the least worst log value is p, at x = 1."""
    return _stack([Posynomial(np.array([np.exp(p)]), np.array([[1.0]])),
                   Posynomial(np.array([np.exp(p)]), np.array([[-1.0]]))])


def _counting_centering(monkeypatch):
    """Wrap gp._newton_center; the returned list sums its Newton steps."""
    steps = [0]
    center = gp._newton_center

    def counted(*args, **kwargs):
        out = center(*args, **kwargs)
        steps[0] += out[1]
        return out

    monkeypatch.setattr(gp, "_newton_center", counted)
    return steps


@pytest.mark.parametrize("p", [-3e-9, -1.5e-9])
def test_phase_one_meets_the_margin_when_it_can(p):
    stack = _margin_pair(p)
    y = _phase_one(stack, np.array([0.5]), margin=1e-9, max_steps=200)
    assert _log_sums(stack, y)[0].max() <= -1e-9


@pytest.mark.parametrize("p", [-5e-10, 0.0, 1e-6])
def test_phase_one_certifies_no_point_inside_the_margin(p, monkeypatch):
    # the least worst value p is above -margin: no point meets the margin,
    # and the duality bound must say so long before the step cap
    steps = _counting_centering(monkeypatch)
    with pytest.raises(GPSolverError, match="^certified: no strictly "
                                            "feasible point"):
        _phase_one(_margin_pair(p), np.array([0.5]), margin=1e-9,
                   max_steps=200)
    assert steps[0] <= 100


def test_phase_one_reports_its_step_cap_apart_from_a_certificate():
    # feasible (p = -1 < -margin) but far from the start: three steps
    # cannot get there, and the error names the cap, not a certificate
    with pytest.raises(GPSolverError, match="^phase I reached its step cap"):
        _phase_one(_margin_pair(-1.0), np.array([400.0]), margin=1e-9,
                   max_steps=3)
    y = _phase_one(_margin_pair(-1.0), np.array([400.0]), margin=1e-9,
                   max_steps=200)
    assert _log_sums(_margin_pair(-1.0), y)[0].max() <= -1e-9


def test_solve_report_names_why_the_primal_dual_loop_stopped():
    p = 2.5
    problem = GPStandardForm(Monomial(1.0, np.array([-2.0, -2.0])),
                             [power_constraint(np.arange(2), 2, p)], 2)
    x0 = np.array([0.3, 1.9])  # strictly feasible: no phase I
    assert solve_gp(problem, x0).message == ""
    capped = solve_gp(problem, x0, max_newton=2)
    assert not capped.converged and capped.iterations == 2
    assert capped.message == "iteration cap reached"
    # the loop's own test passes, but the point misses feas_tol
    strict = solve_gp(problem, x0, feas_tol=-0.5)
    assert not strict.converged and strict.message == "tolerances not met"
    # zero tolerances cannot be met; this problem's residual stops falling
    # before the cap, and the 50-halving line search gives up
    rng = np.random.default_rng(0)
    b = rng.uniform(0.5, 4.0, 3)
    cons = [power_constraint(np.arange(3), 3, 1.0)] \
        + floor_constraints(3, positivity_floor(1.0))
    cons.append(Posynomial(rng.uniform(0.1, 2.0, 4),
                           rng.integers(0, 3, (4, 3)).astype(float)))
    stalled = solve_gp(GPStandardForm(Monomial(1.0, -b), cons, 3),
                       np.full(3, 0.1), gap_tol=0.0, kkt_tol=0.0)
    assert stalled.iterations < 200
    assert stalled.message == "line search stalled"
