import numpy as np
import pytest

from multisine_wpt import scaling
from multisine_wpt.channel import (FrequencyGrid, flat_channel,
                                   iid_frequency_channel)
from multisine_wpt.optimizer import baseline_waveform, toy_n2
from multisine_wpt.rectenna import (DCKernel, RectennaParams, Waveform,
                                    received_tone_coefficients, zdc_analytic)
from multisine_wpt.scaling import (EULER_GAMMA, ScalingScenario,
                                   asymptotic_form, closed_form,
                                   hardening_curve, harmonic_h,
                                   harmonic_s, monte_carlo, monte_carlo_many)
from harmonic_oracle import harmonic_h_alternating, harmonic_s_alternating
import mc_oracle

PARAMS = RectennaParams()


def test_harmonic_values():
    assert harmonic_h(1) == 1.0
    assert harmonic_s(1) == 1.0
    assert harmonic_h(4) == pytest.approx(25 / 12, rel=1e-15)
    assert harmonic_s(2) == pytest.approx(7 / 4, rel=1e-15)


def test_harmonic_forms_agree_up_to_15():
    for n in range(1, 16):
        assert abs(harmonic_h(n) - harmonic_h_alternating(n)) \
            <= 1e-9 * harmonic_h(n)
        assert abs(harmonic_s(n) - harmonic_s_alternating(n)) \
            <= 1e-9 * harmonic_s(n)


def test_harmonic_h_log_asymptotics():
    for n in (10, 20, 50, 100):
        assert abs(harmonic_h(n) - (np.log(n) + EULER_GAMMA)) \
            <= 1.5 / (2 * n)


def test_closed_form_expressions():
    k2, k4 = PARAMS.k
    r, p = 50.0, 1e-5
    t2, t4 = k2 * r * p, k4 * r * r * p * p
    assert closed_form(ScalingScenario("ss", "flat", 1)) == \
        pytest.approx(t2 + 3 * t4, rel=1e-14)
    n = 8
    assert closed_form(ScalingScenario("up", "flat", n)) == \
        pytest.approx(t2 + 2 * t4 * (2 * n * n + 1) / (2 * n), rel=1e-14)
    assert closed_form(ScalingScenario("up", "selective", n)) == \
        pytest.approx(t2 + 3 * t4, rel=1e-14)
    m = 4
    assert closed_form(ScalingScenario("upmf", "flat", n, m)) == \
        pytest.approx(t2 * m + t4 * (2 * n * n + 1) / (2 * n) * m * (m + 1),
                      rel=1e-14)
    assert closed_form(ScalingScenario("ass", "selective", 4)) == \
        pytest.approx(t2 * harmonic_h(4) + 3 * t4 * harmonic_s(4), rel=1e-14)
    with pytest.raises(ValueError):
        ScalingScenario("ass", "flat", 4, n_antennas=2)


def test_asymptotic_forms_track_growth():
    small = asymptotic_form(ScalingScenario("ass", "selective", 8))
    large = asymptotic_form(ScalingScenario("ass", "selective", 64))
    assert large > small
    # linear tone-count growth overtakes squared-log growth; at this drive
    # level the crossover sits near two hundred tones
    n_big = 4096
    assert asymptotic_form(ScalingScenario("upmf", "selective", n_big)) \
        > asymptotic_form(ScalingScenario("ass", "selective", n_big))


def test_monte_carlo_matches_closed_forms():
    cases = [ScalingScenario("up", "flat", 8),
             ScalingScenario("ss", "flat", 1),
             ScalingScenario("up", "selective", 8),
             ScalingScenario("ass", "selective", 4),
             ScalingScenario("upmf", "flat", 4, 2)]
    for sc in cases:
        mean, err = monte_carlo(sc, 20000, seed=11)
        assert abs(mean - closed_form(sc)) <= 4 * err


def test_monte_carlo_selective_mean_independent_of_n():
    ref = closed_form(ScalingScenario("up", "selective", 2))
    for n in (2, 8, 32):
        mean, err = monte_carlo(ScalingScenario("up", "selective", n),
                                20000, seed=13)
        assert abs(mean - ref) <= 4 * err


def test_upmf_selective_bounds_bracket_monte_carlo():
    for n in (4, 8, 16):
        for m in (1, 2, 4):
            sc = ScalingScenario("upmf", "selective", n, m)
            lo, hi = closed_form(sc)
            mean, err = monte_carlo(sc, 20000, seed=17)
            assert lo <= mean + 4 * err
            assert hi >= mean - 4 * err


TABLE1 = [ScalingScenario("ss", "flat", 1), ScalingScenario("up", "flat", 8),
          ScalingScenario("up", "selective", 8),
          ScalingScenario("ass", "flat", 8),
          ScalingScenario("ass", "selective", 8),
          ScalingScenario("upmf", "flat", 8, 2),
          ScalingScenario("upmf", "selective", 8, 2)]


@pytest.mark.parametrize("scenarios, shapes", [
    # table1's rows: ss, up and ass on the flat regime draw one gain per
    # trial, and up and ass on the selective regime draw 8
    (TABLE1, {(1, 1), (8, 1), (1, 2), (8, 2)}),
    # one tone count of fig-scalinglaws: all three draw (16, 1)
    ([ScalingScenario(s, "selective", 16) for s in ("up", "ass", "upmf")],
     {(16, 1)}),
    # draw widths 3, 16 and 10 do not divide each other, so chunk windows
    # of one shape straddle the draws made for another
    ([ScalingScenario("up", "selective", 3),
      ScalingScenario("upmf", "selective", 16),
      ScalingScenario("upmf", "selective", 5, 2)],
     {(3, 1), (16, 1), (5, 2)})])
def test_shared_draws_match_per_scenario_runs(scenarios, shapes, monkeypatch):
    # two full chunks and a partial one; every mean and stderr is the one
    # the scenario gets alone, bit for bit, and each normal of the shared
    # stream is drawn once: 2 * trials * n * m of the widest shape
    trials = 2 * scaling._MC_CHUNK + 300
    alone = [monte_carlo(sc, trials, seed=5) for sc in scenarios]
    drawn = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size):
            drawn.append(size)
            return self.rng.standard_normal(size)

    rng = scaling._rng
    monkeypatch.setattr(scaling, "_rng",
                        lambda seed, stream: Counting(rng(seed, stream)))
    assert monte_carlo_many(scenarios, trials, seed=5) == alone
    assert sum(drawn) == 2 * trials * max(n * m for n, m in shapes)


@pytest.mark.parametrize("scenarios", [
    TABLE1,
    [ScalingScenario(s, "selective", 16) for s in ("up", "ass", "upmf")]],
    ids=["table1", "fig-scalinglaws-16"])
def test_monte_carlo_matches_broadcast_rows_oracle(scenarios):
    # rank-one rows scored from their channel power and the other rows'
    # scaled terms give the means and errors of full tone rows
    trials = 2 * scaling._MC_CHUNK + 300
    got = monte_carlo_many(scenarios, trials, seed=5)
    for sc, (mean, err) in zip(scenarios, got):
        want_mean, want_err = mc_oracle.monte_carlo(sc, trials, seed=5)
        assert abs(mean - want_mean) <= 1e-13 * want_mean, sc
        assert abs(err - want_err) <= 1e-13 * want_err, sc


def test_monte_carlo_stderr_matches_two_pass_oracle():
    # `up` over selective fading at N = 256 has mean^2 / var of about 197,
    # where one-pass sums of squares cancel about two digits; chunk-centred
    # squares keep the error to the rounding of the mean
    sc = ScalingScenario("up", "selective", 256)
    trials = 2 * scaling._MC_CHUNK + 300
    [(_, err)] = monte_carlo_many([sc], trials, seed=1)
    want = mc_oracle.two_pass_stderr(sc, trials, seed=1)
    assert abs(err - want) <= 2e-15 * want


def test_monte_carlo_requires_enough_trials():
    with pytest.raises(ValueError):
        monte_carlo(ScalingScenario("ss", "flat", 1), 10)


def test_tone_row_evaluator_matches_zdc_analytic():
    # the batched kernel the Monte Carlo uses and the per-waveform path
    # agree on every row of one (rows, N) batch: real rows (zero phases over
    # a zero-phase flat channel), a common-phase flat row and complex rows
    # over iid channels, at every truncation order and N = 1..6
    rng = np.random.default_rng(8)
    for order in (2, 4, 6):
        params = RectennaParams(truncation_order=order)
        kernel = DCKernel(params)
        for n in range(1, 7):
            grid = FrequencyGrid(n, 100e6, 1e6)
            real = Waveform(rng.uniform(0.0, 4e-3, n), np.zeros(n), grid)
            channels = [flat_channel(1.3, 0.4, n, 1)]
            channels += [iid_frequency_channel(n, 2, seed=s) for s in range(3)]
            cases = [(real, flat_channel(1.3, 0.0, n, 1))]
            cases += [(baseline_waveform("up", h, 1e-5, grid), h)
                      for h in channels]
            rows = np.array([received_tone_coefficients(w, h)
                             for w, h in cases])
            batched = kernel.value(rows)
            assert batched.shape == (len(cases),)
            for z, row, (w, h) in zip(batched, rows, cases):
                assert np.isclose(z, kernel.value(row), rtol=1e-12, atol=0)
                assert np.isclose(z, zdc_analytic(w, h, params), rtol=1e-12,
                                  atol=0)


def test_quartic_gap_lower_bound_small_n():
    # sum over equal-sum quadruples of s products is at least
    # 4P^2 + 2*sum_{n0<n1} s0^2 s1^2, with equality at two tones
    rng = np.random.default_rng(3)
    for n in range(2, 7):
        for _ in range(20):
            s = rng.uniform(0.05, 1.0, n)
            p = 0.5 * np.sum(s ** 2)
            conv = np.convolve(s, s)
            quartic = float(np.sum(conv ** 2))
            cross = sum(s[i] ** 2 * s[j] ** 2
                        for i in range(n) for j in range(i + 1, n))
            bound = 4 * p * p + 2 * cross
            assert quartic >= bound * (1 - 1e-12)
            if n == 2:
                assert quartic == pytest.approx(bound, rel=1e-12)


def test_uniform_power_optimal_at_two_tones_flat():
    # flat two-tone optimum is the even split, i.e. exactly the uniform design
    power = 1e-4
    grid = FrequencyGrid(2, 100e6, 1e6)
    _, z_star = toy_n2(1.0, 1.0, power, PARAMS)
    h = flat_channel(1.0, 0.0, 2, 1)
    z_up = zdc_analytic(baseline_waveform("up", h, power, grid), h, PARAMS)
    assert z_up == pytest.approx(z_star, rel=1e-12)


def test_hardening_curve_decreases():
    rows = hardening_curve([1, 16, 256], 8, 1e-5, seed=5, trials=400)
    gains = [r["gain_deviation"] for r in rows]
    zdevs = [r["zdc_deviation"] for r in rows]
    assert gains[0] > gains[-1]
    assert zdevs[0] > zdevs[-1]
    assert zdevs[-1] < 0.05
    with pytest.raises(ValueError):
        hardening_curve([4, 2], 8, 1e-5)
