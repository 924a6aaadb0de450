import collections

import numpy as np
import pytest

import joint_polish_oracle
from multisine_wpt import cli, interior, optimizer
from multisine_wpt.channel import (ChannelRealization, FrequencyGrid,
                                   flat_channel, iid_frequency_channel)
from multisine_wpt.interior import InfeasibleStartError, minimize_linear
from multisine_wpt.optimizer import (OptimizerOptions, _ascents,
                                     _kkt_polish_power_only,
                                     _kkt_residual_power_only, _mm_ascent,
                                     _peak_matrix, _smf_start, _step_rows,
                                     _WeightedDC,
                                     ass_multi, baseline_waveform,
                                     optimal_phases, optimize,
                                     optimize_multi, optimize_papr,
                                     positivity_floor, toy_n2)
from multisine_wpt.rectenna import (DCKernel, DiodeParams, RectennaParams,
                                    Waveform, antenna_paprs, papr,
                                    received_tone_coefficients, zdc_analytic)

P4 = RectennaParams()
POWER = 1e-5
TIGHT = OptimizerOptions(eps=1e-13, max_iterations=500)


def _grid(n):
    return FrequencyGrid(n, 100e6, 1e6)


def _seed_waveforms(h, power, grid):
    """The seed strategies' waveforms, in the order the designs take them."""
    return [baseline_waveform(name, h, power, grid)
            for name in optimizer._SEEDS]


def test_optimal_phases():
    assert np.allclose(optimal_phases(flat_channel(1.0, 0.0, 3, 2)), 0.0)
    h = ChannelRealization(np.full((2, 1), np.exp(1j * np.pi / 3)))
    assert np.allclose(optimal_phases(h), -np.pi / 3)
    hr = iid_frequency_channel(4, 2, seed=0)
    w = baseline_waveform("upmf", hr, POWER, _grid(4))
    r = received_tone_coefficients(w, hr)
    assert np.allclose(np.angle(r[np.abs(r) > 0]), 0.0, atol=1e-12)


def test_ass_selects_strongest_tone():
    h = ChannelRealization(np.array([[1.0], [2.0], [0.5]], dtype=complex))
    w = baseline_waveform("ass", h, POWER, _grid(3))
    assert w.amplitudes[1, 0] == pytest.approx(np.sqrt(2 * POWER))
    assert np.all(w.amplitudes[[0, 2], 0] == 0.0)
    # flat channel: tie breaks to tone 0
    wf = baseline_waveform("ass", flat_channel(1.0, 0.0, 4, 1), POWER,
                           _grid(4))
    assert wf.amplitudes[0, 0] > 0 and np.all(wf.amplitudes[1:, 0] == 0.0)
    # received power equals P * ||h_nbar||^2 (second-order term check)
    tones = received_tone_coefficients(w, h)
    assert np.isclose(0.5 * np.sum(np.abs(tones) ** 2), POWER * 4.0,
                      rtol=1e-12)
    with pytest.raises(ValueError):
        baseline_waveform("ass",
                          ChannelRealization(np.zeros((2, 1), dtype=complex)),
                          POWER, _grid(2))


def test_up_and_ss_amplitudes():
    w = baseline_waveform("up", flat_channel(1.0, 0.0, 4, 1), POWER, _grid(4))
    assert np.allclose(w.amplitudes, np.sqrt(2 * POWER / 4))
    assert np.allclose(w.phases, 0.0)
    w2 = baseline_waveform("ss", flat_channel(1.0, 0.0, 4, 2), POWER, _grid(4))
    assert np.isclose(w2.transmit_power, POWER, rtol=1e-12)
    assert np.all(w2.amplitudes[1:] == 0.0)


def test_mf_proportional_to_gains():
    h = ChannelRealization(np.array([[1.0], [2.0]], dtype=complex))
    w = baseline_waveform("mf", h, POWER, _grid(2))
    assert np.isclose(w.amplitudes[1, 0] / w.amplitudes[0, 0], 2.0, rtol=1e-12)
    assert np.isclose(w.transmit_power, POWER, rtol=1e-12)


def test_max_papr_equalizes_received_tones():
    h = iid_frequency_channel(8, 1, seed=1)
    w = baseline_waveform("maxpapr", h, POWER, _grid(8))
    r = received_tone_coefficients(w, h)
    assert np.allclose(np.abs(r), np.abs(r[0]), rtol=1e-12)
    assert np.isclose(w.transmit_power, POWER, rtol=1e-12)
    # equal in-phase received tones hit the maximum envelope PAPR of 2N
    y_peak = np.sum(np.abs(r))
    mean_power = 0.5 * np.sum(np.abs(r) ** 2)
    assert np.isclose(y_peak ** 2 / mean_power, 16.0, rtol=1e-12)
    dead = ChannelRealization(np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(ValueError):
        baseline_waveform("maxpapr", dead, POWER, _grid(2))


def test_toy_two_tone_cases():
    params = P4
    s, z = toy_n2(1.0, 1.0, 1e-4, params)
    assert np.isclose(s[0] ** 2, 1e-4, rtol=1e-12)  # equal split wins
    assert np.isclose(s[1] ** 2, 1e-4, rtol=1e-12)
    s0, z0 = toy_n2(1.0, 0.0, 1e-4, params)
    assert s0[0] ** 2 == pytest.approx(2e-4) and s0[1] == 0.0
    with pytest.raises(ValueError):
        toy_n2(1.0, 1.0, 1e-4, RectennaParams(DiodeParams(), 2))


def test_toy_matches_sca_over_sweep():
    grid = _grid(2)
    for a1 in np.linspace(0.5, 1.5, 11):
        ch = ChannelRealization(np.array([[1.0], [a1]], dtype=complex))
        _, z_star = toy_n2(1.0, a1, 1e-4, P4)
        trace = optimize(ch, 1e-4, P4, grid, TIGHT)
        assert abs(trace.zdc - z_star) <= 1e-6 * z_star


def test_weighted_objective_matches_weighted_zdc_sum():
    rng = np.random.default_rng(15)
    ch = iid_frequency_channel(3, 2, n_rectennas=2, seed=16)
    hs = [ch.rectenna(0).h, ch.rectenna(1).h]
    weights = [0.7, 1.8]
    for params in (P4, RectennaParams(DiodeParams(), 6)):
        obj = _WeightedDC(hs, weights, params)
        for _ in range(5):
            w = Waveform(rng.uniform(0.1, 1.0, (3, 2)) * 1e-3,
                         rng.uniform(-np.pi, np.pi, (3, 2)), _grid(3))
            z, grad, _ = obj.value_grad_hess(w.weights)
            direct = sum(v * zdc_analytic(w, ChannelRealization(h), params)
                         for v, h in zip(weights, hs))
            assert obj.value(w.weights) == direct and z == direct
            # the gradient gives the directional derivative Re<grad, d>
            d = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            t = 1e-9
            slope = (obj.value(w.weights + t * d)
                     - obj.value(w.weights - t * d)) / (2 * t)
            assert np.isclose(slope, np.real(np.vdot(grad, d)), rtol=1e-6)


def test_hessian_is_the_kernels_in_the_received_tones():
    # one N x N matrix for any antenna count, never an (N, M, N, M) tensor
    rng = np.random.default_rng(3)
    gains = np.abs(iid_frequency_channel(5, 3, seed=2).h)
    s = rng.uniform(0.1, 1.0, (5, 3)) * 1e-3
    for params in (P4, RectennaParams(DiodeParams(), 6)):
        _, _, hess = _WeightedDC([gains], [1.0], params).value_grad_hess(
            s, want_hess=True)
        assert hess.shape == (5, 5)
        want = DCKernel(params).value_grad_hess(np.sum(gains * s, axis=1),
                                                want_hess=True)[2]
        assert np.allclose(hess, want, rtol=1e-12, atol=0.0)


def _slow_mm_case():
    """A 16-tone multipath channel, reduced to its effective channel
    ||h_n|| after matched beamforming, on which the plain MM map needs more
    than 100 steps to reach eps = 1e-8 from 3 of the 4 seeds, with
    log-gradient shares down to 1e-26 at its 100th step."""
    cfg = cli.validate_config(dict(cli.default_config(), n_tones=16,
                                   n_antennas=2, carrier_multiple=256, seed=0))
    grid = cli._grid(cfg)
    h = cli._channel(cfg, grid, 43).h
    eff = ChannelRealization(np.sqrt(np.sum(np.abs(h) ** 2, axis=1)))
    opts = OptimizerOptions(eps=1e-8, max_iterations=100)
    seeds = [w.weights for w in _seed_waveforms(eff, POWER, grid)]
    return eff, seeds, opts


def test_kkt_polish_deterministic_at_iteration_cap():
    # the polished endpoint of every ascent on the slow channel must not
    # depend on rounding in that endpoint, down to shares near 1e-26
    eff, seeds, opts = _slow_mm_case()
    obj = _WeightedDC([np.abs(eff.h)], [1.0], P4)
    rng = np.random.default_rng(0)
    for w, _, _ in _ascents(_WeightedDC([eff.h], [1.0], P4), seeds, POWER,
                            opts):
        s = np.abs(w)
        z = _kkt_polish_power_only(obj, s, POWER)[1]
        for _ in range(5):
            s_pert = s * (1 + 1e-15 * rng.standard_normal(s.shape))
            z_pert = _kkt_polish_power_only(obj, s_pert, POWER)[1]
            assert abs(z_pert - z) <= 1e-12 * z


def _solve_failing_once(monkeypatch) -> list:
    """Make `np.linalg.solve` raise LinAlgError on its first call and
    delegate after it; returns the list of the shapes it was called on."""
    solve = np.linalg.solve
    calls = []

    def failing_once(a, b):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_once)
    return calls


def test_kkt_polish_keeps_a_finite_point_when_its_system_is_singular(
        monkeypatch):
    # a singular Newton system ends the polish loop; what it returns is
    # still finite and scores no lower than its input, to 1e-9
    eff, seeds, opts = _slow_mm_case()
    obj = _WeightedDC([np.abs(eff.h)], [1.0], P4)
    w = next(iter(_ascents(_WeightedDC([eff.h], [1.0], P4), seeds, POWER,
                           opts)))[0]
    s = np.abs(w)
    z_in = obj.value(s)
    calls = _solve_failing_once(monkeypatch)
    polished, z = _kkt_polish_power_only(obj, s, POWER)
    assert len(calls) == 1
    assert np.isfinite(polished).all()
    assert z == obj.value(polished) >= z_in * (1.0 - 1e-9)


def test_optimize_scores_each_point_once(monkeypatch):
    # on the effective-channel objective of one design, the SMF(3) seed and
    # the polished point are scored once each, and the polish start twice:
    # as the ascent's endpoint and once in the polish, whose evaluation
    # also gives the Hessian of its first Newton step
    h = iid_frequency_channel(8, 2, seed=3)
    scored = collections.Counter()
    polishes = []
    value_grad_hess = _WeightedDC.value_grad_hess

    def counting(obj, w, want_hess=False):
        if obj.terms[0][1].shape[1] == 1:
            scored[w.tobytes()] += 1
        return value_grad_hess(obj, w, want_hess)

    def polish(obj, s, power):
        result = _kkt_polish_power_only(obj, s, power)
        polishes.append((s, result))
        return result

    monkeypatch.setattr(_WeightedDC, "value_grad_hess", counting)
    monkeypatch.setattr(optimizer, "_kkt_polish_power_only", polish)
    optimize(h, 1e-4, P4, _grid(8))
    norms = np.linalg.norm(np.abs(h.h), axis=1, keepdims=True)
    [(start, result)] = polishes
    assert scored[_smf_start(norms, 1e-4).tobytes()] == 1
    assert scored[start.tobytes()] <= 2
    polished, _ = result
    assert not np.array_equal(polished, start)
    assert scored[polished.tobytes()] == 1


def test_optimize_runs_one_ascent_from_the_scaled_matched_filter(monkeypatch):
    # one MM run per design, over the tone amplitudes on the effective
    # gains ||h_n||, from p_n proportional to ||h_n||^3 on the power sphere:
    # the scaled matched filter with beta = 3
    h = iid_frequency_channel(6, 2, seed=3)
    smf = np.linalg.norm(h.h, axis=1, keepdims=True) ** 3
    smf *= np.sqrt(2 * POWER) / np.linalg.norm(smf)
    starts = []

    def counting(obj, w, power, options):
        starts.append(w)
        return _mm_ascent(obj, w, power, options)

    monkeypatch.setattr(optimizer, "_mm_ascent", counting)
    optimize(h, POWER, P4, _grid(6))
    assert len(starts) == 1
    assert starts[0].shape == (6, 1)
    assert np.allclose(starts[0], smf, rtol=1e-12, atol=0.0)


def test_single_start_reaches_the_best_of_the_four_baseline_starts():
    # the reference is the old multi-start design: one run from each
    # distinct closed-form seed over the N*M amplitudes, finished by the
    # N*M polish, best endpoint kept
    opts = OptimizerOptions(eps=1e-8)
    for params in (P4, RectennaParams(DiodeParams(), 6)):
        for m in (1, 2):
            for seed in range(8):
                n = (2, 4, 8, 16)[seed % 4]
                power = (1e-6, 1e-5, 1e-4, 1e-3)[seed // 2 % 4]
                h = iid_frequency_channel(n, m, seed=300 + seed)
                obj = _WeightedDC([np.abs(h.h)], [1.0], params)
                seeds = [w.amplitudes
                         for w in _seed_waveforms(h, power, _grid(n))]
                best = max(joint_polish_oracle.polished(
                               obj, np.abs(w), history, reason, power)[1][-1]
                           for w, history, reason in _ascents(obj, seeds,
                                                              power, opts))
                z = optimize(h, power, params, _grid(n), opts).zdc
                assert z >= best * (1.0 - 1e-12), (params, m, seed)


def test_polish_lifts_a_weak_tone_below_its_optimum():
    # multipath (8, 2) draw 20: the run from SMF(3) stops at eps 1e-8 with
    # tone 2 near 5e-6 of the largest amplitude, below its optimum near
    # 3e-5.  Newton on the log-gradient gap, whose row vanishes with the
    # amplitude, walked that tone toward zero and ended 2.3e-10 below the
    # design the run from `mf` reaches
    cfg = cli.validate_config(dict(cli.default_config(), n_tones=8,
                                   n_antennas=2, seed=1))
    grid = cli._grid(cfg)
    h = cli._channel(cfg, grid, 20)
    opts = cli._options(cfg)
    obj = _WeightedDC([np.abs(h.h)], [1.0], P4)
    w, history, reason = _mm_ascent(
        obj, baseline_waveform("mf", h, POWER, grid).amplitudes, POWER, opts)
    want = joint_polish_oracle.polished(obj, np.abs(w), history, reason,
                                        POWER)[1][-1]
    assert optimize(h, POWER, P4, grid, opts).zdc >= want * (1.0 - 1e-12)


@pytest.mark.parametrize("order", [4, 6])
def test_optimize_reaches_the_complex_ascent_over_all_amplitudes(order):
    # with one rectenna, `optimize_multi` runs the MM ascent over the N*M
    # complex weights from the four closed-form seeds; `optimize` designs
    # the N tone amplitudes only, and spreads tone n over the antennas by
    # matched beamforming, s_nm ||h_n|| = ||s_n|| |h_nm|.  One design here
    # is known to end lower: on iid(16, 2, seed 507) at order 6 and 1e-5 W
    # the one SMF(3) start ends at a stationary point 6.7e-4 below the run
    # from the seeds, as the N*M design from SMF(3) does
    params = RectennaParams(DiodeParams(), order)
    opts = OptimizerOptions(eps=1e-8)
    lower = []
    for m in (2, 4, 8):
        for seed in range(10):
            n = (2, 4, 8, 16)[seed % 4]
            power = (1e-6, 1e-5, 1e-4)[seed % 3]
            h = iid_frequency_channel(n, m, seed=500 + seed)
            trace = optimize(h, power, params, _grid(n), opts)
            multi = optimize_multi([h], [1.0], power, params, _grid(n), opts)
            if trace.zdc < multi.zdc * (1.0 - 1e-12):
                lower.append((m, seed, round(1.0 - trace.zdc / multi.zdc, 5)))
            s, gains = trace.waveform.amplitudes, np.abs(h.h)
            assert np.allclose(
                s * np.linalg.norm(gains, axis=1, keepdims=True),
                np.linalg.norm(s, axis=1, keepdims=True) * gains,
                rtol=1e-12, atol=0.0), (m, seed)
    assert lower == ([(2, 7, 0.00067)] if order == 6 else [])


def test_a_tone_without_gain_sends_nothing():
    # tone 1 reaches no antenna: its effective gain is 0, and the spread
    # p_n |h_nm| / ||h_n|| must give a zero row without a 0/0 (warnings
    # are errors in this suite).  z matches the N*M design's
    h = iid_frequency_channel(4, 2, seed=7).h.copy()
    h[1] = 0.0
    opts = OptimizerOptions(eps=1e-8)
    trace = optimize(ChannelRealization(h), POWER, P4, _grid(4), opts)
    assert np.all(trace.waveform.amplitudes[1] == 0.0)
    assert np.all(trace.waveform.amplitudes[[0, 2, 3]] > 0.0)
    want = joint_polish_oracle.joint_design_zdc(h, POWER, P4, opts)
    assert abs(trace.zdc - want) <= 1e-12 * want


def test_every_ascent_converges_on_slow_channel():
    # two plain map steps per iteration, without the extrapolation, need 57
    # iterations here; the SQUAREM cycles need at most 11
    eff, seeds, opts = _slow_mm_case()
    runs = _ascents(_WeightedDC([eff.h], [1.0], P4), seeds, POWER, opts)
    # the effective channel has one antenna, on which `upmf` is `up`
    assert len(runs) == 3
    for _, history, reason in runs:
        assert reason == "tol"
        assert len(history) - 1 <= 25


def _plain_mm_best(obj, seeds, power, eps=1e-13, cap=100_000):
    """Best endpoint z of the unaccelerated MM map run from every seed."""
    radius = np.sqrt(2.0 * power)
    best = 0.0
    for w in seeds:
        z, grad, _ = obj.value_grad_hess(w)
        for _ in range(cap):
            z_new, grad_new, _ = obj.value_grad_hess(radius * grad
                                                     / np.linalg.norm(grad))
            if z_new < z:
                break
            done = z_new - z < eps * z_new
            z, grad = z_new, grad_new
            if done:
                break
        best = max(best, z)
    return best


def test_accelerated_ascent_reaches_plain_mm_optimum():
    opts = OptimizerOptions(eps=1e-13, max_iterations=500)
    cases = []
    for seed in range(20):
        h = iid_frequency_channel(8, 2, seed=400 + seed)
        seeds = [w.weights for w in _seed_waveforms(h, POWER, _grid(8))]
        cases.append(([h.h], seeds))
    for seed in range(12):
        n, m = (3, 1) if seed % 2 == 0 else (4, 2)
        ch = iid_frequency_channel(n, m, n_rectennas=2, seed=seed)
        hs = [ch.rectenna(0).h, ch.rectenna(1).h]
        seeds = [ass_multi(hs, [1.0, 1.0], POWER, _grid(n)).weights]
        for h_u in hs:
            seeds += [w.weights for w in _seed_waveforms(
                ChannelRealization(h_u), POWER, _grid(n))]
        cases.append((hs, seeds))
    for hs, seeds in cases:
        obj = _WeightedDC(hs, [1.0] * len(hs), P4)
        z = max(history[-1]
                for _, history, _ in _ascents(obj, seeds, POWER, opts))
        z_ref = _plain_mm_best(obj, seeds, POWER)
        assert z >= z_ref * (1.0 - 1e-12)


def test_cycle_never_ends_below_two_plain_steps():
    # walk each run one cycle at a time; on these channels the extrapolated
    # point loses to the two plain map steps in some cycles
    radius = np.sqrt(2.0 * POWER)
    one_cycle = OptimizerOptions(eps=1e-15, max_iterations=1)
    for seed in range(10):
        h = iid_frequency_channel(8, 2, seed=400 + seed)
        obj = _WeightedDC([h.h], [1.0], P4)
        for w in [w.weights for w in _seed_waveforms(h, POWER, _grid(8))]:
            for _ in range(20):
                _, grad, _ = obj.value_grad_hess(w)
                for _ in range(2):
                    z, grad, _ = obj.value_grad_hess(radius * grad
                                                     / np.linalg.norm(grad))
                w, history, reason = _mm_ascent(obj, w, POWER, one_cycle)
                if reason == "stall":
                    break
                assert history[-1] >= z * (1.0 - 1e-14)
                if reason == "tol":
                    break


def test_polish_runs_on_every_ascent():
    # at default options the SMF(3) run stops at `tol` after 11 cycles on a
    # saddle corner (z = 1.352463207e-5, KKT residual 2.2e-5, two
    # amplitudes below 2e-8); the polish holds those two at zero and
    # reaches the eps = 1e-11 design, z = 1.352469936e-5
    h = iid_frequency_channel(4, 4, seed=9027).h
    eff = ChannelRealization(np.sqrt(np.sum(np.abs(h) ** 2, axis=1)))
    trace = optimize(eff, POWER, P4, _grid(4))
    tight = optimize(eff, POWER, P4, _grid(4), OptimizerOptions(eps=1e-11))
    assert abs(trace.zdc - tight.zdc) <= 1e-12 * tight.zdc
    assert trace.kkt_residual <= 1e-10


def test_stop_reasons():
    h = iid_frequency_channel(8, 2, seed=100)
    assert optimize(h, POWER, P4, _grid(8)).stop_reason == "tol"
    capped = optimize(h, POWER, P4, _grid(8),
                      OptimizerOptions(eps=1e-15, max_iterations=1))
    assert capped.stop_reason == "max_iter" and not capped.converged
    multi = optimize_multi([h], [1.0], POWER, P4, _grid(8),
                           OptimizerOptions(eps=1e-15, max_iterations=1))
    assert multi.stop_reason == "max_iter"


def test_ascent_rejects_a_falling_cycle_as_stall():
    class Falling:
        """z falls by half at every evaluation; any gradient will do."""

        def __init__(self):
            self.z = 1.0

        def value_grad_hess(self, w):
            self.z *= 0.5
            return self.z, np.ones_like(w), None

    w0 = np.ones((2, 1), dtype=complex)
    w, history, reason = _mm_ascent(Falling(), w0, POWER, OptimizerOptions())
    assert reason == "stall"
    assert np.array_equal(w, w0) and history.size == 1


def test_optimize_monotone_dominant_and_stationary():
    grid = _grid(8)
    for seed in range(8):
        h = iid_frequency_channel(8, 2, seed=100 + seed)
        trace = optimize(h, POWER, P4, grid, TIGHT)
        diffs = np.diff(trace.zdc_history)
        assert np.all(diffs >= -1e-10 * np.abs(trace.zdc_history[1:]))
        assert trace.kkt_residual <= 1e-5
        assert trace.waveform.transmit_power <= POWER * (1 + 1e-9)
        for name in ("up", "ass", "mf", "upmf"):
            base = baseline_waveform(name, h, POWER, grid)
            assert trace.zdc >= zdc_analytic(base, h, P4)


@pytest.mark.parametrize("seed, power", [(3, 1e-6), (1, 1e-4)])
def test_kkt_residual_is_that_of_the_returned_waveform(seed, power):
    # iid(4, 2, seed 3) at 1e-6 W returns the `ass` baseline, not the ascent
    # endpoint; at seed 1, 1e-4 W the endpoint is returned.  Either way the
    # residual is the returned amplitudes', in the joint problem over |h|
    h = iid_frequency_channel(4, 2, seed=seed)
    trace = optimize(h, power, P4, _grid(4), OptimizerOptions(eps=1e-8))
    returns_ass = np.array_equal(
        trace.waveform.amplitudes,
        baseline_waveform("ass", h, power, _grid(4)).amplitudes)
    assert returns_ass == (seed == 3)
    joint = _WeightedDC([np.abs(h.h)], [1.0], P4)
    assert trace.kkt_residual == _kkt_residual_power_only(
        joint, trace.waveform.amplitudes, power)


def test_optimize_order_six_dominant_and_stationary():
    grid = _grid(8)
    params = RectennaParams(DiodeParams(), 6)
    for seed in range(3):
        h = iid_frequency_channel(8, 2, seed=300 + seed)
        trace = optimize(h, POWER, params, grid, TIGHT)
        assert trace.kkt_residual <= 1e-5
        assert trace.waveform.transmit_power <= POWER * (1 + 1e-9)
        for name in ("up", "ass", "mf", "upmf"):
            base = baseline_waveform(name, h, POWER, grid)
            assert trace.zdc >= zdc_analytic(base, h, params)


def _effective(h):
    """The single-antenna channel ||h_n|| that matched beamforming leaves."""
    return ChannelRealization(np.linalg.norm(h.h, axis=1)[:, None])


def test_joint_and_decoupled_dominate_exactly():
    # channels on which rounding once left the decoupled design an ulp
    # below `ass`; both CLI names are scored as the CLI builds them
    grid = _grid(8)
    cfg = cli.validate_config(dict(cli.default_config(), sca_eps=1e-6))
    for seed in (16, 43, 47, 58):
        h = iid_frequency_channel(8, 2, seed=seed)
        trace = optimize(h, POWER, P4, grid)
        assert trace.zdc == zdc_analytic(trace.waveform, h, P4)
        for strategy in ("opt", "opt-decoupled"):
            z = zdc_analytic(cli.build_waveform(strategy, cfg, h, grid)[0],
                             h, P4)
            for name in ("up", "ass", "mf", "upmf"):
                base, _ = cli.build_waveform(name, cfg, h, grid)
                assert z >= zdc_analytic(base, h, P4), (seed, strategy, name)


def test_decoupled_equals_joint_for_single_antenna():
    grid = _grid(4)
    h = iid_frequency_channel(4, 1, seed=3)
    t1 = optimize(h, POWER, P4, grid, TIGHT)
    t2 = optimize(_effective(h), POWER, P4, grid, TIGHT)
    assert np.isclose(t1.zdc, t2.zdc, rtol=1e-12)


def test_decoupled_matches_joint_multi_antenna():
    # the design on h against the design on its effective channel: both
    # run the per-tone design on ||h_n||, and only the scoring on the
    # complex channel differs (the N*M check is
    # test_optimize_reaches_the_complex_ascent_over_all_amplitudes)
    grid = _grid(4)
    for seed in range(6):
        h = iid_frequency_channel(4, 2, seed=200 + seed)
        t1 = optimize(h, POWER, P4, grid, TIGHT)
        t2 = optimize(_effective(h), POWER, P4, grid, TIGHT)
        assert abs(t1.zdc - t2.zdc) <= 1e-4 * t1.zdc


def test_papr_constrained_feasible_and_limits():
    grid = _grid(8)
    h = flat_channel(1.0, 0.0, 8, 1)
    opts = OptimizerOptions(eps=1e-8, max_iterations=40)
    unconstrained = optimize(h, POWER, P4, grid, TIGHT)
    previous = 0.0
    for eta in (2.0, 6.0, 1e6):
        tr = optimize_papr(h, POWER, eta, P4, grid, opts)
        for ant in range(tr.waveform.n_antennas):
            assert papr(tr.waveform, ant, 8) <= eta * (1 + 1e-6)
        assert tr.zdc >= previous * (1 - 1e-9)  # looser cap cannot hurt
        previous = tr.zdc
        assert tr.papr_certified
    assert abs(previous - unconstrained.zdc) <= 1e-3 * unconstrained.zdc
    with pytest.raises(ValueError):
        optimize_papr(h, POWER, 1.5, P4, grid, opts)


def test_papr_eta_two_concentrates_power():
    grid = _grid(8)
    h = flat_channel(1.0, 0.0, 8, 1)
    tr = optimize_papr(h, POWER, 2.0, P4, grid,
                       OptimizerOptions(eps=1e-8, max_iterations=40))
    assert papr(tr.waveform, 0, 8) <= 2.0 + 1e-6
    s = np.sort(tr.waveform.amplitudes[:, 0])[::-1]
    assert s[0] ** 2 >= 0.99 * 2 * POWER  # essentially single tone


def test_papr_step_rows_are_tangent_inner_rows_on_one_antenna():
    # row (m, q) of the step is (a_mq . u_m)^2 <= (limit/2) ||u_m||^2 with
    # ||u_m||^2 replaced by its tangent at the anchor, divided by
    # (limit/2) ||u'_m||^2; u is the (N, M) amplitudes, flattened
    rng = np.random.default_rng(8)
    n, m, n_samples, limit, floor = 3, 2, 6, 2.7, 1e-12
    cos = rng.uniform(-1.0, 1.0, (m, n_samples, n))
    anchor = rng.uniform(0.2, 1.5, (n, m))
    anchor /= np.linalg.norm(anchor)
    peaks = _peak_matrix(cos)
    rows = _step_rows(peaks, anchor, limit, floor)
    n_rows = 1 + n * m + m * n_samples

    def values(u):
        return rows(u)[0]

    def evaluate(u):
        g, derivatives = rows(u)
        return (g, *derivatives())

    def loop_rows(u):
        rows = [np.sqrt(u @ u) - 1.0] + [floor - v for v in u]
        s, s_bar = u.reshape(n, m), anchor
        for ant in range(m):
            scale = 0.5 * limit * np.sum(s_bar[:, ant] ** 2)
            for q in range(n_samples):
                x = sum(cos[ant, q, k] * s[k, ant] for k in range(n))
                tangent = 0.5 * limit * (2.0 * s_bar[:, ant] @ s[:, ant]
                                         - s_bar[:, ant] @ s_bar[:, ant])
                rows.append((x ** 2 - tangent) / scale)
        return np.array(rows)

    def true_rows(u):
        s = u.reshape(n, m)
        return np.array([(cos[ant, q] @ s[:, ant]) ** 2
                         - 0.5 * limit * np.sum(s[:, ant] ** 2)
                         for ant in range(m) for q in range(n_samples)])

    scales = np.repeat(0.5 * limit * np.sum(anchor ** 2, axis=0), n_samples)
    # tight at the anchor: each peak row reads the true row there
    at_anchor = values(anchor.ravel())[1 + n * m:]
    assert np.allclose(at_anchor * scales, true_rows(anchor.ravel()),
                       rtol=1e-12, atol=1e-15)
    points = [anchor.ravel()] + [rng.uniform(0.0, 1.0, n * m)
                                 for _ in range(200)]
    for u in points:
        g, J, hess = evaluate(u)
        assert g.size == n_rows
        assert np.array_equal(g, values(u))
        assert np.allclose(g, loop_rows(u), rtol=1e-12, atol=1e-14)
        # an inner approximation: never below the true row, so a point
        # that meets a tangent row meets its peak row
        assert np.all(g[1 + n * m:] * scales
                      >= true_rows(u) - 1e-14 * np.abs(true_rows(u)).max())
        # the Jacobian and the weighted Hessian sum, by central differences
        w = rng.uniform(0.1, 2.0, n_rows)
        step = 1e-6
        for j in range(n * m):
            e = np.zeros(n * m)
            e[j] = step
            g_plus, J_plus, _ = evaluate(u + e)
            g_minus, J_minus, _ = evaluate(u - e)
            assert np.allclose(J[:, j], (g_plus - g_minus) / (2 * step),
                               rtol=1e-6, atol=1e-6)
            assert np.allclose(hess(w)[:, j],
                               w @ (J_plus - J_minus) / (2 * step),
                               rtol=1e-6, atol=1e-6)
    # each peak row touches only its own antenna's amplitudes: variable
    # k * m + a is tone k on antenna a
    _, J, _ = evaluate(rng.uniform(0.1, 1.0, n * m))
    for row, ant in zip(J[1 + n * m:], np.repeat(np.arange(m), n_samples)):
        assert np.all(row[np.arange(n * m) % m != ant] == 0.0)


@pytest.mark.parametrize("m", [1, 2])
def test_papr_step_derivatives_match_the_stacked_build_bit_for_bit(m):
    # the Jacobian's constant blocks are built once per step and copied, and
    # the Hessian's outer product and diagonal are taken in place: no float
    # moves against the stacked build np.vstack([u / ||u||, -I,
    # (2 sigma x) p - c]) and np.outer / diag_indices_from, written here
    # as the oracle.  Every point's derivatives are built before any is
    # checked, so one point's J cannot share memory with another's
    rng = np.random.default_rng(10 + m)
    n, n_samples, limit, floor = 4, 8, 3.0, 1e-12
    peaks = _peak_matrix(rng.uniform(-1.0, 1.0, (m, n_samples, n)))
    owner = np.repeat(np.arange(m), n_samples)
    for _ in range(5):
        anchor = rng.uniform(0.1, 1.0, (n, m))
        anchor /= np.linalg.norm(anchor)
        rows = _step_rows(peaks, anchor, limit, floor)
        norms_sq = np.sum(anchor ** 2, axis=0)
        sigma = 2.0 / (limit * norms_sq[owner])
        lin = np.zeros((m * n_samples, n * m))
        for i, ant in enumerate(owner):
            lin[i, ant::m] = 2.0 * anchor[:, ant] / norms_sq[ant]
        points = [anchor.ravel()] + [rng.uniform(0.0, 1.0, n * m)
                                     for _ in range(3)]
        built = [(g, *derivatives()) for g, derivatives in map(rows, points)]
        for u, (g, J, hess) in zip(points, built):
            x, length = peaks @ u, np.linalg.norm(u)
            want_g = np.concatenate([[length - 1.0], floor - u,
                                     sigma * x ** 2 - lin @ u + 1.0])
            want_J = np.vstack([u / length, -np.eye(u.size),
                                (2.0 * sigma * x)[:, None] * peaks - lin])
            assert np.array_equal(g, want_g) and g.tobytes() == want_g.tobytes()
            assert np.array_equal(J, want_J) and J.tobytes() == want_J.tobytes()
            w = rng.uniform(0.1, 2.0, g.size)
            want_h = peaks.T @ ((2.0 * sigma * w[1 + u.size:])[:, None] * peaks)
            want_h -= (w[0] / length ** 3) * np.outer(u, u)
            want_h[np.diag_indices_from(want_h)] += w[0] / length
            assert hess(w).tobytes() == want_h.tobytes()


def _step_problem(limit: float, blend: float = 0.0):
    """(objective, rows, start, MM map) of a PAPR step on iid(4, 2, seed 3)
    at 1e-4 W, anchored at `mf` blended toward `ass` by `blend` and
    floored, as `optimize_papr` builds it: the loop's variables are the
    amplitudes scaled by 1/sqrt(2P)."""
    h = iid_frequency_channel(4, 2, seed=3)
    power = 1e-4
    n, m = h.h.shape
    radius = np.sqrt(2.0 * power)
    floor = positivity_floor(power)
    obj = _WeightedDC([np.abs(h.h)], [1.0], P4)
    mf, ass = (baseline_waveform(name, h, power, _grid(n)).amplitudes
               for name in ("mf", "ass"))
    anchor = np.maximum((1.0 - blend) * mf + blend * ass, floor)
    z, grad = obj.value_grad_hess(anchor)[:2]
    phases = optimal_phases(h)
    basis = optimizer.papr_basis(_grid(n), 8)
    peaks = _peak_matrix(np.einsum(
        "inq,inm->mqn", basis.reshape(2, n, -1),
        np.stack([np.cos(phases), np.sin(phases)])))
    rows = _step_rows(peaks, anchor / radius, limit, floor / radius)
    start = np.maximum(anchor, 2.0 * floor) / radius * np.sqrt(1.0 - 1e-6)
    return (-(radius * grad / z).ravel(), rows, start.ravel(),
            (grad / np.linalg.norm(grad)).ravel())


def test_papr_step_is_the_mm_map_when_no_peak_row_binds():
    # a limit no row meets binds nothing: the step's QCQP, solved by the
    # primal-dual loop, is the MM map sqrt(2P) g / ||g||, the point the
    # design takes without a solve
    objective, rows, start, want = _step_problem(1e6)
    report = minimize_linear(objective, rows, start)
    assert report.converged
    # within the loop's own tolerance: its iterates stay strictly inside
    # the power row
    assert np.allclose(report.x, want, rtol=1e-9, atol=0.0)


def test_primal_dual_loop_evaluates_each_point_once():
    # the anchor, `mf` blended 3/4 of the way to `ass`, has PAPR 3.291 and
    # its MM map 3.320, so at eta = 3.3 a peak row binds, and the line
    # searches try points outside the rows.  Each point costs one `rows`
    # call; only a point strictly inside every row builds its
    # derivatives, at most once, and counting changes no bit of the report
    objective, rows, start, mm_map = _step_problem(3.3, blend=0.75)
    assert rows(mm_map)[0][1 + start.size:].max() > 0
    calls = []

    def counting(y):
        g, derivatives = rows(y)
        call = {"y": y.tobytes(), "g": g, "derivatives": 0}
        calls.append(call)

        def counted():
            call["derivatives"] += 1
            return derivatives()

        return g, counted

    report = minimize_linear(objective, counting, start)
    assert report.converged and report.iterations > 5
    assert calls[0]["y"] == start.tobytes()
    assert len({call["y"] for call in calls}) == len(calls)
    built = [call for call in calls if call["derivatives"]]
    assert all(call["derivatives"] == 1 for call in built)
    assert all(np.all(call["g"] < 0) for call in built)
    # the start and each accepted trial build theirs
    assert len(built) >= report.iterations + 1
    assert any(call["g"].max() >= 0 for call in calls)
    want = minimize_linear(objective, rows, start)
    for field in ("x", "constraint_values", "multipliers"):
        assert getattr(report, field).tobytes() \
            == getattr(want, field).tobytes()
    assert (report.iterations, report.converged, report.kkt_residual,
            report.duality_gap, report.message) \
        == (want.iterations, want.converged, want.kkt_residual,
            want.duality_gap, want.message)


def test_primal_dual_loop_regularizes_a_singular_newton_system(monkeypatch):
    # when np.linalg.solve raises, the loop solves the system again with a
    # small ridge on its diagonal and goes on to the unpatched run's point
    objective, rows, start, _ = _step_problem(3.3, blend=0.75)
    want = minimize_linear(objective, rows, start)
    calls = _solve_failing_once(monkeypatch)
    report = minimize_linear(objective, rows, start)
    assert calls[:2] == [(start.size, start.size)] * 2
    assert report.converged
    # within the loop's gap and KKT tolerance
    assert np.allclose(report.x, want.x, rtol=0.0, atol=1e-9)


def test_papr_design_built_by_steps_reports_its_kkt_residual():
    # the last step's multipliers on the rows rebuilt at the design: a run
    # that stops at `tol` is stationary for the peak-constrained problem,
    # one stopped after two steps is not, and a design that keeps its seed
    # reports no residual
    flat, grid = flat_channel(1.0, 0.0, 4, 1), _grid(4)
    tr = optimize_papr(flat, 1e-4, 3.0, P4, grid)
    assert tr.stop_reason == "tol" and tr.step_solves > 0
    assert tr.kkt_residual <= 1e-9
    early = optimize_papr(flat, 1e-4, 3.0, P4, grid,
                          OptimizerOptions(max_iterations=2))
    assert early.stop_reason == "max_iter"
    assert early.kkt_residual > 1e3 * tr.kkt_residual
    seed = optimize_papr(flat_channel(1.0, 0.0, 2, 1), POWER, 2.0, P4,
                         _grid(2), OptimizerOptions(eps=1e-8,
                                                    max_iterations=40))
    assert seed.n_iterations == 0 and seed.kkt_residual is None


def test_papr_solver_fallback_reports_unconverged():
    # at eta = 2 the only feasible seed is the single-tone corner, whose
    # peak rows leave the step no interior: the run keeps its seed
    grid = _grid(2)
    tr = optimize_papr(flat_channel(1.0, 0.0, 2, 1), POWER, 2.0, P4, grid,
                       OptimizerOptions(eps=1e-8, max_iterations=40))
    assert tr.n_iterations == 0
    assert not tr.converged
    assert tr.stop_reason == "solver_fallback"


def test_papr_trace_counts_capped_and_refused_solves(monkeypatch):
    # with the primal-dual loop capped at 3 iterations every loop solve stops
    # unconverged, and the design still reports `tol` and a certificate:
    # only the trace's counts show the capped solves
    grid = _grid(4)
    flat = flat_channel(1.0, 0.0, 4, 1)
    full = optimize_papr(flat, 1e-4, 3.0, P4, grid)
    assert full.step_solves > 0 and full.step_iterations > 3 * full.step_solves
    assert full.step_unconverged == [] and full.step_refused == 0
    monkeypatch.setattr(interior, "_MAX_NEWTON", 3)
    capped = optimize_papr(flat, 1e-4, 3.0, P4, grid)
    assert capped.stop_reason == "tol" and capped.papr_certified
    assert capped.step_solves > 0
    assert capped.step_iterations == 3 * capped.step_solves
    assert capped.step_unconverged == ["iteration cap reached"] \
        * capped.step_solves
    # at eta = 2 the solver refuses the single-tone corner's start
    refused = optimize_papr(flat_channel(1.0, 0.0, 2, 1), POWER, 2.0, P4,
                            _grid(2), OptimizerOptions(eps=1e-8,
                                                       max_iterations=40))
    assert refused.stop_reason == "solver_fallback"
    assert (refused.step_solves, refused.step_refused) == (0, 1)
    # a design that meets the limit unconstrained runs no step
    unconstrained = optimize_papr(flat, 1e-4, 8.0, P4, grid)
    assert (unconstrained.step_solves, unconstrained.step_refused) == (0, 0)


def test_papr_sca_scores_each_point_once(monkeypatch):
    # after the unconstrained design, every point the PAPR SCA reaches (the
    # baselines, the seeds, each step's solution and the next anchor it is) is
    # scored once; equal baselines are one point
    scored = collections.Counter()
    after = []
    value_grad_hess = _WeightedDC.value_grad_hess
    aligned_design = optimizer._aligned_design

    def counting(obj, w, want_hess=False):
        if after:
            scored[w.tobytes()] += 1
        return value_grad_hess(obj, w, want_hess)

    def unconstrained(*args):
        trace = aligned_design(*args)
        after.append(trace)
        return trace

    monkeypatch.setattr(_WeightedDC, "value_grad_hess", counting)
    monkeypatch.setattr(optimizer, "_aligned_design", unconstrained)
    trace = optimize_papr(flat_channel(1.0, 0.0, 4, 1), 1e-4, 3.0, P4,
                          _grid(4))
    assert trace.step_solves > 0 and len(scored) > trace.step_solves
    assert set(scored.values()) == {1}


@pytest.mark.parametrize("n, m, seed, eta, power", [
    (3, 2, 6, 2.5, 1e-5),
    (8, 1, 14, 3.5, 1e-4),
])
def test_papr_designs_again_on_the_4x_grid_after_a_missed_peak(
        monkeypatch, n, m, seed, eta, power):
    # the unconstrained design fails the 4x check, so the SCA runs; round 1's
    # design meets eta on the design grid but not on the 4x grid, so round 2
    # designs again at eta with its peak rows on the 4x grid, which every
    # iterate then meets: the design is certified by construction
    opts = OptimizerOptions(eps=1e-8, max_iterations=40)
    fine = 4 * opts.papr_oversampling
    h = iid_frequency_channel(n, m, seed=seed)
    calls = []

    def recording(peaks, anchor, limit, floor):
        calls.append((peaks.shape[0], limit))
        return _step_rows(peaks, anchor, limit, floor)

    monkeypatch.setattr(optimizer, "_step_rows", recording)
    tr = optimize_papr(h, power, eta, P4, _grid(n), opts)
    assert calls and all(limit == eta for _, limit in calls)
    assert calls[-1][0] == m * n * fine
    assert tr.papr_certified
    worst = max(antenna_paprs(tr.waveform, fine).values())
    assert worst == tr.achieved_papr
    assert worst <= eta * (1 + 1e-6)
    # no limit below eta, so no fallback to the single-tone `ass`
    floored_ass = np.maximum(
        baseline_waveform("ass", h, power, _grid(n)).amplitudes,
        positivity_floor(power))
    assert tr.zdc > zdc_analytic(
        Waveform(floored_ass, optimal_phases(h), _grid(n)), h, P4)


def test_papr_baseline_at_the_limit_replaces_a_refused_design(monkeypatch):
    # a real, positive channel: the aligned phases are 0, so every grid
    # samples each antenna's peak at t = 0.  At eta = `mf`'s own PAPR, `mf`
    # sits at the limit and is a seed.  With every loop start refused, each
    # run keeps its seed, and the best run is `mf`'s, which scores higher,
    # certified and with its z
    h = ChannelRealization(np.array([[0.4, 1.0], [1.0, 0.7]], dtype=complex))
    grid, power = _grid(2), 1e-4
    opts = OptimizerOptions(eps=1e-8, max_iterations=40)
    s_mf = np.maximum(baseline_waveform("mf", h, power, grid).amplitudes,
                      positivity_floor(power))
    eta = max(antenna_paprs(Waveform(s_mf, np.zeros((2, 2)), grid),
                            opts.papr_oversampling).values())
    unconstrained = optimize(h, power, P4, grid, opts).waveform
    assert max(antenna_paprs(unconstrained, 32).values()) > eta * (1 + 1e-6)
    refused = []

    def refusing(*args):
        refused.append(args)
        raise InfeasibleStartError("start not strictly feasible")

    monkeypatch.setattr(optimizer, "minimize_linear", refusing)
    tr = optimize_papr(h, power, eta, P4, grid, opts)
    assert refused
    assert tr.waveform.amplitudes.tobytes() == s_mf.tobytes()
    assert tr.papr_certified
    assert tr.achieved_papr == pytest.approx(eta, rel=1e-12, abs=0)
    assert tr.zdc == pytest.approx(zdc_analytic(tr.waveform, h, P4),
                                   rel=1e-12, abs=0)
    floored_ass = np.maximum(
        baseline_waveform("ass", h, power, grid).amplitudes,
        positivity_floor(power))
    assert tr.zdc > zdc_analytic(Waveform(floored_ass, np.zeros((2, 2)), grid),
                                 h, P4)


def test_papr_warm_starts_skip_phase_one_and_match_the_baseline():
    # flat N = 2 at eta = 4: uniform power sits exactly at the limit (PAPR
    # 2N), so the design must score no lower than `up`
    grid = _grid(2)
    h = flat_channel(1.0, 0.0, 2, 1)
    tr = optimize_papr(h, POWER, 4.0, P4, grid,
                       OptimizerOptions(eps=1e-8, max_iterations=40))
    assert tr.papr_certified
    assert tr.zdc >= zdc_analytic(baseline_waveform("up", h, POWER, grid), h,
                                  P4)
    assert np.isclose(zdc_analytic(tr.waveform, h, P4), tr.zdc, rtol=1e-12)


def test_papr_runs_each_distinct_seed_once(monkeypatch):
    # iid(4, 1, seed 0) at 1e-4 W and eta = 4: the unconstrained design
    # exceeds the limit, every baseline meets it, and `upmf` is `up` on one
    # antenna, so the SCA runs from `mf`, `upmf` and `ass` only
    h, power, eta = iid_frequency_channel(4, 1, seed=0), 1e-4, 4.0
    opts = OptimizerOptions(eps=1e-8, max_iterations=40)
    unconstrained = optimize(h, power, P4, _grid(4), opts).waveform
    assert max(antenna_paprs(unconstrained, 32).values()) > eta * (1 + 1e-6)
    floor = positivity_floor(power)
    seeds = [np.maximum(w.amplitudes, floor)
             for w in _seed_waveforms(h, power, _grid(4))]
    assert np.allclose(seeds[1], seeds[3], rtol=1e-12, atol=0.0)
    monotone = optimizer._monotone
    starts = []

    def counting(*args):
        # the SCA's state is its anchor; the MM ascent's is (w, grad)
        if isinstance(args[1], np.ndarray):
            starts.append(args[1])
        return monotone(*args)

    monkeypatch.setattr(optimizer, "_monotone", counting)
    tr = optimize_papr(h, power, eta, P4, _grid(4), opts)
    assert len(starts) == 3
    for start, seed in zip(starts, seeds[:3]):
        assert np.array_equal(start, seed)
    assert tr.papr_certified


def test_papr_run_refused_mid_way_keeps_its_last_iterate(monkeypatch):
    # flat N = 4 at eta = 3: the `ass` run stops after one step, and the
    # blend run climbs.  The blend run's first step is the MM map, which
    # meets its peak rows, and its next steps run the primal-dual loop.  A
    # loop that refuses the run's second start ends that run at its second
    # iterate, the first loop solution, not its seed.
    minimize, monotone = optimizer.minimize_linear, optimizer._monotone
    runs, solves = [], []

    def per_run(*args):
        solves.append([])
        runs.append(monotone(*args))
        return runs[-1]

    def refusing(*args):
        if len(solves[-1]) == 1:
            raise InfeasibleStartError("start not strictly feasible")
        solves[-1].append(minimize(*args))
        return solves[-1][-1]

    monkeypatch.setattr(optimizer, "_monotone", per_run)
    monkeypatch.setattr(optimizer, "minimize_linear", refusing)
    tr = optimize_papr(flat_channel(1.0, 0.0, 4, 1), POWER, 3.0, P4,
                       _grid(4), OptimizerOptions(eps=1e-8, max_iterations=40))
    refused = [k for k, run in enumerate(runs) if run[2] == "solver_fallback"]
    assert len(refused) == 1
    state, history, _ = runs[refused[0]]
    assert len(history) == 3 and history[2] > history[0]
    # the loop works in the amplitudes scaled by 1/sqrt(2P)
    assert np.array_equal(state.ravel(),
                          np.sqrt(2.0 * POWER) * solves[refused[0]][0].x)
    assert tr.stop_reason == "solver_fallback" and tr.n_iterations == 2
    assert np.array_equal(tr.waveform.amplitudes, state)
    assert tr.papr_certified


def test_papr_limit_that_cannot_bind_returns_the_unconstrained_design(
        monkeypatch):
    # any N-tone waveform has PAPR <= 2N, so eta >= 2N cannot bind: the
    # design is `optimize`'s, byte for byte and certified, with no step
    minimize = optimizer.minimize_linear
    solves = []

    def counting(*args):
        solves.append(args)
        return minimize(*args)

    monkeypatch.setattr(optimizer, "minimize_linear", counting)
    opts = OptimizerOptions(eps=1e-8, max_iterations=40)
    cases = [(flat_channel(1.0, 0.0, 2, 1), 4.0)] + [
        (h, 1e6) for h in (flat_channel(1.0, 0.0, 8, 1),
                           iid_frequency_channel(8, 1, seed=1),
                           iid_frequency_channel(8, 1, seed=2))]
    for h, eta in cases:
        grid = _grid(h.h.shape[0])
        want = optimize(h, POWER, P4, grid, opts)
        tr = optimize_papr(h, POWER, eta, P4, grid, opts)
        assert tr.waveform.amplitudes.tobytes() \
            == want.waveform.amplitudes.tobytes()
        assert tr.waveform.phases.tobytes() == want.waveform.phases.tobytes()
        assert tr.zdc == want.zdc and tr.stop_reason == want.stop_reason
        assert tr.papr_certified
        assert tr.achieved_papr == max(
            antenna_paprs(tr.waveform, 4 * opts.papr_oversampling).values())
    assert not solves


@pytest.mark.parametrize("n, m, seed, power, eta", [
    (4, 2, 1, 1e-5, 4.0), (4, 1, 2, 1e-4, 3.0), (4, 2, 3, 1e-4, 6.0)])
def test_papr_design_never_loses_to_a_feasible_unconstrained_design(
        n, m, seed, power, eta):
    # the SCA from the feasible baselines alone stops at a seed, 7.5%, 11.7%
    # and 2.4% below the unconstrained design, which meets the limit
    h = iid_frequency_channel(n, m, seed=seed)
    opts = OptimizerOptions(eps=1e-8, max_iterations=40)
    unconstrained = optimize(h, power, P4, _grid(n), opts)
    tr = optimize_papr(h, power, eta, P4, _grid(n), opts)
    assert tr.papr_certified
    assert tr.zdc >= unconstrained.zdc
    assert np.isclose(zdc_analytic(tr.waveform, h, P4), tr.zdc, rtol=1e-12)
    assert max(antenna_paprs(tr.waveform, 32).values()) <= eta * (1 + 1e-6)


def _fig3_middle_problem():
    """(channel, power, params, grid, options) of `preset fig3-middle`."""
    cfg = cli.validate_config(dict(cli.default_config(), channel_type="flat",
                                   n_tones=8))
    return (flat_channel(1.0, 0.0, 8, 1), cli._power_w(cfg), cli._params(cfg),
            cli._grid(cfg), OptimizerOptions(eps=1e-7, max_iterations=40))


@pytest.mark.parametrize("problem", ["criterion 7", "fig3-middle"])
def test_papr_eta_two_returns_the_floored_ass_waveform(problem):
    # at eta = 2 the one seed's start is not strictly inside its peak rows;
    # the loop refuses it, and the design keeps the `ass` seed, floored,
    # bit for bit
    h, power, params, grid, opts = (
        _fig3_middle_problem() if problem == "fig3-middle"
        else (flat_channel(1.0, 0.0, 8, 1), POWER, P4, _grid(8),
              OptimizerOptions(eps=1e-8, max_iterations=40)))
    tr = optimize_papr(h, power, 2.0, params, grid, opts)
    want = np.maximum(baseline_waveform("ass", h, power, grid).amplitudes,
                      positivity_floor(power))
    assert tr.waveform.amplitudes.tobytes() == want.tobytes()
    assert tr.stop_reason == "solver_fallback"
    assert tr.n_iterations == 0


@pytest.mark.parametrize("eta", [4.0, 10.0])
def test_papr_solves_are_never_refused_away_from_eta_two(eta, monkeypatch):
    # criterion 7's iid designs: every start the design builds is strictly
    # inside, so no solve raises and every one converges
    minimize = optimizer.minimize_linear
    reports, refused = [], []

    def checked(*args):
        try:
            reports.append(minimize(*args))
        except InfeasibleStartError as e:  # the design would fall back silently
            refused.append(str(e))
            raise
        return reports[-1]

    monkeypatch.setattr(optimizer, "minimize_linear", checked)
    for seed in (1, 2):
        optimize_papr(iid_frequency_channel(8, 1, seed=seed), POWER, eta, P4,
                      _grid(8), OptimizerOptions(eps=1e-8, max_iterations=40))
    assert not refused, refused
    assert all(r.converged for r in reports)
    if eta == 10.0:
        # both unconstrained designs already meet this limit: no loop runs
        assert not reports
    else:
        assert reports


def test_kkt_residual_flags_saddle_corner():
    # from the `ass` weights the ascent stays on the single-tone corner, a
    # saddle 7.5% below the default design; its zero amplitudes carry no
    # log-gradient share, so only the corner terms of the residual see it
    h = iid_frequency_channel(4, 4, seed=9027).h
    eff = ChannelRealization(np.sqrt(np.sum(np.abs(h) ** 2, axis=1)))
    power = 1e-4
    w, history, _ = _mm_ascent(_WeightedDC([eff.h], [1.0], P4),
                               baseline_waveform("ass", eff, power,
                                                 _grid(4)).weights, power,
                               OptimizerOptions(max_iterations=1))
    best = optimize(eff, power, P4, _grid(4))
    assert np.count_nonzero(w) == 1
    assert history[-1] < 0.93 * best.zdc
    assert _kkt_residual_power_only(_WeightedDC([np.abs(eff.h)], [1.0], P4),
                                    np.abs(w), power) > 0.1
    assert best.kkt_residual <= 1e-5


def test_multi_reduces_to_single_rectenna():
    grid = _grid(8)
    h = iid_frequency_channel(8, 1, seed=4)
    t_single = optimize(h, POWER, P4, grid, TIGHT)
    t_multi = optimize_multi([h], [1.0], POWER, P4, grid,
                             OptimizerOptions(eps=1e-9, max_iterations=200))
    assert abs(t_multi.zdc - t_single.zdc) <= 1e-6 * t_single.zdc


def test_multi_duplicate_channels_double_single_objective():
    grid = _grid(4)
    h = iid_frequency_channel(4, 2, seed=21)
    t_single = optimize(h, POWER, P4, grid, TIGHT)
    t_multi = optimize_multi([h, h], [1.0, 1.0], POWER, P4, grid,
                             OptimizerOptions(eps=1e-10, max_iterations=300))
    assert abs(t_multi.zdc - 2 * t_single.zdc) <= 1e-6 * 2 * t_single.zdc


def test_multi_monotone_and_weight_scaling():
    grid = _grid(4)
    ch = iid_frequency_channel(4, 2, n_rectennas=2, seed=9)
    opts = OptimizerOptions(eps=1e-8, max_iterations=80)
    tr = optimize_multi(ch, [1.0, 1.0], POWER, P4, grid, opts)
    diffs = np.diff(tr.zdc_history)
    assert np.all(diffs >= -1e-10 * np.abs(tr.zdc_history[1:]))
    tr2 = optimize_multi(ch, [3.0, 3.0], POWER, P4, grid, opts)
    # positive weight scaling rescales the objective without moving the point
    assert abs(tr2.zdc - 3 * tr.zdc) <= 1e-6 * 3 * tr.zdc
    assert np.allclose(tr2.waveform.amplitudes, tr.waveform.amplitudes,
                       rtol=1e-4, atol=1e-9)


def test_multi_dominates_every_seed_exactly():
    opts = OptimizerOptions(eps=1e-8, max_iterations=80)
    weights = [1.0, 1.0]
    for seed in range(12):
        n, m = (3, 1) if seed % 2 == 0 else (4, 2)
        grid = _grid(n)
        ch = iid_frequency_channel(n, m, n_rectennas=2, seed=seed)
        chans = [ch.rectenna(0), ch.rectenna(1)]

        def weighted(w):
            return sum(v * zdc_analytic(w, c, P4)
                       for v, c in zip(weights, chans))

        trace = optimize_multi(ch, weights, POWER, P4, grid, opts)
        assert trace.zdc == weighted(trace.waveform)
        assert trace.zdc >= weighted(ass_multi(ch, weights, POWER, grid))
        for c in chans:
            for name in ("up", "ass", "mf", "upmf"):
                base = baseline_waveform(name, c, POWER, grid)
                assert trace.zdc >= weighted(base), (seed, name)


def test_multi_reports_the_mm_fixed_point_residual():
    # the returned weights w are a fixed point of the MM map
    # sqrt(2P) g / ||g|| exactly when the gradient g points along w, so
    # ||g/||g|| - w/||w|||| is small at a tight `tol` stop and larger after
    # one capped iteration
    ch = iid_frequency_channel(4, 2, n_rectennas=2, seed=2)
    tight = optimize_multi(ch, [1.0, 1.0], 1e-4, P4, _grid(4), TIGHT)
    assert tight.stop_reason == "tol" and tight.kkt_residual is not None
    assert tight.kkt_residual <= 1e-7
    capped = optimize_multi(ch, [1.0, 1.0], 1e-4, P4, _grid(4),
                            OptimizerOptions(max_iterations=1))
    assert capped.stop_reason == "max_iter" and capped.kkt_residual > 1e-3


def test_multi_single_rectenna_runs_ass_once(monkeypatch):
    # with U = 1, `ass_multi` returns `ass`, which is also a rectenna seed
    h = iid_frequency_channel(4, 2, seed=3)
    starts = []

    def counting(obj, w, power, options):
        starts.append(w)
        return _mm_ascent(obj, w, power, options)

    monkeypatch.setattr(optimizer, "_mm_ascent", counting)
    optimize_multi([h], [1.0], POWER, P4, _grid(4))
    single = baseline_waveform("ass", h, POWER, _grid(4)).weights
    assert len(starts) == 4
    assert sum(np.array_equal(w, single) for w in starts) == 1


def test_ass_multi_single_rectenna_exact_reduction():
    grid = _grid(6)
    h = iid_frequency_channel(6, 2, seed=5)
    w_multi = ass_multi([h], [1.0], POWER, grid)
    w_single = baseline_waveform("ass", h, POWER, grid)
    assert np.array_equal(w_multi.amplitudes, w_single.amplitudes)
    assert np.array_equal(w_multi.phases, w_single.phases)


def test_ass_multi_matches_eigendecomposition():
    grid = _grid(3)
    ch = iid_frequency_channel(3, 2, n_rectennas=2, seed=6)
    hs = [ch.rectenna(0).h, ch.rectenna(1).h]
    weights = np.array([0.4, 1.3])
    w = ass_multi(hs, weights, POWER, grid)
    best = int(np.argmax(np.sum(w.amplitudes ** 2, axis=1)))
    lam = []
    for n in range(3):
        stack = np.vstack([np.sqrt(weights[u]) * hs[u][n] for u in range(2)])
        lam.append(np.max(np.linalg.eigvalsh(stack.conj().T @ stack)))
    assert best == int(np.argmax(lam))
    # the chosen beam attains the principal gain
    stack = np.vstack([np.sqrt(weights[u]) * hs[u][best] for u in range(2)])
    v = (w.amplitudes[best] * np.exp(1j * w.phases[best])) / np.sqrt(2 * POWER)
    gain = np.linalg.norm(stack @ v) ** 2
    assert np.isclose(gain, max(lam), rtol=1e-10)


def test_ass_multi_orthogonal_tie_breaks_low():
    grid = _grid(2)
    h0 = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    h1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w = ass_multi([h0, h1], [1.0, 1.0], POWER, grid)
    assert np.sum(w.amplitudes[0] ** 2) > 0
    assert np.allclose(np.sum(w.amplitudes[1] ** 2), 0.0)


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(eps=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(max_iterations=0)
    with pytest.raises(ValueError):
        OptimizerOptions(papr_oversampling=1)
