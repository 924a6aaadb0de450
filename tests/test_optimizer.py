import numpy as np
import pytest

from multisine_wpt.channel import (ChannelRealization, FrequencyGrid,
                                   flat_channel, iid_frequency_channel)
from multisine_wpt.optimizer import (OptimizerOptions, ass, ass_multi,
                                     baseline_waveform, max_papr, mf,
                                     optimal_phases, optimize,
                                     optimize_decoupled, optimize_multi,
                                     optimize_papr, ss, toy_n2, up, upmf)
from multisine_wpt.rectenna import (DiodeParams, RectennaParams, papr,
                                    received_tone_coefficients, zdc_analytic)

P4 = RectennaParams()
POWER = 1e-5
TIGHT = OptimizerOptions(eps=1e-13, max_iterations=500)


def _grid(n):
    return FrequencyGrid(n, 100e6, 1e6)


def test_optimal_phases():
    assert np.allclose(optimal_phases(flat_channel(1.0, 0.0, 3, 2)), 0.0)
    h = ChannelRealization(np.full((2, 1), np.exp(1j * np.pi / 3)))
    assert np.allclose(optimal_phases(h), -np.pi / 3)
    hr = iid_frequency_channel(4, 2, seed=0)
    w = upmf(hr, POWER, _grid(4))
    r = received_tone_coefficients(w, hr)
    assert np.allclose(np.angle(r[np.abs(r) > 0]), 0.0, atol=1e-12)


def test_ass_selects_strongest_tone():
    h = ChannelRealization(np.array([[1.0], [2.0], [0.5]], dtype=complex))
    w = ass(h, POWER, _grid(3))
    assert w.amplitudes[1, 0] == pytest.approx(np.sqrt(2 * POWER))
    assert np.all(w.amplitudes[[0, 2], 0] == 0.0)
    # flat channel: tie breaks to tone 0
    wf = ass(flat_channel(1.0, 0.0, 4, 1), POWER, _grid(4))
    assert wf.amplitudes[0, 0] > 0 and np.all(wf.amplitudes[1:, 0] == 0.0)
    # received power equals P * ||h_nbar||^2 (second-order term check)
    tones = received_tone_coefficients(w, h)
    assert np.isclose(0.5 * np.sum(np.abs(tones) ** 2), POWER * 4.0,
                      rtol=1e-12)
    with pytest.raises(ValueError):
        ass(ChannelRealization(np.zeros((2, 1), dtype=complex)), POWER, _grid(2))


def test_up_and_ss_amplitudes():
    w = up(_grid(4), 1, POWER)
    assert np.allclose(w.amplitudes, np.sqrt(2 * POWER / 4))
    assert np.allclose(w.phases, 0.0)
    w2 = ss(_grid(4), 2, POWER)
    assert np.isclose(w2.transmit_power, POWER, rtol=1e-12)
    assert np.all(w2.amplitudes[1:] == 0.0)


def test_mf_proportional_to_gains():
    h = ChannelRealization(np.array([[1.0], [2.0]], dtype=complex))
    w = mf(h, POWER, _grid(2))
    assert np.isclose(w.amplitudes[1, 0] / w.amplitudes[0, 0], 2.0, rtol=1e-12)
    assert np.isclose(w.transmit_power, POWER, rtol=1e-12)


def test_max_papr_equalizes_received_tones():
    h = iid_frequency_channel(8, 1, seed=1)
    w = max_papr(h, POWER, _grid(8))
    r = received_tone_coefficients(w, h)
    assert np.allclose(np.abs(r), np.abs(r[0]), rtol=1e-12)
    assert np.isclose(w.transmit_power, POWER, rtol=1e-12)
    # equal in-phase received tones hit the maximum envelope PAPR of 2N
    y_peak = np.sum(np.abs(r))
    mean_power = 0.5 * np.sum(np.abs(r) ** 2)
    assert np.isclose(y_peak ** 2 / mean_power, 16.0, rtol=1e-12)
    dead = ChannelRealization(np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(ValueError):
        max_papr(dead, POWER, _grid(2))


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


def test_joint_and_decoupled_dominate_exactly():
    # channels on which rounding once left the decoupled design an ulp
    # below `ass`
    grid = _grid(8)
    for seed in (16, 43, 47, 58):
        h = iid_frequency_channel(8, 2, seed=seed)
        for design in (optimize, optimize_decoupled):
            trace = design(h, POWER, P4, grid)
            assert trace.zdc == zdc_analytic(trace.waveform, h, P4)
            for name in ("up", "ass", "mf", "upmf"):
                base = baseline_waveform(name, h, POWER, grid)
                assert trace.zdc >= zdc_analytic(base, h, P4), (seed, name)


def test_decoupled_equals_joint_for_single_antenna():
    grid = _grid(4)
    h = iid_frequency_channel(4, 1, seed=3)
    t1 = optimize(h, POWER, P4, grid, TIGHT)
    t2 = optimize_decoupled(h, POWER, P4, grid, TIGHT)
    assert np.isclose(t1.zdc, t2.zdc, rtol=1e-12)


def test_decoupled_matches_joint_multi_antenna():
    grid = _grid(4)
    for seed in range(6):
        h = iid_frequency_channel(4, 2, seed=200 + seed)
        t1 = optimize(h, POWER, P4, grid, TIGHT)
        t2 = optimize_decoupled(h, POWER, P4, grid, TIGHT)
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


def test_ass_multi_single_rectenna_exact_reduction():
    grid = _grid(6)
    h = iid_frequency_channel(6, 2, seed=5)
    w_multi = ass_multi([h], [1.0], POWER, grid)
    w_single = ass(h, POWER, grid)
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
