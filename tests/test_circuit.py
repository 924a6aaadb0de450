import numpy as np
import pytest

from multisine_wpt.channel import FrequencyGrid, flat_channel, \
    iid_frequency_channel
from multisine_wpt.circuit import (CircuitParams, SteadyStateError,
                                   _advance_period, _run_to_steady,
                                   dc_operating_point,
                                   export_trace_csv, harvested_dc_power,
                                   simulate, simulate_ensemble)
from multisine_wpt.optimizer import ss, up
from multisine_wpt.rectenna import Waveform, received_tone_coefficients

CIRCUIT = CircuitParams(c_out=100e-12)


def _dc_waveform(v_in_target, grid_spacing=1e6):
    """Zero-frequency 'tone' so the rectifier sees a constant drive."""
    amp = v_in_target / np.sqrt(CIRCUIT.diode.r_ant)
    grid = FrequencyGrid(1, 0.0, grid_spacing)
    return Waveform(np.array([[amp]]), np.zeros((1, 1)), grid)


def test_zero_source_stays_at_zero():
    grid = FrequencyGrid(1, 16e6, 1e6)
    w = Waveform(np.zeros((1, 1)), np.zeros((1, 1)), grid)
    trace = simulate(w, flat_channel(1.0, 0.0, 1, 1), CIRCUIT, max_periods=20)
    assert trace.steady
    assert abs(trace.period_mean_vout[-1]) < 1e-15


def test_initial_charge_decays():
    # small initial charge, zero drive: v_out decays below a nanovolt
    rc = CIRCUIT.load * CIRCUIT.c_out
    dt = rc / 200.0
    steps = int(12 * rc / dt)
    v = np.array([1e-4])
    tones = np.zeros((1, 1), dtype=complex)
    v = _advance_period(v, tones, np.array([0.0]), dt, steps, CIRCUIT,
                        np.sqrt(CIRCUIT.diode.r_ant), collect=False)[0]
    assert abs(v[0]) < 1e-9


def test_dc_operating_point_properties():
    assert dc_operating_point(0.0, CIRCUIT) == 0.0
    rng = np.random.default_rng(0)
    d = CIRCUIT.diode
    nvt = d.ideality * d.v_t
    previous = -np.inf
    for v_src in (0.02, 0.05, 0.1, 0.2, 0.5):
        v = dc_operating_point(v_src, CIRCUIT)
        assert v > previous  # monotone in the drive
        previous = v
        residual = d.i_s * np.expm1((v_src - v) / nvt) - v / CIRCUIT.load
        assert abs(residual) <= 1e-14
    for v_src in rng.uniform(0.0, 0.4, 20):
        v = dc_operating_point(float(v_src), CIRCUIT)
        residual = d.i_s * np.expm1((v_src - v) / nvt) - v / CIRCUIT.load
        assert abs(residual) <= 1e-14


def test_simulation_agrees_with_dc_operating_point():
    target = 0.1
    w = _dc_waveform(target)
    trace = simulate(w, flat_channel(1.0, 0.0, 1, 1), CIRCUIT,
                     max_periods=400)
    assert trace.steady
    expected = dc_operating_point(target, CIRCUIT)
    assert abs(trace.period_mean_vout[-1] - expected) <= 1e-8


def test_step_halving_changes_power_below_a_tenth_percent():
    grid = FrequencyGrid(4, 32e6, 2e6)
    w = up(grid, 1, 1e-5)
    h = flat_channel(1.0, 0.0, 4, 1)
    t1 = simulate(w, h, CIRCUIT)
    t2 = simulate(w, h, CIRCUIT, dt=t1.dt / 2)
    p1, p2 = harvested_dc_power(t1), harvested_dc_power(t2)
    assert abs(p1 - p2) <= 1e-3 * p1


def test_passivity_and_output_floor():
    grid = FrequencyGrid(4, 64e6, 4e6)
    rng = np.random.default_rng(1)
    for seed in range(3):
        h = iid_frequency_channel(4, 1, seed=seed)
        s = rng.uniform(0.0, 1.0, (4, 1))
        s *= np.sqrt(2e-5) / np.linalg.norm(s)
        w = Waveform(s, -np.angle(h.h), grid)
        trace = simulate(w, h, CIRCUIT)
        r = received_tone_coefficients(w, h)
        delivered = 0.5 * float(np.sum(np.abs(r) ** 2))
        assert harvested_dc_power(trace) <= delivered + 1e-12
        floor = -CIRCUIT.diode.i_s * CIRCUIT.load - 1e-9
        assert trace.v_out.min() >= floor


def test_multisine_beats_single_sine_on_flat_channel():
    # the core rectifier nonlinearity, free of any Taylor truncation
    power = 1e-5
    grid = FrequencyGrid.from_bandwidth(8, 10e6, 16 * 8)
    h = flat_channel(1.0, 0.0, 8, 1)
    rows = [received_tone_coefficients(wave(grid, 1, power), h)
            for wave in (up, ss)]
    (p_up, p_ss), steady = simulate_ensemble(np.array(rows), grid, CIRCUIT)
    assert steady
    assert p_up > p_ss


def test_ensemble_matches_single_runs():
    grid = FrequencyGrid(2, 32e6, 2e6)
    h = iid_frequency_channel(2, 1, seed=5)
    w = up(grid, 1, 1e-5)
    r = received_tone_coefficients(w, h)
    p_batch, steady = simulate_ensemble(np.vstack([r, 0.5 * r]), grid, CIRCUIT)
    assert steady
    p_single = harvested_dc_power(simulate(w, h, CIRCUIT))
    assert np.isclose(p_batch[0], p_single, rtol=1e-9)
    assert p_batch[1] < p_batch[0]
    # one batch over the rows of several strategies, as the CLI runs them,
    # against each strategy's own run
    channels = [iid_frequency_channel(2, 1, seed=s) for s in range(3)]
    per_strategy = [np.array([received_tone_coefficients(wave(grid, 1, 1e-5),
                                                         ch)
                              for ch in channels]) for wave in (up, ss)]
    p_all, steady = simulate_ensemble(np.vstack(per_strategy), grid, CIRCUIT)
    assert steady
    for rows, p_joint in zip(per_strategy, np.split(p_all, 2)):
        p_own, steady = simulate_ensemble(rows, grid, CIRCUIT)
        assert steady
        np.testing.assert_allclose(p_joint, p_own, rtol=1e-9, atol=0)


def test_shooting_matches_long_plain_iteration():
    # RC = 16 us against a 0.5 us period: the plain period iteration crawls
    circuit = CircuitParams(c_out=10e-9)
    grid = FrequencyGrid(2, 8e6, 2e6)
    h = iid_frequency_channel(2, 1, seed=5)
    tones = np.array([received_tone_coefficients(wave(grid, 1, 1e-5), h)
                      for wave in (up, ss)])
    dt = grid.period / 64
    sqrt_rant = np.sqrt(circuit.diode.r_ant)
    v = np.zeros(2)
    means = []
    plain_periods = None
    for period in range(3000):
        v, mean = _advance_period(v, tones, grid.omegas, dt, 64, circuit,
                                  sqrt_rant, collect=False)[:2]
        means.append(mean)
        if period == 0:
            continue
        change = np.abs(mean - means[-2])
        if plain_periods is None and np.all(change <= 1e-6 * np.abs(mean)):
            plain_periods = period + 1  # the steady test of `simulate`
        if np.all(change <= 1e-15 * np.abs(mean)):
            break
    else:
        pytest.fail("plain iteration did not settle")
    shot_means, steady, cap_hits, _, _, _ = _run_to_steady(
        tones, grid, circuit, 1e-6, 300, dt, collect_last=False)
    assert steady and cap_hits == 0
    assert 3 * shot_means.shape[1] <= plain_periods
    np.testing.assert_allclose(shot_means[:, -1], means[-1], rtol=1e-9, atol=0)


def test_newton_cap_hit_is_counted_and_refused():
    # a 30 V tone sampled 8 times a period moves v_out by more than the 60
    # clipped 0.2 V Newton steps a time step allows
    grid = FrequencyGrid(1, 1e6, 1e6)
    amp = 30.0 / np.sqrt(CIRCUIT.diode.r_ant)
    w = Waveform(np.array([[amp]]), np.zeros((1, 1)), grid)
    h = flat_channel(1.0, 0.0, 1, 1)
    trace = simulate(w, h, CIRCUIT, dt=grid.period / 8, max_periods=20)
    assert trace.newton_cap_hits > 0
    assert not trace.steady
    with pytest.raises(SteadyStateError, match="Newton cap"):
        harvested_dc_power(trace)
    _, steady = simulate_ensemble(received_tone_coefficients(w, h)[None, :],
                                  grid, CIRCUIT, max_periods=20,
                                  dt=grid.period / 8)
    assert not steady


def test_period_cap_flagged_and_power_refused():
    w = _dc_waveform(0.1)
    trace = simulate(w, flat_channel(1.0, 0.0, 1, 1), CIRCUIT, max_periods=1)
    assert not trace.steady
    with pytest.raises(SteadyStateError):
        harvested_dc_power(trace)


def test_trace_export(tmp_path):
    grid = FrequencyGrid(2, 32e6, 2e6)
    w = up(grid, 1, 1e-5)
    trace = simulate(w, flat_channel(1.0, 0.0, 2, 1), CIRCUIT)
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, path, decimation=4)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_s,v_in_v,v_out_v,i_d_a"
    assert len(lines) == 1 + (trace.time.size + 3) // 4
    with pytest.raises(ValueError):
        export_trace_csv(trace, path, decimation=0)


def test_circuit_params_validation():
    with pytest.raises(ValueError):
        CircuitParams(c_out=0.0)
    with pytest.raises(ValueError):
        CircuitParams(r_load=-5.0)
    assert CircuitParams(r_load=800.0).load == 800.0
    assert CircuitParams().load == 1600.0
