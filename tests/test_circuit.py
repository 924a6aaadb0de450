import numpy as np
import pytest

import multisine_wpt.circuit as circuit_module
from multisine_wpt.channel import FrequencyGrid, flat_channel, \
    iid_frequency_channel
from multisine_wpt.circuit import (CircuitParams, SteadyStateError,
                                   dc_operating_point,
                                   export_trace_csv, harvested_dc_power,
                                   simulate, simulate_ensemble)
from multisine_wpt.optimizer import baseline_waveform
from multisine_wpt.rectenna import Waveform, received_tone_coefficients

CIRCUIT = CircuitParams(c_out=100e-12)


def _step_constants(circuit, dt):
    """a = (dt/2C) i_s, b = (dt/2C)/R_L and 1/(n v_t) of the trapezoidal rule."""
    d = circuit.diode
    half = dt / (2.0 * circuit.c_out)
    return half * d.i_s, half / d.r_load, 1.0 / (d.ideality * d.v_t)


def _plain_period(v, vin, circuit, dt):
    """Oracle: one period of plain trapezoidal time stepping from state v.

    `vin` holds the drive at t = 0, dt, ..., K dt (rows: steps, columns:
    instances).  Each step solves (1+b) v' - a e' = (1-b) v + a e - 2a
    by Newton to rounding level.  Returns the end state and the mean of
    v_1..v_K.
    """
    a, b, inv_nvt = _step_constants(circuit, dt)
    total = np.zeros_like(v)
    for k in range(1, vin.shape[0]):
        c = (1.0 - b) * v + a * np.exp((vin[k - 1] - v) * inv_nvt) - 2.0 * a
        for _ in range(100):
            ae = a * np.exp((vin[k] - v) * inv_nvt)
            delta = ((1.0 + b) * v - ae - c) / (1.0 + b + ae * inv_nvt)
            v = v - delta
            if np.all(np.abs(delta) <= 1e-15 * np.maximum(np.abs(v), 1e-3)):
                break
        total += v
    return v, total / (vin.shape[0] - 1)


def _periodic_residual(trace, circuit):
    """max |R_k| of the periodic trapezoidal equations over a full trace."""
    a, b, inv_nvt = _step_constants(circuit, trace.dt)
    v = trace.v_out
    e = np.exp((trace.v_in - v) * inv_nvt)
    v_prev, e_prev = np.roll(v, 1), np.roll(e, 1)  # v_0 = v_K
    resid = (1 + b) * v - a * e - (1 - b) * v_prev - a * e_prev + 2 * a
    return float(np.abs(resid).max())


def _dc_waveform(v_in_target, grid_spacing=1e6):
    """Zero-frequency 'tone' so the rectifier sees a constant drive."""
    amp = v_in_target / np.sqrt(CIRCUIT.diode.r_ant)
    grid = FrequencyGrid(1, 0.0, grid_spacing)
    return Waveform(np.array([[amp]]), np.zeros((1, 1)), grid)


def test_zero_source_stays_at_zero():
    grid = FrequencyGrid(1, 16e6, 1e6)
    w = Waveform(np.zeros((1, 1)), np.zeros((1, 1)), grid)
    trace = simulate(w, flat_channel(1.0, 0.0, 1, 1), CIRCUIT)
    assert trace.steady
    assert abs(trace.period_mean_vout[-1]) < 1e-15


def test_initial_charge_decays():
    # small initial charge, zero drive: v_out decays below a nanovolt
    rc = CIRCUIT.diode.r_load * CIRCUIT.c_out
    dt = rc / 200.0
    steps = int(12 * rc / dt)
    v, _ = _plain_period(np.array([1e-4]), np.zeros((steps + 1, 1)),
                         CIRCUIT, dt)
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
        residual = d.i_s * np.expm1((v_src - v) / nvt) - v / d.r_load
        assert abs(residual) <= 1e-14
    for v_src in rng.uniform(0.0, 0.4, 20):
        v = dc_operating_point(float(v_src), CIRCUIT)
        residual = d.i_s * np.expm1((v_src - v) / nvt) - v / d.r_load
        assert abs(residual) <= 1e-14


def test_dc_operating_point_under_hard_drive():
    # Newton from below crawls along the exponential by n v_t per step;
    # the bracket still closes in well under the helper's iteration cap
    d = CIRCUIT.diode
    nvt = d.ideality * d.v_t
    previous = -np.inf
    for v_src in (1.0, 2.0, 5.0, 10.0):
        v = dc_operating_point(v_src, CIRCUIT)
        assert previous < v < v_src
        previous = v
        residual = d.i_s * np.expm1((v_src - v) / nvt) - v / d.r_load
        assert abs(residual) <= 1e-14


def test_simulation_agrees_with_dc_operating_point():
    target = 0.1
    w = _dc_waveform(target)
    trace = simulate(w, flat_channel(1.0, 0.0, 1, 1), CIRCUIT)
    assert trace.steady
    expected = dc_operating_point(target, CIRCUIT)
    assert abs(trace.period_mean_vout[-1] - expected) <= 1e-8


def test_step_halving_changes_power_below_a_tenth_percent():
    grid = FrequencyGrid(4, 32e6, 2e6)
    h = flat_channel(1.0, 0.0, 4, 1)
    w = baseline_waveform("up", h, 1e-5, grid)
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
        floor = -CIRCUIT.diode.i_s * CIRCUIT.diode.r_load - 1e-9
        assert trace.v_out.min() >= floor


def test_multisine_beats_single_sine_on_flat_channel():
    # the core rectifier nonlinearity, free of any Taylor truncation
    power = 1e-5
    grid = FrequencyGrid.from_bandwidth(8, 10e6, 16 * 8)
    h = flat_channel(1.0, 0.0, 8, 1)
    rows = [received_tone_coefficients(
        baseline_waveform(name, h, power, grid), h) for name in ("up", "ss")]
    (p_up, p_ss), steady = simulate_ensemble(np.array(rows), grid, CIRCUIT)
    assert steady
    assert p_up > p_ss


def test_ensemble_matches_single_runs():
    grid = FrequencyGrid(2, 32e6, 2e6)
    h = iid_frequency_channel(2, 1, seed=5)
    w = baseline_waveform("up", h, 1e-5, grid)
    r = received_tone_coefficients(w, h)
    p_batch, steady = simulate_ensemble(np.vstack([r, 0.5 * r]), grid, CIRCUIT)
    assert steady
    p_single = harvested_dc_power(simulate(w, h, CIRCUIT))
    assert np.isclose(p_batch[0], p_single, rtol=1e-9)
    assert p_batch[1] < p_batch[0]
    # one batch over the rows of several strategies, as the CLI runs them,
    # against each strategy's own run
    channels = [iid_frequency_channel(2, 1, seed=s) for s in range(3)]
    per_strategy = [np.array([received_tone_coefficients(
        baseline_waveform(name, ch, 1e-5, grid), ch) for ch in channels])
        for name in ("up", "ss")]
    p_all, steady = simulate_ensemble(np.vstack(per_strategy), grid, CIRCUIT)
    assert steady
    for rows, p_joint in zip(per_strategy, np.split(p_all, 2)):
        p_own, steady = simulate_ensemble(rows, grid, CIRCUIT)
        assert steady
        np.testing.assert_allclose(p_joint, p_own, rtol=1e-9, atol=0)


def test_periodic_solve_matches_long_plain_iteration():
    # RC = 16 us against a 0.5 us period: the plain period iteration crawls
    circuit = CircuitParams(c_out=10e-9)
    grid = FrequencyGrid(2, 8e6, 2e6)
    h = iid_frequency_channel(2, 1, seed=5)
    tones = np.array([received_tone_coefficients(
        baseline_waveform(name, h, 1e-5, grid), h) for name in ("up", "ss")])
    steps = 64
    dt = grid.period / steps
    t = dt * np.arange(steps + 1)
    vin = np.sqrt(circuit.diode.r_ant) \
        * np.real(np.exp(1j * np.outer(t, grid.omegas)) @ tones.T)
    v = np.zeros(2)
    means = []
    for _ in range(3000):
        v, mean = _plain_period(v, vin, circuit, dt)
        means.append(mean)
        if len(means) > 1 and np.all(np.abs(mean - means[-2])
                                     <= 1e-15 * np.abs(mean)):
            break
    else:
        pytest.fail("plain iteration did not settle")
    p_dc, steady = simulate_ensemble(tones, grid, circuit, dt=dt)
    assert steady
    np.testing.assert_allclose(np.sqrt(p_dc * circuit.diode.r_load), means[-1],
                               rtol=1e-9, atol=0)


def test_trace_satisfies_periodic_equations():
    grid = FrequencyGrid(4, 32e6, 2e6)
    h = flat_channel(1.0, 0.0, 4, 1)
    trace = simulate(baseline_waveform("up", h, 1e-5, grid), h, CIRCUIT)
    assert trace.steady
    # one full period, t = dt ... T, whose last point closes the loop
    assert trace.time.size == round(grid.period / trace.dt)
    assert np.isclose(trace.time[-1], grid.period, rtol=1e-14)
    v_scale = float(np.abs(trace.v_out).max())
    assert _periodic_residual(trace, CIRCUIT) <= 1e-14 * v_scale
    assert trace.period_mean_vout[-1] == pytest.approx(trace.v_out.mean(),
                                                       rel=1e-14, abs=0)


def test_newton_cap_hit_is_counted_and_refused(monkeypatch):
    monkeypatch.setattr(circuit_module, "_NEWTON_CAP", 1)
    grid = FrequencyGrid(4, 32e6, 2e6)
    h = flat_channel(1.0, 0.0, 4, 1)
    w = baseline_waveform("up", h, 1e-5, grid)
    trace = simulate(w, h, CIRCUIT)
    assert not trace.steady
    with pytest.raises(SteadyStateError, match="Newton cap"):
        harvested_dc_power(trace)
    _, steady = simulate_ensemble(received_tone_coefficients(w, h)[None, :],
                                  grid, CIRCUIT)
    assert not steady


def test_hard_drive_converges_or_is_refused():
    # a 30 V tone sampled 8 times a period: far outside the modeled regime,
    # the clipped Newton walks tens of volts from the peak-detector start
    grid = FrequencyGrid(1, 1e6, 1e6)
    amp = 30.0 / np.sqrt(CIRCUIT.diode.r_ant)
    w = Waveform(np.array([[amp]]), np.zeros((1, 1)), grid)
    h = flat_channel(1.0, 0.0, 1, 1)
    trace = simulate(w, h, CIRCUIT, dt=grid.period / 8)
    _, steady = simulate_ensemble(received_tone_coefficients(w, h)[None, :],
                                  grid, CIRCUIT, dt=grid.period / 8)
    assert steady == trace.steady
    if trace.steady:
        v_scale = float(np.abs(trace.v_out).max())
        assert _periodic_residual(trace, CIRCUIT) <= 1e-12 * v_scale
        assert harvested_dc_power(trace) > 0
    else:
        with pytest.raises(SteadyStateError, match="Newton cap"):
            harvested_dc_power(trace)


def test_chunk_size_leaves_each_row_unchanged(monkeypatch):
    grid = FrequencyGrid(2, 32e6, 2e6)
    channels = [iid_frequency_channel(2, 1, seed=s) for s in range(4)]
    rows = np.array([received_tone_coefficients(
        baseline_waveform(name, ch, 1e-5, grid), ch)
        for ch in channels for name in ("up", "ss")])
    p_one, steady = simulate_ensemble(rows, grid, CIRCUIT)
    assert steady
    steps = round(grid.period / simulate(
        baseline_waveform("up", channels[0], 1e-5, grid), channels[0],
        CIRCUIT).dt)
    for rows_per_chunk in (1, 3):
        monkeypatch.setattr(circuit_module, "_CHUNK_ENTRIES",
                            rows_per_chunk * steps)
        p_chunked, steady = simulate_ensemble(rows, grid, CIRCUIT)
        assert steady
        # the same rounding-level answer: BLAS may order the drive's sums
        # differently for another row count
        np.testing.assert_allclose(p_chunked, p_one, rtol=1e-14, atol=0)


def test_trace_export(tmp_path):
    grid = FrequencyGrid(2, 32e6, 2e6)
    h = flat_channel(1.0, 0.0, 2, 1)
    trace = simulate(baseline_waveform("up", h, 1e-5, grid), h, CIRCUIT)
    path = tmp_path / "trace.csv"
    export_trace_csv(trace, path, header_comment="two tones")
    lines = path.read_text().splitlines()
    assert lines[:2] == ["# two tones", "t_s,v_in_v,v_out_v,i_d_a"]
    assert len(lines) == 2 + trace.time.size
    last = [float(tok) for tok in lines[-1].split(",")]
    assert last == [trace.time[-1], trace.v_in[-1], trace.v_out[-1],
                    trace.i_d[-1]]


def test_circuit_params_validation():
    with pytest.raises(ValueError):
        CircuitParams(c_out=0.0)
