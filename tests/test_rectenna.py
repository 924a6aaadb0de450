import math

import numpy as np
import pytest

from multisine_wpt.channel import (FrequencyGrid, flat_channel,
                                   iid_frequency_channel)
from multisine_wpt.rectenna import (DCKernel, DiodeParams, RectennaParams,
                                    Waveform, _five_smooth, antenna_paprs,
                                    iout_fixed_point, load_waveform_text,
                                    papr,
                                    received_tone_coefficients,
                                    save_waveform_text, synthesize_transmit,
                                    taylor_coefficients, zdc_analytic,
                                    zdc_time_average)
from posynomial_oracle import (quartic_tuple_count, quartic_tuples,
                               sextic_tuples, zdc_posynomial)

DIODE = DiodeParams()
P4 = RectennaParams(DIODE, 4)


def _grid(n, carrier_multiple=100, spacing=1e6):
    return FrequencyGrid(n, carrier_multiple * spacing, spacing)


def _random_instance(rng, n, m, power=1e-5, aligned=False):
    h = iid_frequency_channel(n, m, seed=int(rng.integers(1 << 30)))
    s = rng.uniform(0.0, 1.0, (n, m))
    s *= np.sqrt(2 * power) / np.linalg.norm(s)
    phi = -np.angle(h.h) if aligned else rng.uniform(-np.pi, np.pi, (n, m))
    return Waveform(s, phi, _grid(n)), h


def test_taylor_coefficients_reference_values():
    k = taylor_coefficients(DIODE, 6)
    assert abs(k[0] - 0.0034) / 0.0034 < 0.005
    assert abs(k[1] - 0.3829) / 0.3829 < 0.005
    expected_k6 = DIODE.i_s / (720 * (DIODE.ideality * DIODE.v_t) ** 6)
    assert np.isclose(k[2], expected_k6, rtol=1e-15)
    assert 17.0 < k[2] < 17.7
    with pytest.raises(ValueError):
        taylor_coefficients(DIODE, 3)
    with pytest.raises(ValueError):
        taylor_coefficients(DIODE, 0)


def test_received_tones_single_antenna():
    grid = _grid(2)
    w = Waveform(np.array([[2.0], [2.0]]), np.zeros((2, 1)), grid)
    h = flat_channel(1.0, 0.0, 2, 1)
    r = received_tone_coefficients(w, h)
    assert np.allclose(r, 2.0)


def test_received_tones_aligned_phases_are_real():
    rng = np.random.default_rng(0)
    w, h = _random_instance(rng, 4, 3, aligned=True)
    r = received_tone_coefficients(w, h)
    assert np.allclose(r.imag, 0.0, atol=1e-18)
    assert np.allclose(r.real, np.sum(w.amplitudes * np.abs(h.h), axis=1))


def test_received_tones_match_direct_recomputation():
    rng = np.random.default_rng(1)
    w, h = _random_instance(rng, 5, 2)
    r = received_tone_coefficients(w, h)
    for n in range(5):
        direct = sum(h.h[n, m] * w.amplitudes[n, m]
                     * np.exp(1j * w.phases[n, m]) for m in range(2))
        assert abs(r[n] - direct) <= 1e-15


def test_zdc_flat_uniform_matches_closed_form():
    n, power = 4, 1e-5
    k2, k4 = P4.k
    s = np.full((n, 1), np.sqrt(2 * power / n))
    w = Waveform(s, np.zeros((n, 1)), _grid(n), power_budget=power)
    h = flat_channel(1.0, 0.0, n, 1)
    expected = (k2 * 50 * power
                + k4 * 2500 * (2 * n * n + 1) / (2 * n) * power ** 2)
    assert np.isclose(zdc_analytic(w, h, P4), expected, rtol=1e-13)


def test_zdc_single_tone_closed_form():
    power = 1e-5
    k2, k4 = P4.k
    w = Waveform(np.array([[np.sqrt(2 * power)]]), np.zeros((1, 1)), _grid(1))
    h = flat_channel(1.0, 0.0, 1, 1)
    expected = k2 * 50 * power + 1.5 * k4 * 2500 * power ** 2
    assert np.isclose(zdc_analytic(w, h, P4), expected, rtol=1e-13)


def test_zdc_zero_waveform_is_zero():
    w = Waveform(np.zeros((3, 2)), np.zeros((3, 2)), _grid(3))
    h = iid_frequency_channel(3, 2, seed=4)
    assert zdc_analytic(w, h, P4) == 0.0


def test_time_average_agrees_with_analytic():
    rng = np.random.default_rng(2)
    for order in (2, 4, 6):
        params = RectennaParams(DIODE, order)
        for _ in range(5):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 5))
            w, h = _random_instance(rng, n, m)
            za = zdc_analytic(w, h, params)
            zt = zdc_time_average(w, h, params)
            assert abs(za - zt) <= 1e-9 * max(abs(za), 1e-30)


def test_time_average_single_tone_second_moment():
    # one tone of amplitude a on a unit channel: E{y^2} = a^2/2 exactly
    a = 0.37
    params = RectennaParams(DIODE, 2)
    w = Waveform(np.array([[a]]), np.zeros((1, 1)), _grid(1))
    h = flat_channel(1.0, 0.0, 1, 1)
    k2 = params.k[0]
    assert np.isclose(zdc_time_average(w, h, params),
                      k2 * 50 * a * a / 2, rtol=1e-12)


def test_order_homogeneity_under_amplitude_scaling():
    rng = np.random.default_rng(3)
    w, h = _random_instance(rng, 4, 2)
    w2 = Waveform(2 * w.amplitudes, w.phases, w.grid)
    for order, scale in ((2, 4.0), (4, 16.0), (6, 64.0)):
        params = RectennaParams(DIODE, order)
        lower = RectennaParams(DIODE, order - 2) if order > 2 else None
        term = zdc_analytic(w, h, params) - (
            zdc_analytic(w, h, lower) if lower else 0.0)
        term2 = zdc_analytic(w2, h, params) - (
            zdc_analytic(w2, h, lower) if lower else 0.0)
        assert np.isclose(term2, scale * term, rtol=1e-12)


def test_time_average_requires_commensurate_grid():
    grid = FrequencyGrid(2, 100.5e6, 1e6)
    w = Waveform(np.ones((2, 1)), np.zeros((2, 1)), grid)
    h = flat_channel(1.0, 0.0, 2, 1)
    with pytest.raises(ValueError):
        zdc_time_average(w, h, P4)


def test_iout_fixed_point():
    assert iout_fixed_point(0.0, P4) == 0.0
    values = [iout_fixed_point(z, P4) for z in (1e-8, 1e-6, 1e-4)]
    assert values[0] < values[1] < values[2]
    rng = np.random.default_rng(5)
    d = P4.diode
    for z in rng.uniform(1e-9, 1e-3, 20):
        i = iout_fixed_point(z, P4)
        lhs = math.exp(d.r_load * i / (d.ideality * d.v_t)) * (i + d.i_s)
        assert abs(lhs - (d.i_s + z)) <= 1e-12 * (d.i_s + z)


def test_iout_fixed_point_keeps_relative_accuracy_for_tiny_drive():
    # for z_dc << i_s the root tends to z_dc / (1 + R_L i_s / (n v_t))
    d = P4.diode
    slope = 1.0 + d.r_load * d.i_s / (d.ideality * d.v_t)
    for z in (1e-20, 1e-18, 1e-16):  # O(z/i_s) corrections below 1e-10
        assert iout_fixed_point(z, P4) == pytest.approx(z / slope, rel=1e-10,
                                                        abs=0)


def test_transmit_synthesis():
    grid = _grid(1)
    w = Waveform(np.array([[1.0]]), np.zeros((1, 1)), grid)
    t = np.linspace(0, grid.period, 64, endpoint=False)
    assert np.allclose(synthesize_transmit(w, 0, t),
                       np.cos(grid.omegas[0] * t), rtol=0, atol=1e-12)
    # Parseval: time-average power over the period equals ||s||^2/2
    rng = np.random.default_rng(6)
    s = rng.uniform(0.1, 1.0, (4, 1))
    wf = Waveform(s, rng.uniform(-np.pi, np.pi, (4, 1)), _grid(4))
    tt = np.arange(40000) * (wf.grid.period / 40000)
    x = synthesize_transmit(wf, 0, tt)
    assert np.isclose(np.mean(x ** 2), 0.5 * float(s[:, 0] @ s[:, 0]),
                      rtol=1e-9)
    # superposition
    w1 = Waveform(s, np.zeros((4, 1)), wf.grid)
    s2 = rng.uniform(0.1, 1.0, (4, 1))
    w2 = Waveform(s2, np.zeros((4, 1)), wf.grid)
    wsum = Waveform(s + s2, np.zeros((4, 1)), wf.grid)
    tprobe = tt[:128]
    assert np.allclose(synthesize_transmit(wsum, 0, tprobe),
                       synthesize_transmit(w1, 0, tprobe)
                       + synthesize_transmit(w2, 0, tprobe), rtol=1e-12)


def test_papr_reference_values():
    w1 = Waveform(np.array([[0.7]]), np.zeros((1, 1)), _grid(1))
    assert np.isclose(papr(w1, 0), 2.0, rtol=1e-12)
    n = 8
    w8 = Waveform(np.ones((n, 1)), np.zeros((n, 1)), _grid(n))
    assert np.isclose(papr(w8, 0), 2 * n, rtol=1e-12)
    w8b = Waveform(3.7 * np.ones((n, 1)), np.zeros((n, 1)), _grid(n))
    assert np.isclose(papr(w8b, 0), papr(w8, 0), rtol=1e-13)
    with pytest.raises(ValueError):
        papr(Waveform(np.zeros((2, 1)), np.zeros((2, 1)), _grid(2)), 0)


def test_antenna_paprs_skips_silent_antennas():
    rng = np.random.default_rng(12)
    s = rng.uniform(0.1, 1.0, (4, 3))
    s[:, 1] = 0.0
    w = Waveform(s, rng.uniform(-np.pi, np.pi, (4, 3)), _grid(4))
    got = antenna_paprs(w, 5)
    assert list(got) == [0, 2]
    assert all(got[ant] == papr(w, ant, 5) for ant in got)


def test_quartic_tuple_enumeration():
    for n in range(1, 9):
        tuples = list(quartic_tuples(n))
        assert len(tuples) == quartic_tuple_count(n)
        assert all(a + b == c + d for a, b, c, d in tuples)
        assert len(set(tuples)) == len(tuples)
    assert quartic_tuple_count(2) == 6
    assert quartic_tuple_count(4) == 44


def test_sextic_tuples_consistent():
    tuples = list(sextic_tuples(3))
    assert all(sum(t[:3]) == sum(t[3:]) for t in tuples)
    assert len(set(tuples)) == len(tuples)


def test_posynomial_term_count_matches_index_sets():
    h = iid_frequency_channel(2, 1, seed=7)
    coeffs, _ = zdc_posynomial(h, P4)
    # N*M^2 quadratic terms plus the 6 quartic tuples
    assert coeffs.size == 2 + 6
    h4 = iid_frequency_channel(4, 1, seed=8)
    coeffs4, _ = zdc_posynomial(h4, P4)
    assert coeffs4.size == 4 + 44


def test_posynomial_evaluates_to_zdc():
    rng = np.random.default_rng(9)
    for order in (2, 4, 6):
        params = RectennaParams(DIODE, order)
        h = iid_frequency_channel(3, 2, seed=10)
        coeffs, expos = zdc_posynomial(h, params)
        for _ in range(5):
            s = rng.uniform(0.01, 2.0, (3, 2)) * 1e-3
            w = Waveform(s, -np.angle(h.h), _grid(3))
            value = np.sum(coeffs * np.prod(s.ravel() ** expos, axis=1))
            assert np.isclose(value, zdc_analytic(w, h, params), rtol=1e-12)


def test_dc_kernel_matches_enumerated_posynomial():
    """Value, log-gradient and log-Hessian of z_dc in the amplitudes, from
    the tone-domain kernel by the chain rule, against the posynomial."""
    rng = np.random.default_rng(17)
    for order in (2, 4, 6):
        params = RectennaParams(DIODE, order)
        kernel = DCKernel(params)
        for n in range(1, 6):
            for m in (1, 2):
                h = iid_frequency_channel(n, m, seed=100 * order + 10 * n + m)
                gains = np.abs(h.h)
                coeffs, expos = zdc_posynomial(h, params)
                s = rng.uniform(0.1, 1.0, (n, m)) * 1e-3
                z, g, hess = kernel.value_grad_hess(np.sum(gains * s, axis=1),
                                                    want_hess=True)
                w = Waveform(s, -np.angle(h.h), _grid(n))
                assert np.isclose(kernel.value(received_tone_coefficients(
                    w, h)), z, rtol=1e-13, atol=0.0)
                vals = coeffs * np.prod(s.ravel()[None, :] ** expos, axis=1)
                gamma = vals / vals.sum()
                b_ref = gamma @ expos
                hess_ref = expos.T @ (expos * gamma[:, None]) \
                    - np.outer(b_ref, b_ref)
                x = s.ravel()
                grad_s = (gains * g[:, None]).ravel()
                hess_s = np.einsum("nm,np,pq->nmpq", gains, hess,
                                   gains).reshape(n * m, n * m)
                b = x * grad_s / z
                hess_b = np.outer(x, x) * hess_s / z + np.diag(b) \
                    - np.outer(b, b)
                np.testing.assert_allclose(z, vals.sum(), rtol=1e-12, atol=0)
                np.testing.assert_allclose(b, b_ref, rtol=1e-12, atol=0)
                np.testing.assert_allclose(hess_b, hess_ref, rtol=0,
                                           atol=1e-12 * order)


def test_batch_rfft_of_real_rows_matches_complex_fft():
    # a real row's rfft holds its whole spectrum: bin 0 counts once, the
    # inner bins twice and an even length's Nyquist bin once.  Checked
    # against the complex FFT of the same rows at odd and even padded
    # lengths, on nonnegative rows (as the Monte Carlo draws them) and on
    # rows of either sign
    rng = np.random.default_rng(21)
    lengths = set()
    for order in (2, 4, 6):
        kernel = DCKernel(RectennaParams(DIODE, order))
        for n in (1, 2, 3, 8, 9, 256):
            lengths.add(_five_smooth(order // 2 * (n - 1) + 1))
            rows = np.vstack([rng.uniform(0.0, 4e-3, (4, n)),
                              rng.uniform(-4e-3, 4e-3, (4, n))])
            assert np.allclose(kernel.value(rows),
                               kernel.value(rows.astype(complex)),
                               rtol=1e-13, atol=0)
    assert {length % 2 for length in lengths} == {0, 1}
    # the fast length is the next 5-smooth one: N = 8 at order 4 keeps 15,
    # and N = 256 pads 511 to 512
    assert _five_smooth(15) == 15 and _five_smooth(511) == 512
    assert _five_smooth(7 * 11) == 80


def test_dc_kernel_complex_gradient_matches_central_differences():
    """For complex r the kernel's gradient is dz/d Re r + j dz/d Im r."""
    rng = np.random.default_rng(18)
    for order in (2, 4, 6):
        kernel = DCKernel(RectennaParams(DIODE, order))
        for n in (1, 3, 6):
            r = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 1e-2
            z, g, _ = kernel.value_grad_hess(r)
            assert z == kernel.value(r)
            step = 1e-6 * np.max(np.abs(r))
            fd = np.empty(n, dtype=complex)
            for k in range(n):
                e = np.zeros(n)
                e[k] = step
                fd[k] = ((kernel.value(r + e) - kernel.value(r - e))
                         + 1j * (kernel.value(r + 1j * e)
                                 - kernel.value(r - 1j * e))) / (2 * step)
            np.testing.assert_allclose(g, fd, rtol=0,
                                       atol=1e-7 * np.max(np.abs(g)))


def test_aligned_phases_maximize_zdc():
    rng = np.random.default_rng(11)
    h = iid_frequency_channel(4, 2, seed=12)
    s = rng.uniform(0.1, 1.0, (4, 2)) * 1e-3
    best = zdc_analytic(Waveform(s, -np.angle(h.h), _grid(4)), h, P4)
    for _ in range(100):
        phi = rng.uniform(-np.pi, np.pi, (4, 2))
        z = zdc_analytic(Waveform(s, phi, _grid(4)), h, P4)
        assert z <= best + 1e-12 * best


def test_waveform_power_budget_enforced():
    s = np.ones((2, 1))
    with pytest.raises(ValueError):
        Waveform(s, np.zeros((2, 1)), _grid(2), power_budget=0.5)
    Waveform(s, np.zeros((2, 1)), _grid(2), power_budget=1.0)  # exactly met
    with pytest.raises(ValueError):
        Waveform(-s, np.zeros((2, 1)), _grid(2))


def test_waveform_text_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    s = rng.uniform(0, 1e-3, (5, 3))
    phi = rng.uniform(-np.pi, np.pi, (5, 3))
    w = Waveform(s, phi, FrequencyGrid(5, 5.18e9, 1e6 / 3), power_budget=1e-5)
    path = tmp_path / "wave.txt"
    save_waveform_text(path, w)
    back = load_waveform_text(path)
    assert np.array_equal(back.amplitudes, w.amplitudes)
    assert np.array_equal(back.phases, w.phases)
    assert back.grid == w.grid
    assert back.power_budget == w.power_budget
    # round-trip again through a second file: byte-identical serialization
    path2 = tmp_path / "wave2.txt"
    save_waveform_text(path2, back)
    assert path.read_text() == path2.read_text()
