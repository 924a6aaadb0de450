import numpy as np
import pytest

from multisine_wpt.channel import (ArrayConfig, FrequencyGrid,
                                   PowerDelayProfile, _complex_normal, _rng,
                                   _tap_gains,
                                   flat_channel, frequency_response,
                                   iid_frequency_channel, load_channel_text,
                                   multipath_channel, save_channel_text)


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([0.0, 1e-9]), np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([1e-9, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        PowerDelayProfile(np.array([0.0]), np.array([-1.0]))
    p = PowerDelayProfile.exponential()
    assert p.n_taps == 18
    assert abs(p.powers.sum() - 1.0) < 1e-12


def test_single_tap_moments_match_exponential_distribution():
    profile = PowerDelayProfile(np.zeros(1), np.ones(1))
    gains = _tap_gains(_rng(1), profile, 10 ** 6)
    a2 = np.abs(gains[:, 0]) ** 2
    # |gain|^2 is exponential(1): second moment 2, so var(a2) = 1, var(a4) = 20
    se2 = a2.std(ddof=1) / np.sqrt(a2.size)
    assert abs(a2.mean() - 1.0) < 3 * se2
    a4 = a2 ** 2
    se4 = a4.std(ddof=1) / np.sqrt(a4.size)
    assert abs(a4.mean() - 2.0) < 3 * se4


def test_profile_power_sum_montecarlo():
    profile = PowerDelayProfile.exponential()
    gains = _tap_gains(_rng(9), profile, 10 ** 5)
    total = np.sum(np.abs(gains) ** 2, axis=1)
    se = total.std(ddof=1) / np.sqrt(total.size)
    assert abs(total.mean() - 1.0) < 3 * se


def _grid(n=4):
    return FrequencyGrid(n, 100e6, 1e6)


def test_single_unit_path_gives_unit_response():
    ch = frequency_response(np.array([1.0 + 0j]), np.array([0.0]),
                            ArrayConfig(1), 0.3, _grid())
    assert np.allclose(ch.h, 1.0)


def test_broadside_ula_has_identical_antennas():
    ch = frequency_response(np.array([0.7 - 0.2j]), np.array([5e-9]),
                            ArrayConfig(2), np.pi / 2, _grid())
    assert np.allclose(ch.h[:, 0], ch.h[:, 1], rtol=0, atol=1e-15)


def test_first_antenna_free_of_array_phase():
    for theta in (0.1, 1.0, 2.5):
        ch = frequency_response(np.array([1.0 + 0j]), np.array([0.0]),
                                ArrayConfig(3), theta, _grid())
        assert np.allclose(ch.h[:, 0], 1.0)


def test_two_tap_response_matches_direct_sum():
    grid = FrequencyGrid(2, 50e6, 2e6)
    gains = np.array([0.5 + 0.1j, -0.3 + 0.8j])
    delays = np.array([1e-9, 40e-9])
    thetas = np.array([0.4, 2.0])
    array = ArrayConfig(2, spacing=0.03)
    ch = frequency_response(gains, delays, array, thetas, grid)
    c = 299_792_458.0
    for n, f in enumerate(grid.frequencies):
        for m in range(2):
            expected = 0.0
            for l in range(2):
                delta = 2 * np.pi * m * array.spacing * f / c * np.cos(thetas[l])
                expected += gains[l] * np.exp(1j * (-2 * np.pi * f * delays[l]
                                                    + delta))
            assert abs(ch.h[n, m] - expected) <= 1e-12 * abs(expected)


def test_response_linear_in_taps():
    grid = _grid(3)
    array = ArrayConfig(2)
    gains = np.array([0.2 + 1j, -0.5 + 0.4j])
    delays = np.array([3e-9, 11e-9])
    thetas = np.array([0.7, 1.9])
    h1 = frequency_response(gains[:1], delays[:1], array, thetas[0], grid).h
    h2 = frequency_response(gains[1:], delays[1:], array, thetas[1], grid).h
    hb = frequency_response(gains, delays, array, thetas, grid).h
    assert np.allclose(hb, h1 + h2, rtol=1e-12)


def test_mean_tone_power_equals_profile_power():
    profile = PowerDelayProfile.exponential(6, 10e-9, 30e-9)
    grid = _grid(2)
    trials = 10 ** 5
    # per-realization |h_n|^2 for M = 1 (array phases vanish on antenna 0)
    gains = _tap_gains(_rng(4), profile, trials)
    phases = np.exp(-1j * 2 * np.pi * np.outer(grid.frequencies,
                                               profile.delays))
    h = gains @ phases.T
    power = np.abs(h) ** 2
    se = power[:, 0].std(ddof=1) / np.sqrt(trials)
    assert abs(power[:, 0].mean() - 1.0) < 3 * se


def test_iid_channel_moments():
    ch = iid_frequency_channel(100, 4, seed=2)
    big = iid_frequency_channel(10 ** 5, 4, seed=3)
    sq = np.abs(big.h) ** 2
    se = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - 1.0) < 3 * se
    norms = np.sum(np.abs(big.h) ** 2, axis=1)
    se_n = norms.std(ddof=1) / np.sqrt(norms.size)
    assert abs(norms.mean() - 4.0) < 3 * se_n
    fourth = norms ** 2
    se_f = fourth.std(ddof=1) / np.sqrt(fourth.size)
    assert abs(fourth.mean() - 4.0 * 5.0) < 3 * se_f
    assert np.array_equal(iid_frequency_channel(8, 2, seed=5).h,
                          iid_frequency_channel(8, 2, seed=5).h)
    assert ch.n_antennas == 4


def test_complex_normal_draw_matches_the_complex_expression():
    # real parts first, then imaginary parts, scaled in place: the same
    # numbers as the expression that builds two complex temporaries
    for shape in [(5,), (7, 3, 2), (0, 4)]:
        rng = _rng(11, 3)
        want = (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        got = _complex_normal(_rng(11, 3), shape)
        assert got.dtype == complex and got.shape == shape
        assert np.array_equal(got, want)


def test_flat_channel_values():
    assert np.allclose(flat_channel(1.0, 0.0, 3, 2).h, 1.0)
    assert np.allclose(flat_channel(2.0, np.pi, 4).h, -2.0)
    ch = flat_channel(0.5, 1.1, 6, 2)
    assert np.ptp(np.abs(ch.h)) == 0.0


def test_multi_rectenna_shape_and_slicing():
    ch = iid_frequency_channel(4, 2, n_rectennas=3, seed=1)
    assert ch.n_rectennas == 3
    sub = ch.rectenna(1)
    assert sub.h.shape == (4, 2)
    with pytest.raises(ValueError):
        ch.require_single_rectenna()


def test_multipath_channel_deterministic():
    grid = _grid()
    profile = PowerDelayProfile.exponential(5)
    c1 = multipath_channel(profile, ArrayConfig(2), grid, seed=11, stream=2)
    c2 = multipath_channel(profile, ArrayConfig(2), grid, seed=11, stream=2)
    assert np.array_equal(c1.h, c2.h)
    c3 = multipath_channel(profile, ArrayConfig(2), grid, seed=11, stream=3)
    assert not np.array_equal(c1.h, c3.h)


def test_channel_text_roundtrip(tmp_path):
    ch = iid_frequency_channel(5, 3, seed=8)
    path = tmp_path / "chan.txt"
    save_channel_text(path, ch)
    back = load_channel_text(path)
    assert np.array_equal(back.h, ch.h)
