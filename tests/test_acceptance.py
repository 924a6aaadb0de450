"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them) and enforces the criterion's stated tolerance.  Criteria that carry
a runtime budget assert it too.
"""

import time

import numpy as np

from multisine_wpt.channel import (ArrayConfig, ChannelRealization,
                                   FrequencyGrid, PowerDelayProfile,
                                   flat_channel, iid_frequency_channel,
                                   multipath_channel)
from multisine_wpt.circuit import CircuitParams, simulate_ensemble
from multisine_wpt.optimizer import (OptimizerOptions, ass_multi,
                                     baseline_waveform, optimize,
                                     optimize_multi, optimize_papr, toy_n2)
from multisine_wpt.rectenna import (DiodeParams, RectennaParams, Waveform,
                                    papr, received_tone_coefficients,
                                    taylor_coefficients, zdc_analytic,
                                    zdc_time_average)
from multisine_wpt.scaling import (ScalingScenario, closed_form, harmonic_h,
                                   harmonic_s, monte_carlo)
from harmonic_oracle import harmonic_h_alternating, harmonic_s_alternating

DIODE = DiodeParams()
P4 = RectennaParams(DIODE, 4)
POWER = 1e-5


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _grid(n: int, carrier_multiple: int = 100) -> FrequencyGrid:
    return FrequencyGrid(n, carrier_multiple * 1e6, 1e6)


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 5))
        order = (2, 4, 6)[trial % 3]
        params = RectennaParams(DIODE, order)
        h = iid_frequency_channel(n, m, seed=int(rng.integers(1 << 30)))
        s = rng.uniform(0.0, 1.0, (n, m))
        s *= np.sqrt(2 * POWER) / max(np.linalg.norm(s), 1e-12)
        w = Waveform(s, rng.uniform(-np.pi, np.pi, (n, m)), _grid(n))
        za = zdc_analytic(w, h, params)
        zt = zdc_time_average(w, h, params)
        worst = max(worst, abs(za - zt) / max(abs(za), 1e-30))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    _verdict(1, ok, f"analytic vs time-average over 200 instances: worst "
                    f"rel diff {worst:.2e} (<=1e-9), {elapsed:.1f}s (<60s)")


def test_criterion_02_taylor_coefficients():
    k = taylor_coefficients(DiodeParams(i_s=5e-6, ideality=1.05,
                                        v_t=25.86e-3), 4)
    rel2 = abs(k[0] - 0.0034) / 0.0034
    rel4 = abs(k[1] - 0.3829) / 0.3829
    ok = rel2 < 0.005 and rel4 < 0.005
    _verdict(2, ok, f"k2={k[0]:.6f} ({rel2:.2%} off 0.0034), "
                    f"k4={k[1]:.6f} ({rel4:.2%} off 0.3829), both <0.5%")


def test_criterion_03_two_tone_exactness():
    grid = _grid(2)
    power = 1e-4
    opts = OptimizerOptions(eps=1e-13, max_iterations=500)
    worst = 0.0
    for a1 in np.linspace(0.5, 1.5, 21):
        ch = ChannelRealization(np.array([[1.0], [a1]], dtype=complex))
        _, z_star = toy_n2(1.0, a1, power, P4)
        trace = optimize(ch, power, P4, grid, opts)
        worst = max(worst, abs(trace.zdc - z_star) / z_star)
    ok = worst <= 1e-6
    _verdict(3, ok, f"two-tone sweep vs stationary-point enumeration: "
                    f"worst rel diff {worst:.2e} (<=1e-6)")


def _hundred_traces():
    grid = _grid(8)
    opts = OptimizerOptions(eps=1e-11, max_iterations=300)
    out = []
    for seed in range(100):
        h = iid_frequency_channel(8, 2, seed=5000 + seed)
        out.append((h, optimize(h, POWER, P4, grid, opts)))
    return grid, out


def test_criterion_04_and_05_sca_contract_and_dominance():
    grid, runs = _hundred_traces()
    worst_dip = 0.0
    worst_kkt = 0.0
    dominated = True
    margin = np.inf
    for h, trace in runs:
        hist = trace.zdc_history
        dips = np.diff(hist) / np.abs(hist[1:])
        worst_dip = min(0.0, float(dips.min())) if dips.size else worst_dip
        worst_kkt = max(worst_kkt, trace.kkt_residual)
        for name in ("up", "ass", "mf", "upmf"):
            z_base = zdc_analytic(baseline_waveform(name, h, POWER, grid),
                                  h, P4)
            margin = min(margin, trace.zdc - z_base)
            if trace.zdc < z_base:
                dominated = False
    ok4 = worst_dip >= -1e-10 and worst_kkt <= 1e-5
    _verdict(4, ok4, f"100 SCA runs: worst iterate dip {worst_dip:.2e} "
                     f"(>=-1e-10), worst KKT residual {worst_kkt:.2e} "
                     f"(<=1e-5)")
    _verdict(5, dominated, f"per-realization dominance over up/ass/mf/upmf "
                           f"on 100 runs (min margin {margin:.2e})")


def test_criterion_06_decoupling_equivalence():
    opts = OptimizerOptions(eps=1e-11, max_iterations=300)
    worst = 0.0
    for idx in range(50):
        m = 2 if idx % 2 == 0 else 4
        grid = _grid(4)
        h = iid_frequency_channel(4, m, seed=9000 + idx)
        # matched beamforming leaves one antenna of per-tone gain ||h_n||
        effective = ChannelRealization(np.linalg.norm(h.h, axis=1)[:, None])
        z1 = optimize(h, POWER, P4, grid, opts).zdc
        z2 = optimize(effective, POWER, P4, grid, opts).zdc
        worst = max(worst, abs(z1 - z2) / z1)
    ok = worst <= 1e-4
    _verdict(6, ok, f"joint vs effective-channel design on 50 instances: "
                    f"worst rel gap {worst:.2e} (<=1e-4)")


def test_criterion_07_papr_feasibility_and_limit():
    grid = _grid(8)
    opts = OptimizerOptions(eps=1e-8, max_iterations=40)
    tight = OptimizerOptions(eps=1e-13, max_iterations=500)
    channels = [flat_channel(1.0, 0.0, 8, 1),
                iid_frequency_channel(8, 1, seed=1),
                iid_frequency_channel(8, 1, seed=2)]
    worst_violation = 0.0
    for h in channels:
        for eta in (2.0, 4.0, 10.0):
            trace = optimize_papr(h, POWER, eta, P4, grid, opts)
            for ant in range(trace.waveform.n_antennas):
                ratio = papr(trace.waveform, ant, opts.papr_oversampling) / eta
                worst_violation = max(worst_violation, ratio - 1.0)
    gap = 0.0
    for h in channels:
        z_unconstrained = optimize(h, POWER, P4, grid, tight).zdc
        z_loose = optimize_papr(h, POWER, 1e6, P4, grid, opts).zdc
        gap = max(gap, abs(z_loose - z_unconstrained) / z_unconstrained)
    ok = worst_violation <= 1e-6 and gap <= 1e-3
    _verdict(7, ok, f"peak-constrained designs: worst sampled-PAPR excess "
                    f"{worst_violation:.2e} (<=1e-6), loose-limit gap to "
                    f"unconstrained {gap:.2e} (<=1e-3)")


def test_criterion_08_scaling_laws():
    start = time.monotonic()
    trials = 100_000
    checks = []

    def within(sc, reference, seed):
        mean, err = monte_carlo(sc, trials, seed)
        checks.append(abs(mean - reference) / err)

    within(ScalingScenario("up", "flat", 8),
           closed_form(ScalingScenario("up", "flat", 8)), seed=31)
    within(ScalingScenario("ss", "flat", 1),
           closed_form(ScalingScenario("ss", "flat", 1)), seed=32)
    fixed_ref = closed_form(ScalingScenario("up", "selective", 2))
    for i, n in enumerate((2, 8, 32)):
        within(ScalingScenario("up", "selective", n), fixed_ref, seed=33 + i)
    k2, k4 = P4.k
    t2, t4 = k2 * 50 * POWER, k4 * 2500 * POWER ** 2
    ass_ref = t2 * harmonic_h(4) + 3 * t4 * harmonic_s(4)
    within(ScalingScenario("ass", "selective", 4), ass_ref, seed=36)
    within(ScalingScenario("upmf", "flat", 8, 2),
           closed_form(ScalingScenario("upmf", "flat", 8, 2)), seed=37)
    within(ScalingScenario("upmf", "flat", 4, 4),
           closed_form(ScalingScenario("upmf", "flat", 4, 4)), seed=38)
    elapsed = time.monotonic() - start
    worst = max(checks)
    ok = worst <= 4.0 and elapsed < 300.0
    _verdict(8, ok, f"{len(checks)} Monte Carlo scaling checks at 1e5 "
                    f"trials: worst deviation {worst:.2f} sigma (<=4), "
                    f"{elapsed:.0f}s (<300s)")


def test_criterion_09_multi_rectenna_reduction():
    grid = _grid(8)
    h = iid_frequency_channel(8, 2, seed=77)
    z_single = optimize(h, POWER, P4, grid,
                        OptimizerOptions(eps=1e-11, max_iterations=300)).zdc
    z_multi = optimize_multi([h], [1.0], POWER, P4, grid,
                             OptimizerOptions(eps=1e-9,
                                              max_iterations=200)).zdc
    rel = abs(z_multi - z_single) / z_single
    w_multi = ass_multi([h], [1.0], POWER, grid)
    w_single = baseline_waveform("ass", h, POWER, grid)
    exact = (np.array_equal(w_multi.amplitudes, w_single.amplitudes)
             and np.array_equal(w_multi.phases, w_single.phases))
    ok = rel <= 1e-6 and exact
    _verdict(9, ok, f"single-rectenna reduction: weighted-sum optimizer gap "
                    f"{rel:.2e} (<=1e-6), single-tone design identical: "
                    f"{exact}")


def test_criterion_10_circuit_ordering():
    start = time.monotonic()
    profile = PowerDelayProfile.exponential()
    array = ArrayConfig(1)
    circuit = CircuitParams(DIODE, c_out=100e-12)
    opts = OptimizerOptions(eps=1e-7, max_iterations=60)

    def ensemble(n_tones, strategies, trials):
        grid = FrequencyGrid.from_bandwidth(n_tones, 10e6, 16 * n_tones)
        rows = {s: [] for s in strategies}
        for t in range(trials):
            ch = multipath_channel(profile, array, grid, seed=424242,
                                   stream=t)
            for s in strategies:
                if s == "opt":
                    w = optimize(ch, POWER, P4, grid, opts).waveform
                else:
                    w = baseline_waveform(s, ch, POWER, grid)
                rows[s].append(received_tone_coefficients(w, ch))
        means = {}
        for s in strategies:
            p_dc, steady = simulate_ensemble(np.array(rows[s]), grid, circuit)
            assert steady, f"{s}: steady state not reached"
            means[s] = float(np.mean(p_dc))
        return means

    means16 = ensemble(16, ("opt", "up", "ass"), trials=100)
    means1 = ensemble(1, ("opt", "up", "ass", "mf"), trials=20)
    spread1 = (max(means1.values()) - min(means1.values())) \
        / max(means1.values())
    elapsed = time.monotonic() - start
    ordered = means16["opt"] > means16["up"] and means16["opt"] > means16["ass"]
    ok = ordered and spread1 <= 0.01 and elapsed < 900.0
    _verdict(10, ok,
             f"rectifier ensemble (100 draws, 16 tones): OPT "
             f"{means16['opt']:.3e} > UP {means16['up']:.3e} and > ASS "
             f"{means16['ass']:.3e}; single-tone spread {spread1:.2e} "
             f"(<=1%), {elapsed:.0f}s (<900s)")


def test_criterion_11_harmonic_quantities():
    exact = harmonic_h(4) == 25 / 12 and harmonic_s(2) == 7 / 4
    worst = 0.0
    for n in range(1, 16):
        worst = max(worst,
                    abs(harmonic_h(n) - harmonic_h_alternating(n))
                    / harmonic_h(n),
                    abs(harmonic_s(n) - harmonic_s_alternating(n))
                    / harmonic_s(n))
    ok = exact and worst <= 1e-9
    _verdict(11, ok, f"H_4=25/12 and S_2=7/4 exact: {exact}; recursive vs "
                     f"alternating forms to N=15: worst rel {worst:.2e} "
                     f"(<=1e-9)")
