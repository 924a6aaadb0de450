"""Benchmark workloads: seeded inputs, the ops that use them, and checks.

A workload is a deterministic list of `fixed_ops` ops built from the run
seed; an untraced run repeats passes over it until its time is up.  The
seed draws the phases of the multipath channels, while their magnitudes
come from fixed draws: the designs depend on the magnitudes only, so the
seed changes every design's phases and outputs but not its cost, which
swings widely between magnitude draws and would swamp a comparison of two
commits.  Designs are requested by the strategy identifiers users
write in config files, through `cli.build_waveform`; the evaluation side
runs CLI commands in-process through `cli.main`.  Checks run outside the
timed region and never change what an op computes.

Which end-to-end metric each layer's per-layer metrics should move:

- rectenna.posynomial, gp.condense, gp.posy_eval: wall_s, op_p50_s and
  peak_rss_mb on `design`; nothing on `evaluate`.
- optimizer: wall_s and op_p50_s on `design` and `constrained`; its
  iter_cap_hits and unconverged also move zdc_gain on `constrained`.
- gp.solve: wall_s and op_p50_s on `constrained`; `design` never calls it.
- circuit.ensemble, circuit.trace: wall_s on `evaluate`; nothing on the
  design workloads.
- scaling.mc: wall_s and peak_rss_mb on `evaluate`.
- rectenna.eval, channel, cli: setup_s, plus small shares of wall_s on
  `evaluate` and `constrained`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from multisine_wpt import cli
from multisine_wpt.channel import (ArrayConfig, ChannelRealization,
                                   FrequencyGrid, PowerDelayProfile,
                                   flat_channel, load_channel_text,
                                   multipath_channel, save_channel_text)
from multisine_wpt.optimizer import ass_multi
from multisine_wpt.rectenna import (DiodeParams, RectennaParams,
                                    load_waveform_text, papr,
                                    save_waveform_text, zdc_analytic,
                                    zdc_time_average)

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_pdc.json")

CLOSED_FORM = ("ss", "up", "ass", "mf", "upmf", "maxpapr")
DOMINATED = ("up", "ass", "mf", "upmf")        # acceptance criterion 5
# Criterion 5 binds `opt` exactly.  `opt-decoupled` rebuilds its baseline
# seeds from tone powers and matched spatial weights, which reproduces them
# only to rounding (ulp-level shortfalls against `ass` occur at the seed
# commit), so it is held to dominance within 1e-12 relative.
DOMINANCE_SLACK = {"opt": 0.0, "opt-decoupled": 1e-12}
POWER_RTOL = 1e-9
PAPR_RTOL = 1e-6                               # acceptance criterion 7
MC_SIGMAS = 4.0                                # acceptance criterion 8
FIXED_CHANNEL_SEED = 0
ZDC_ORACLE_RTOL = 1e-9                         # acceptance criterion 1


@dataclass
class Op:
    """One timed call plus the untimed check of its result.

    `call(span)` runs the op; `span(name)` is a context manager the op
    wraps around its call into the package.  `check(result)` returns the
    op's result values and a failure message, or None when it passed.
    """

    kind: str
    size: dict
    call: Callable
    check: Callable


# ---------------------------------------------------------------------------
# inputs from config files, through the package's public API
# ---------------------------------------------------------------------------

def write_config(path: str, keys: dict) -> dict:
    """Write a `key = value` config file and read it back through the CLI."""
    with open(path, "w") as f:
        for key, value in keys.items():
            if isinstance(value, (list, tuple)):
                value = ", ".join(str(v) for v in value)
            f.write(f"{key} = {value}\n")
    return cli.validate_config(cli.parse_config_file(path))


def grid_of(cfg: dict) -> FrequencyGrid:
    n = cfg["n_tones"]
    spacing = cfg["bandwidth_hz"] / n
    return FrequencyGrid(n, cfg["carrier_multiple"] * spacing, spacing)


def params_of(cfg: dict) -> RectennaParams:
    diode = DiodeParams(i_s=cfg["diode_is_a"], ideality=cfg["diode_ideality"],
                        v_t=cfg["diode_vt_v"], r_ant=cfg["r_antenna_ohm"],
                        r_load=cfg["r_load_ohm"])
    return RectennaParams(diode, cfg["taylor_order"])


def power_of(cfg: dict) -> float:
    return 10.0 ** (cfg["power_dbm"] / 10.0) * 1e-3


def channel_of(cfg: dict, stream: int,
               phase_seed: int | None = None) -> ChannelRealization:
    """The realization the config describes; rectenna u uses stream*U + u.

    With `phase_seed`, every (tone, antenna) entry is turned by a phase drawn
    from (phase_seed, stream), the same for all rectennas.  The entry
    magnitudes, and with them the design problem of `opt`, `opt-decoupled`
    and `opt-multi` up to rounding, stay those of the drawn realization.
    """
    n, m, u = cfg["n_tones"], cfg["n_antennas"], cfg["n_rectennas"]
    if cfg["channel_type"] == "flat":
        return flat_channel(cfg["flat_amplitude"], cfg["flat_phase_rad"], n, m)
    profile = PowerDelayProfile.exponential(
        cfg["pdp_taps"], cfg["pdp_spacing_s"], cfg["pdp_decay_s"])
    hs = [multipath_channel(profile, ArrayConfig(m), grid_of(cfg),
                            cfg["seed"], stream * u + k).h for k in range(u)]
    if phase_seed is not None:
        rng = np.random.default_rng([phase_seed, stream])
        turn = np.exp(2j * np.pi * rng.random((n, m)))
        hs = [h * turn for h in hs]
    return ChannelRealization(hs[0] if u == 1 else np.stack(hs, axis=2))


def posynomial_terms(n: int, m: int, order: int) -> int:
    """Terms of the enumerated z_dc posynomial: sum over even orders i of
    (tone tuples with equal half sums) * M^i."""
    total = 0
    conv = np.ones(1)
    for half in range(1, order // 2 + 1):
        conv = np.convolve(conv, np.ones(n))
        total += int(round(float(np.sum(conv ** 2)))) * m ** (2 * half)
    return total


# ---------------------------------------------------------------------------
# design ops (design and constrained workloads)
# ---------------------------------------------------------------------------

def _antenna_paprs(waveform, oversampling):
    return [papr(waveform, ant, oversampling)
            for ant in range(waveform.n_antennas)
            if np.any(waveform.amplitudes[:, ant] > 0)]


def design_op(cfg: dict, strategy: str, stream: int,
              phase_seed: int | None = None) -> Op:
    """One `cli.build_waveform` design on a channel drawn from the config."""
    grid = grid_of(cfg)
    channel = channel_of(cfg, stream, phase_seed)
    n, m, u, order = (cfg["n_tones"], cfg["n_antennas"], cfg["n_rectennas"],
                      cfg["taylor_order"])
    size = {"strategy": strategy, "N": n, "M": m, "U": u, "order": order,
            "terms": u * posynomial_terms(
                n, 1 if strategy == "opt-decoupled" else m, order)}
    if strategy == "opt-papr":
        size["eta"] = cfg["papr_eta"]

    def call(span):
        with span("cli"):
            return cli.build_waveform(strategy, cfg, channel, grid)

    def check(result):
        return check_design(strategy, cfg, channel, grid, *result)

    return Op("design", size, call, check)


def check_design(strategy, cfg, channel, grid, waveform, meta):
    """Power budget, dominance (criterion 5) or PAPR limit (criterion 7);
    the gain over the best closed-form design meeting the same limits."""
    power = power_of(cfg)
    params = params_of(cfg)
    values = {"iterations": meta.get("iterations"),
              "converged": meta.get("converged")}
    if waveform.transmit_power > power * (1.0 + POWER_RTOL):
        return values, f"transmit power {waveform.transmit_power} > {power}"

    if strategy == "opt-multi":
        chans = [channel.rectenna(k) for k in range(channel.n_rectennas)]
        weights = cfg["weights"] or [1.0] * len(chans)
        ref = ass_multi(chans, weights, power, grid)
        z = sum(w * zdc_analytic(waveform, ch, params)
                for w, ch in zip(weights, chans))
        z_ref = sum(w * zdc_analytic(ref, ch, params)
                    for w, ch in zip(weights, chans))
        values.update(zdc=z, gain=z / z_ref)
        return values, None

    z = zdc_analytic(waveform, channel, params)
    values["zdc"] = z
    limit = cfg["papr_eta"] * (1.0 + PAPR_RTOL) \
        if strategy == "opt-papr" else math.inf
    if strategy == "opt-papr":
        worst = max(_antenna_paprs(waveform, cfg["papr_oversampling"]))
        values["papr"] = worst
        if worst > limit:
            return values, f"PAPR {worst} above eta {cfg['papr_eta']}"
    best = 0.0
    for name in CLOSED_FORM:
        try:
            base, _ = cli.build_waveform(name, cfg, channel, grid)
        except ValueError:       # maxpapr needs every tone gain nonzero
            continue
        z_base = zdc_analytic(base, channel, params)
        if strategy in DOMINANCE_SLACK and name in DOMINATED \
                and z < z_base * (1.0 - DOMINANCE_SLACK[strategy]):
            return values, f"z_dc {z} below baseline {name} {z_base}"
        if max(_antenna_paprs(base, cfg["papr_oversampling"])) <= limit:
            best = max(best, z_base)
    values["gain"] = z / best
    return values, None


def _designs(strategy, channel, count=1, **keys):
    """`count` pattern entries: strategy, channel kind, config keys."""
    return [(strategy, channel, keys)] * count


class DesignWorkload:
    """Unconstrained single-rectenna designs over a mix of (N, M, order).

    One 50-op list; op i runs on multipath draw i of the fixed channel seed,
    with its phases drawn from (run seed, i).  The two heaviest designs,
    (16, 2, 4) and (4, 2, 6), have about 40k posynomial terms each.
    """

    PATTERN = (_designs("opt", "rotated", n_tones=16, n_antennas=2)
               + _designs("opt", "rotated", n_tones=4, n_antennas=2,
                          taylor_order=6)
               + _designs("opt", "rotated", 2, n_tones=3, n_antennas=2,
                          taylor_order=6)
               + _designs("opt", "rotated", 5, n_tones=8, n_antennas=2)
               + _designs("opt", "rotated", 6, n_tones=6, n_antennas=2)
               + _designs("opt", "rotated", 6, n_tones=4, n_antennas=2)
               + _designs("opt", "rotated", 6, n_tones=8, n_antennas=1)
               + _designs("opt", "rotated", 5, n_tones=16, n_antennas=1)
               + _designs("opt", "rotated", 5, n_tones=4, n_antennas=1,
                          taylor_order=6)
               + _designs("opt-decoupled", "rotated", 4, n_tones=8,
                          n_antennas=2)
               + _designs("opt-decoupled", "rotated", 4, n_tones=16,
                          n_antennas=2)
               + _designs("opt-decoupled", "rotated", 5, n_tones=4,
                          n_antennas=2, taylor_order=6))
    WARM_UP = ("opt", "rotated", {"n_tones": 4, "n_antennas": 1})

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.fixed_ops = len(self.PATTERN)

    def make_op(self, i: int) -> Op:
        return self._op(i, *self.PATTERN[i])

    def warm_up_op(self) -> Op:
        return self._op(self.fixed_ops, *self.WARM_UP)

    def _op(self, i, strategy, channel, keys):
        keys = dict(keys, carrier_multiple=16 * keys["n_tones"],
                    seed=FIXED_CHANNEL_SEED)
        if channel == "flat":
            keys["channel_type"] = "flat"
        cfg = write_config(os.path.join(self.workdir, f"op{i}.cfg"), keys)
        if channel == "rotated":
            op = design_op(cfg, strategy, stream=i, phase_seed=self.seed)
        else:
            op = design_op(cfg, strategy, stream=0)
        op.size["channel"] = channel
        return op

    def gain(self, records):
        return _geometric_mean(r["value"].get("gain") for r in records)


class ConstrainedWorkload(DesignWorkload):
    """PAPR-limited designs and two-rectenna weighted-sum designs.

    The PAPR designs run on flat channels (the setting of the paper's
    peak-limit sweep) and on one fixed multipath draw, unrotated: the PAPR
    limit binds the transmitted phases, so a phase rotation would change
    the problem and its cost, which swings from 0.05 s to 8 s between
    channels.  The opt-multi designs run on rotated draws as in `design`.
    """

    PATTERN = ([("opt-papr", "flat", {"n_tones": 2, "n_antennas": 1,
                                      "papr_eta": eta})
                for eta in (2.0, 2.5, 3.0, 4.0, 6.0, 8.0)]
               + [("opt-papr", "flat", {"n_tones": 2, "n_antennas": 2,
                                        "papr_eta": eta})
                  for eta in (2.0, 2.5, 3.0, 6.0, 8.0)]
               + _designs("opt-papr", "flat", n_tones=3, n_antennas=1,
                          papr_eta=2.0)
               + _designs("opt-papr", "fixed", n_tones=2, n_antennas=1,
                          papr_eta=3.0)
               + _designs("opt-multi", "rotated", n_tones=2, n_antennas=1,
                          n_rectennas=2)
               + _designs("opt-multi", "rotated", n_tones=2, n_antennas=2,
                          n_rectennas=2))
    WARM_UP = ("opt-papr", "flat", {"n_tones": 2, "n_antennas": 1,
                                    "papr_eta": 6.0})


# ---------------------------------------------------------------------------
# evaluation-side CLI commands
# ---------------------------------------------------------------------------

def run_cli(argv):
    """cli.main with stdout captured; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _printed(text):
    """`name = value` lines printed by the evaluate and papr commands."""
    values = {}
    for line in text.splitlines():
        name, sep, value = line.partition(" = ")
        if sep:
            values[name.strip()] = float(value)
    return values


def _csv_rows(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _csv_bytes(directory):
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory) if name.endswith(".csv"))


# The rectifier ensemble runs at a carrier of 4 tone spacings instead of the
# CLI default of 16 * n_tones: the integrator's steps per period grow with
# carrier_multiple + n_tones - 1 (5 here against 33 by default).  It runs on
# one stored channel seed so that its P_dc can be checked against
# `reference_pdc.json`.
SIM_KEYS = {"n_tones": 2, "carrier_multiple": 4, "strategies": "up, ass, mf",
            "trials": 20, "channel_type": "multipath",
            "seed": FIXED_CHANNEL_SEED}
SIM_RTOL = 1e-4


def simulate_argv(config_path, out_dir):
    return ["simulate", config_path, "--out", out_dir, "--workers", "1",
            "--trace"]


def simulate_result(out_dir):
    return {row["strategy"]: float(row["mean_p_dc_w"])
            for row in _csv_rows(os.path.join(out_dir, "simulate.csv"))}


class EvaluateWorkload:
    """CLI evaluation commands: rectifier ensemble, Monte Carlo preset, and
    evaluate/papr on waveforms saved during set-up.

    The 56-op list is one `simulate` (three closed-form strategies, 20
    trials, with a time trace), one `preset table1` seeded by the run, and
    for each of six rotated channels `evaluate` of the saved opt and
    closed-form waveforms and `papr` of two of them.
    """

    CASES = ((8, 1), (4, 2), (6, 1), (4, 1), (5, 1), (3, 2))
    STRATEGIES = ("opt",) + CLOSED_FORM
    PAPR_STRATEGIES = ("opt", "ass")
    MC_TRIALS = 100_000
    fixed_ops = 2 + len(CASES) * (len(STRATEGIES) + len(PAPR_STRATEGIES))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.oracle = {}
        with open(REFERENCE_PATH) as f:
            self.reference = json.load(f)["p_dc_w"]
        self.cases = [self._save_case(c, n, m)
                      for c, (n, m) in enumerate(self.CASES)]

    def _save_case(self, c, n, m):
        """Config, channel text and one waveform file per strategy."""
        cfg_path = os.path.join(self.workdir, f"case{c}.cfg")
        cfg = write_config(cfg_path, {"n_tones": n, "n_antennas": m,
                                      "carrier_multiple": 16 * n,
                                      "seed": FIXED_CHANNEL_SEED})
        grid = grid_of(cfg)
        channel = channel_of(cfg, stream=c, phase_seed=self.seed)
        ch_path = os.path.join(self.workdir, f"case{c}-channel.txt")
        save_channel_text(ch_path, channel)
        waveforms = {}
        for strategy in self.STRATEGIES:
            waveform, _ = cli.build_waveform(strategy, cfg, channel, grid)
            waveforms[strategy] = os.path.join(
                self.workdir, f"case{c}-{strategy}.txt")
            save_waveform_text(waveforms[strategy], waveform)
        return {"cfg": cfg, "cfg_path": cfg_path, "channel": ch_path,
                "waveforms": waveforms, "N": n, "M": m}

    def make_op(self, i: int) -> Op:
        if i == 0:
            return self.simulate_op()
        if i == 1:
            return self.table1_op()
        case_no, slot = divmod(i - 2, len(self.STRATEGIES)
                               + len(self.PAPR_STRATEGIES))
        case = self.cases[case_no]
        if slot < len(self.STRATEGIES):
            return self.evaluate_op(case, self.STRATEGIES[slot])
        return self.papr_op(case,
                            self.PAPR_STRATEGIES[slot - len(self.STRATEGIES)])

    def warm_up_op(self) -> Op:
        return self.papr_op(self.cases[0], "opt")

    def simulate_op(self) -> Op:
        cfg_path = os.path.join(self.workdir, "simulate.cfg")
        write_config(cfg_path, SIM_KEYS)
        out_dir = os.path.join(self.workdir, "simulate")
        os.makedirs(out_dir, exist_ok=True)

        def call(span):
            with span("cli"):
                return run_cli(simulate_argv(cfg_path, out_dir))

        def check(result):
            code, _ = result
            if code != 0:
                return {}, f"simulate exit code {code}"
            p_dc = simulate_result(out_dir)
            values = {"p_dc_w": p_dc, "csv_bytes": _csv_bytes(out_dir)}
            for strategy, ref in self.reference.items():
                got = p_dc.get(strategy, math.nan)
                if not abs(got - ref) <= SIM_RTOL * abs(ref):
                    return values, (f"{strategy}: P_dc {got} differs from "
                                    f"reference {ref}")
            return values, None

        size = {"N": SIM_KEYS["n_tones"], "batch": SIM_KEYS["trials"],
                "strategies": 3}
        return Op("simulate", size, call, check)

    def table1_op(self) -> Op:
        out_dir = os.path.join(self.workdir, "table1")
        argv = ["preset", "table1", "--trials", str(self.MC_TRIALS),
                "--seed", str(self.seed), "--out", out_dir, "--workers", "1"]

        def call(span):
            with span("cli"):
                return run_cli(argv)

        def check(result):
            code, _ = result
            if code != 0:
                return {}, f"preset exit code {code}"
            worst = 0.0
            means = []
            for row in _csv_rows(os.path.join(out_dir, "table1.csv")):
                lo, hi = float(row["closed_form_low"]), \
                    float(row["closed_form_high"])
                mean, err = float(row["mc_mean"]), float(row["mc_stderr"])
                worst = max(worst, max(lo - mean, mean - hi, 0.0) / err)
                means.append(mean)
            values = {"mc_mean": means, "worst_sigma": worst,
                      "csv_bytes": _csv_bytes(out_dir)}
            if worst > MC_SIGMAS:
                return values, f"MC mean {worst:.2f} stderr off closed form"
            return values, None

        return Op("table1", {"trials": self.MC_TRIALS, "rows": 7}, call,
                  check)

    def _oracle(self, case, strategy):
        """Time-averaged z_dc (criterion 1 oracle) of a saved waveform."""
        key = (case["channel"], strategy)
        if key not in self.oracle:
            waveform = load_waveform_text(case["waveforms"][strategy])
            channel = load_channel_text(case["channel"])
            self.oracle[key] = (waveform, zdc_time_average(
                waveform, channel, params_of(case["cfg"])))
        return self.oracle[key]

    def evaluate_op(self, case, strategy) -> Op:
        argv = ["evaluate", case["waveforms"][strategy], "--channel",
                case["channel"], "--config", case["cfg_path"]]

        def call(span):
            with span("cli"):
                return run_cli(argv)

        def check(result):
            code, text = result
            if code != 0:
                return {}, f"evaluate exit code {code}"
            printed = _printed(text)
            waveform, z_ref = self._oracle(case, strategy)
            z, i_out = printed["zdc_a"], printed["iout_a"]
            values = {"strategy": strategy, "zdc": z}
            if abs(z - z_ref) > ZDC_ORACLE_RTOL * abs(z_ref):
                return values, f"z_dc {z} differs from time average {z_ref}"
            residual = _iout_residual(i_out, z, case["cfg"])
            if residual > 1e-9:
                return values, f"i_out fixed-point residual {residual}"
            failure = _papr_bounds(printed, waveform)
            return values, failure

        size = {"N": case["N"], "M": case["M"], "strategy": strategy}
        return Op("evaluate", size, call, check)

    def papr_op(self, case, strategy) -> Op:
        argv = ["papr", case["waveforms"][strategy], "--oversampling", "8"]

        def call(span):
            with span("cli"):
                return run_cli(argv)

        def check(result):
            code, text = result
            if code != 0:
                return {}, f"papr exit code {code}"
            printed = _printed(text)
            waveform, _ = self._oracle(case, strategy)
            values = {"papr": max(printed.values())}
            for ant in range(waveform.n_antennas):
                got = printed[f"papr_antenna_{ant}"]
                want = papr(waveform, ant, 8)
                if abs(got - want) > 1e-12 * want:
                    return values, f"antenna {ant}: PAPR {got} != {want}"
            return values, _papr_bounds(printed, waveform)

        size = {"N": case["N"], "M": case["M"], "strategy": strategy}
        return Op("papr", size, call, check)

    def gain(self, records):
        """CLI-evaluated z_dc of each case's opt waveform over its best
        closed-form waveform, as a geometric mean over the cases."""
        z = {}
        for r in records:
            if r["kind"] == "evaluate" and "zdc" in r["value"]:
                z[(r["size"]["N"], r["size"]["M"],
                   r["value"]["strategy"])] = r["value"]["zdc"]
        ratios = []
        for n, m in self.CASES:
            base = [z.get((n, m, s)) for s in CLOSED_FORM]
            if (n, m, "opt") in z and None not in base:
                ratios.append(z[(n, m, "opt")] / max(base))
        return _geometric_mean(ratios)


def _iout_residual(i_out, z, cfg):
    """Residual of the log-form output-current equation the CLI solves."""
    nvt = cfg["diode_ideality"] * cfg["diode_vt_v"]
    i_s = cfg["diode_is_a"]
    return abs(cfg["r_load_ohm"] * i_out / nvt + math.log(i_out + i_s)
               - math.log(i_s + z))


def _papr_bounds(printed, waveform):
    """Any sampled PAPR lies in (0, 2N]: the peak of a sum of N cosines is
    at most (sum s)^2 <= N * sum s^2, twice N times the mean power."""
    cap = 2.0 * waveform.n_tones * (1.0 + 1e-9)
    for name, value in printed.items():
        if name.startswith("papr_antenna_") and not 0.0 < value <= cap:
            return f"{name} = {value} outside (0, {cap}]"
    return None


def _geometric_mean(values):
    logs = [math.log(v) for v in values if v is not None and v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else math.nan


WORKLOADS = {"design": DesignWorkload, "constrained": ConstrainedWorkload,
             "evaluate": EvaluateWorkload}
