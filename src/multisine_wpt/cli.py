"""Command-line front end: experiments, presets and CSV emission.

Configuration is a plain ``key = value`` text file ('#' starts a comment).
Keys carry explicit units in their names; unknown keys and malformed
values are reported by name.  Exit codes: 0 success, 2 configuration or
input error (unreadable or malformed waveform/channel files, mismatched
shapes), 3 solver failure, 4 simulation non-convergence.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import math
import os
import sys

import numpy as np

from .channel import (ArrayConfig, ChannelRealization, FrequencyGrid,
                      PowerDelayProfile, flat_channel, iid_frequency_channel,
                      load_channel_text, multipath_channel, save_channel_text)
from .circuit import (CircuitParams, SteadyStateError, simulate,
                      simulate_ensemble)
from .optimizer import (CLOSED_FORM, OptimizerOptions, baseline_waveform,
                        optimize, optimize_multi, optimize_papr, toy_n2)
from .rectenna import (DCKernel, DiodeParams, RectennaParams, Waveform,
                       antenna_paprs, iout_fixed_point, load_waveform_text,
                       papr_basis, received_tone_coefficients,
                       save_waveform_text, worst_papr, zdc_analytic)
from .scaling import ScalingScenario, closed_form, monte_carlo_many


class ConfigError(Exception):
    pass


class InputError(Exception):
    """A waveform or channel file that is missing, malformed or mismatched."""


def _parse_strategies(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):  # nan and inf set nothing
        raise ValueError(raw)
    return value


# key -> (parser, default)
_SCHEMA = {
    "channel_type": (str, "multipath"),          # multipath | iid | flat
    "n_tones": (int, 8),
    "n_antennas": (int, 1),
    "n_rectennas": (int, 1),
    "bandwidth_hz": (_finite, 10e6),
    "carrier_multiple": (int, 0),                # f0/spacing; 0 = 16*n_tones
    "power_dbm": (_finite, -20.0),
    "taylor_order": (int, 4),
    "strategies": (_parse_strategies, ["opt"]),
    "weights": (lambda s: [_finite(t) for t in s.split(",")], None),
    "trials": (int, 100),
    "seed": (int, 1),
    "regime": (str, "selective"),                # scaling only
    "flat_amplitude": (_finite, 1.0),
    "flat_phase_rad": (_finite, 0.0),
    "pdp_taps": (int, 18),
    "pdp_spacing_s": (_finite, 20e-9),
    "pdp_decay_s": (_finite, 60e-9),
    "papr_eta": (_finite, 0.0),                  # opt-papr only; >= 2
    "papr_oversampling": (int, 8),
    "sca_eps": (_finite, 1e-8),
    "sca_max_iterations": (int, 100),
    "diode_is_a": (_finite, 5e-6),
    "diode_ideality": (_finite, 1.05),
    "diode_vt_v": (_finite, 25.86e-3),
    "r_antenna_ohm": (_finite, 50.0),
    "r_load_ohm": (_finite, 1600.0),
    "c_out_f": (_finite, 100e-12),
}

# `opt-decoupled` names `opt`'s design, which is also the decoupled one
# (see `optimize`)
_KNOWN_STRATEGIES = (*CLOSED_FORM, "opt", "opt-decoupled", "opt-papr",
                     "opt-multi")


def default_config() -> dict:
    return {k: v for k, (_, v) in _SCHEMA.items()}


def parse_config_file(path: str) -> dict:
    cfg = default_config()
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        parser = _SCHEMA[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value for key '{key}': {value!r}") from None
    return cfg


def validate_config(cfg: dict) -> dict:
    """Check every key, building once each object the config describes; a
    value its constructor rejects is a ConfigError naming the object's keys."""
    if cfg["channel_type"] not in ("multipath", "iid", "flat"):
        raise ConfigError("channel_type must be multipath, iid or flat")
    if not cfg["strategies"]:
        raise ConfigError("key 'strategies' names no strategy")
    for s in cfg["strategies"]:
        if s not in _KNOWN_STRATEGIES:
            raise ConfigError(f"unknown strategy '{s}' in key 'strategies'")
    if cfg["n_tones"] < 1 or cfg["n_antennas"] < 1 or cfg["n_rectennas"] < 1:
        raise ConfigError("n_tones, n_antennas, n_rectennas must be >= 1")
    if cfg["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    if cfg["regime"] not in ("flat", "selective"):
        raise ConfigError("regime must be flat or selective")
    if cfg["flat_amplitude"] < 0:
        raise ConfigError("flat_amplitude must be >= 0")
    if cfg["weights"] is not None and (min(cfg["weights"]) < 0
                                       or max(cfg["weights"]) <= 0):
        raise ConfigError("weights must be nonnegative, not all zero")
    if "opt-papr" in cfg["strategies"] and cfg["papr_eta"] < 2.0:
        raise ConfigError("opt-papr requires key 'papr_eta' >= 2")
    if cfg["channel_type"] == "flat" and cfg["n_rectennas"] > 1:
        raise ConfigError("n_rectennas must be 1 with channel_type = flat")
    if "opt-multi" in cfg["strategies"] and cfg["weights"] is not None \
            and len(cfg["weights"]) != cfg["n_rectennas"]:
        raise ConfigError("key 'weights' must list one weight per rectenna")
    for keys, build in (
            (("bandwidth_hz", "carrier_multiple"), _grid),
            (("diode_is_a", "diode_ideality", "diode_vt_v", "r_antenna_ohm",
              "r_load_ohm", "taylor_order"), _params),
            (("sca_eps", "sca_max_iterations", "papr_oversampling"), _options),
            (("c_out_f",), _circuit),
            (("pdp_taps", "pdp_spacing_s", "pdp_decay_s"), _profile)):
        try:
            build(cfg)
        except ValueError as e:
            raise ConfigError(f"{', '.join(keys)}: {e}") from None
    return cfg


def _grid(cfg: dict) -> FrequencyGrid:
    return FrequencyGrid.from_bandwidth(
        cfg["n_tones"], cfg["bandwidth_hz"],
        cfg["carrier_multiple"] or 16 * cfg["n_tones"])


def _power_w(cfg: dict) -> float:
    return 10.0 ** (cfg["power_dbm"] / 10.0) * 1e-3


def _params(cfg: dict) -> RectennaParams:
    diode = DiodeParams(i_s=cfg["diode_is_a"], ideality=cfg["diode_ideality"],
                        v_t=cfg["diode_vt_v"], r_ant=cfg["r_antenna_ohm"],
                        r_load=cfg["r_load_ohm"])
    return RectennaParams(diode, cfg["taylor_order"])


def _profile(cfg: dict) -> PowerDelayProfile:
    return PowerDelayProfile.exponential(cfg["pdp_taps"], cfg["pdp_spacing_s"],
                                         cfg["pdp_decay_s"])


def _channel(cfg: dict, grid: FrequencyGrid, stream: int) -> ChannelRealization:
    kind = cfg["channel_type"]
    if kind == "flat":
        return flat_channel(cfg["flat_amplitude"], cfg["flat_phase_rad"],
                            grid.n_tones, cfg["n_antennas"])
    if kind == "iid":
        return iid_frequency_channel(grid.n_tones, cfg["n_antennas"],
                                     cfg["n_rectennas"], cfg["seed"], stream)
    array = ArrayConfig(cfg["n_antennas"])
    if cfg["n_rectennas"] == 1:
        return multipath_channel(_profile(cfg), array, grid, cfg["seed"], stream)
    per_user = [multipath_channel(_profile(cfg), array, grid, cfg["seed"],
                                  stream * cfg["n_rectennas"] + u).h
                for u in range(cfg["n_rectennas"])]
    return ChannelRealization(np.stack(per_user, axis=2))


def _options(cfg: dict) -> OptimizerOptions:
    return OptimizerOptions(eps=cfg["sca_eps"],
                            max_iterations=cfg["sca_max_iterations"],
                            papr_oversampling=cfg["papr_oversampling"])


def build_waveform(strategy: str, cfg: dict, channel: ChannelRealization,
                   grid: FrequencyGrid) -> tuple[Waveform, dict]:
    """Waveform for a CLI strategy identifier plus run metadata."""
    power = _power_w(cfg)
    params = _params(cfg)
    opts = _options(cfg)
    meta = {"iterations": 0, "converged": True, "stop_reason": "closed_form"}
    if strategy in CLOSED_FORM:
        return baseline_waveform(strategy, channel.rectenna(0), power,
                                 grid), meta
    if strategy in ("opt", "opt-decoupled"):
        trace = optimize(channel, power, params, grid, opts)
    elif strategy == "opt-papr":
        trace = optimize_papr(channel, power, cfg["papr_eta"], params, grid, opts)
    elif strategy == "opt-multi":
        weights = cfg["weights"] or [1.0] * channel.n_rectennas
        channels = [channel.rectenna(u) for u in range(channel.n_rectennas)]
        trace = optimize_multi(channels, weights, power, params, grid, opts)
    else:
        raise ConfigError(f"unknown strategy '{strategy}'")
    meta.update(iterations=trace.n_iterations, converged=trace.converged,
                stop_reason=trace.stop_reason)
    return trace.waveform, meta


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: str, header_comment: str | None, columns: list[str],
               rows) -> None:
    """The one CSV writer: a `# header_comment` line unless it is None, the
    column names, then one line per row, written as one string."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    lines = [] if header_comment is None else [f"# {header_comment}\n"]
    lines.append(",".join(columns) + "\n")
    lines += [",".join(map(_fmt, row)) + "\n" for row in rows]
    with open(path, "w") as f:
        f.write("".join(lines))


def _report_rows(cfg: dict, waveform: Waveform,
                 channel: ChannelRealization, meta: dict) -> tuple:
    params = _params(cfg)
    z = zdc_analytic(waveform, channel.rectenna(0), params)
    worst = worst_papr(waveform.amplitudes, waveform.phases,
                       papr_basis(waveform.grid, cfg["papr_oversampling"]))
    return (z, iout_fixed_point(z, params), worst,
            meta["iterations"], meta["converged"], meta["stop_reason"])


def _one_rectenna(cfg: dict, what: str) -> None:
    if cfg["n_rectennas"] > 1:
        raise ConfigError(f"n_rectennas = {cfg['n_rectennas']}: {what} for "
                          "one rectenna")


def cmd_optimize(args) -> int:
    cfg = _command_config(args)
    if {"opt", "opt-decoupled", "opt-papr"} & set(cfg["strategies"]):
        _one_rectenna(cfg, "opt, opt-decoupled and opt-papr design")
    grid = _grid(cfg)
    channel = _channel(cfg, grid, stream=0)
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    rows = []
    for strategy in cfg["strategies"]:
        waveform, meta = build_waveform(strategy, cfg, channel, grid)
        save_waveform_text(os.path.join(out, f"waveform_{strategy}.txt"),
                           waveform)
        rows.append((strategy,) + _report_rows(cfg, waveform, channel, meta))
    save_channel_text(os.path.join(out, "channel.txt"), channel.rectenna(0))
    _write_csv(os.path.join(out, "optimize_report.csv"),
               "single-realization waveform designs",
               ["strategy", "zdc_a", "iout_a", "papr", "iterations",
                "converged", "stop_reason"], rows)
    print(f"wrote {len(rows)} waveform(s) and optimize_report.csv to {out}/")
    return 0


def _load_input(loader, path):
    """Read a waveform or channel text file; any failure is an input error."""
    try:
        return loader(path)
    except (OSError, ValueError) as e:
        raise InputError(f"{path}: {e}") from None


def cmd_evaluate(args) -> int:
    cfg = _command_config(args)
    waveform = _load_input(load_waveform_text, args.waveform)
    if args.channel:
        channel = _load_input(load_channel_text, args.channel)
    else:
        _one_rectenna(cfg, "a waveform is evaluated")
        channel = _channel(cfg, waveform.grid, stream=0)
    if channel.h.shape != waveform.amplitudes.shape:
        raise InputError(f"channel shape {channel.h.shape} differs from "
                         f"waveform shape {waveform.amplitudes.shape}")
    params = _params(cfg)
    z = zdc_analytic(waveform, channel, params)
    i_out = iout_fixed_point(z, params)
    print(f"zdc_a = {_fmt(z)}")
    print(f"iout_a = {_fmt(i_out)}")
    for ant, value in antenna_paprs(waveform,
                                    cfg["papr_oversampling"]).items():
        print(f"papr_antenna_{ant} = {_fmt(value)}")
    return 0


def cmd_papr(args) -> int:
    if args.oversampling < 2:
        raise ConfigError("--oversampling must be >= 2")
    waveform = _load_input(load_waveform_text, args.waveform)
    paprs = antenna_paprs(waveform, args.oversampling)
    for ant in range(waveform.n_antennas):
        value = _fmt(paprs[ant]) if ant in paprs else "undefined (zero power)"
        print(f"papr_antenna_{ant} = {value}")
    return 0


def _scaling_rows(trials: int, seed: int, specs, **kwargs) -> list[tuple]:
    """(closed-form low, high, Monte Carlo mean, stderr) of the
    `ScalingScenario(*spec, **kwargs)` of each spec, from one Monte Carlo
    run over all of them; a closed form that is a single value gives
    low = high.  A value `scaling` rejects is a ConfigError naming the keys
    the scenarios and the trials come from."""
    try:
        scenarios = [ScalingScenario(*spec, **kwargs) for spec in specs]
        mcs = monte_carlo_many(scenarios, trials, seed)
    except ValueError as e:
        raise ConfigError("strategies, regime, n_tones, n_antennas, "
                          f"taylor_order, trials: {e}") from None
    rows = []
    for sc, mc in zip(scenarios, mcs):
        cf = closed_form(sc)
        lo, hi = (cf, cf) if np.isscalar(cf) else cf
        rows.append((lo, hi, *mc))
    return rows


def cmd_scaling(args) -> int:
    cfg = _command_config(args)
    _one_rectenna(cfg, "the scaling laws are checked")
    specs = [(strategy, cfg["regime"], cfg["n_tones"], cfg["n_antennas"])
             for strategy in cfg["strategies"]]
    rows = [spec + row for spec, row in zip(
        specs, _scaling_rows(cfg["trials"], cfg["seed"], specs,
                             power=_power_w(cfg), params=_params(cfg)))]
    out = args.out or "out"
    _write_csv(os.path.join(out, "scaling.csv"),
               "ensemble-average DC surrogate: closed form vs Monte Carlo",
               ["strategy", "regime", "n_tones", "n_antennas",
                "closed_form_low", "closed_form_high", "mc_mean", "mc_stderr"],
               rows)
    print(f"wrote scaling.csv to {out}/")
    return 0


def _simulate_trial(payload) -> list[np.ndarray]:
    """Worker: received-tone rows for every strategy of one realization."""
    cfg, trial = payload
    grid = _grid(cfg)
    channel = _channel(cfg, grid, stream=trial)
    rows = []
    for strategy in cfg["strategies"]:
        waveform, _ = build_waveform(strategy, cfg, channel, grid)
        rows.append(received_tone_coefficients(waveform, channel))
    return rows


def _circuit(cfg: dict) -> CircuitParams:
    return CircuitParams(_params(cfg).diode, cfg["c_out_f"])


def _ensemble_p_dc(per_trial: list, cfg: dict, grid: FrequencyGrid,
                   circuit: CircuitParams) -> np.ndarray:
    """P_dc per (strategy, trial) from one rectifier run over all rows.

    `per_trial[t][k]` holds the received tones of strategy k in trial t;
    every strategy's rows go into one batch, so the per-iteration overhead
    of the periodic solve is paid once.
    """
    tone_rows = np.array([tones[k] for k in range(len(cfg["strategies"]))
                          for tones in per_trial])
    p_dc, steady = simulate_ensemble(tone_rows, grid, circuit)
    if not steady:
        raise SteadyStateError(
            f"strategies {', '.join(cfg['strategies'])}: Newton cap hit")
    return p_dc.reshape(len(cfg["strategies"]), len(per_trial))


def _write_trace(path: str, header_comment: str | None, tones: np.ndarray,
                 grid: FrequencyGrid, circuit: CircuitParams,
                 strategy: str) -> None:
    """Write the steady-state (t, v_in, v_out, i_d) rows of the rectifier
    driven by one row of received tones; raises SteadyStateError, before
    writing, if its Newton cap is hit."""
    trace = simulate(tones, grid, circuit)
    if not trace.steady:
        raise SteadyStateError(f"strategy {strategy} trace: Newton cap hit")
    _write_csv(path, header_comment, ["t_s", "v_in_v", "v_out_v", "i_d_a"],
               zip(trace.time.tolist(), trace.v_in.tolist(),
                   trace.v_out.tolist(), trace.i_d.tolist()))


def cmd_simulate(args) -> int:
    cfg = _command_config(args)
    _one_rectenna(cfg, "the rectifier is simulated")
    trials = cfg["trials"]
    payloads = [(cfg, t) for t in range(trials)]
    if args.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(args.workers) as pool:
            per_trial = list(pool.map(_simulate_trial, payloads, chunksize=4))
    else:
        per_trial = [_simulate_trial(p) for p in payloads]
    grid = _grid(cfg)
    circuit = _circuit(cfg)
    p_dc = _ensemble_p_dc(per_trial, cfg, grid, circuit)
    rows = [(strategy, trials, float(np.mean(p)),
             float(np.std(p, ddof=1) / math.sqrt(trials)) if trials > 1
             else 0.0)
            for strategy, p in zip(cfg["strategies"], p_dc)]
    out = args.out or "out"
    _write_csv(os.path.join(out, "simulate.csv"),
               "rectifier ensemble: mean harvested DC power per strategy",
               ["strategy", "trials", "mean_p_dc_w", "stderr_w"], rows)
    if args.trace:  # the first strategy's row of trial 0
        _write_trace(os.path.join(out, "trace.csv"), None, per_trial[0][0],
                     grid, circuit, cfg["strategies"][0])
    print(f"wrote simulate.csv to {out}/")
    return 0


def _command_config(args) -> dict:
    """The validated config of a command, with its --seed and --trials."""
    cfg = parse_config_file(args.config) if args.config else default_config()
    for key in ("seed", "trials"):
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    return validate_config(cfg)


# ---------------------------------------------------------------------------
# presets (desk-scale reproductions; each names the figure it parallels)
# ---------------------------------------------------------------------------

def _preset_fig2(out: str) -> None:
    cfg = validate_config(default_config())
    params = _params(cfg)
    power = 1e-4
    kernel = DCKernel(params)
    a1s = np.arange(0.0, 2.0 + 1e-9, 0.05)
    # all power on tone 0 (unit gain) or all on tone 1 (gain a1)
    z0 = kernel.value(np.array([np.sqrt(2.0 * power)]))
    z1 = kernel.value(np.sqrt(2.0 * power) * a1s[:, None])
    rows = [(a1, z0, z1_a, toy_n2(1.0, a1, power, params)[1])
            for a1, z1_a in zip(a1s, z1)]
    _write_csv(os.path.join(out, "fig2.csv"),
               "preset fig2: two-tone optimum vs single-tone corners "
               "(parallels: figure 2)",
               ["a1", "zdc_tone0_only", "zdc_tone1_only", "zdc_optimal"], rows)


def _preset_fig3_top(out: str) -> None:
    cfg = validate_config(default_config())
    cfg.update(channel_type="flat", power_dbm=-20.0)
    params = _params(cfg)
    power = _power_w(cfg)
    opts = OptimizerOptions(eps=1e-9, max_iterations=200)
    rows = []
    for n in range(1, 17):
        cfg["n_tones"] = n
        grid = _grid(cfg)
        channel = flat_channel(1.0, 0.0, n, 1)
        z_up = zdc_analytic(baseline_waveform("up", channel, power, grid),
                            channel, params)
        tr = optimize(channel, power, params, grid, opts)
        rows.append((n, z_up, tr.zdc))
    _write_csv(os.path.join(out, "fig3-top.csv"),
               "preset fig3-top: flat-channel DC surrogate vs tone count "
               "(parallels: figure 3, top)",
               ["n_tones", "zdc_up", "zdc_opt"], rows)


def _preset_fig3_middle(out: str) -> None:
    cfg = validate_config(default_config())
    cfg.update(channel_type="flat", n_tones=8)
    params = _params(cfg)
    power = _power_w(cfg)
    grid = _grid(cfg)
    channel = flat_channel(1.0, 0.0, 8, 1)
    opts = OptimizerOptions(eps=1e-7, max_iterations=40)
    rows = []
    for eta in (2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0):
        tr = optimize_papr(channel, power, eta, params, grid, opts)
        rows.append((eta, tr.zdc, tr.achieved_papr))
    _write_csv(os.path.join(out, "fig3-middle.csv"),
               "preset fig3-middle: DC surrogate vs peak-power limit, "
               "flat channel, 8 tones (parallels: figure 3, middle)",
               ["eta", "zdc_opt_papr", "achieved_papr"], rows)


def _preset_table1(out: str, seed: int, trials: int) -> None:
    specs = [("ss", "flat", 1, 1), ("up", "flat", 8, 1),
             ("up", "selective", 8, 1), ("ass", "flat", 8, 1),
             ("ass", "selective", 8, 1), ("upmf", "flat", 8, 2),
             ("upmf", "selective", 8, 2)]
    rows = [spec + row
            for spec, row in zip(specs, _scaling_rows(trials, seed, specs))]
    _write_csv(os.path.join(out, "table1.csv"),
               "preset table1: scaling-law rows, closed form vs Monte Carlo "
               "(parallels: Table I)",
               ["strategy", "regime", "n_tones", "n_antennas",
                "closed_form_low", "closed_form_high", "mc_mean", "mc_stderr"],
               rows)


def _preset_fig_scalinglaws(out: str, seed: int, trials: int) -> None:
    # extends past 64 tones: at the -20 dBm operating point the linear
    # tone-count growth of the matched design overtakes the squared-log
    # growth of the single-sinewave design only around 200 tones
    specs = [(strategy, "selective", n)
             for n in (2, 4, 8, 16, 32, 64, 128, 256)
             for strategy in ("up", "ass", "upmf")]
    rows = [(strategy, n) + row for (strategy, _, n), row
            in zip(specs, _scaling_rows(trials, seed, specs))]
    _write_csv(os.path.join(out, "fig-scalinglaws.csv"),
               "preset fig-scalinglaws: selective-fading averages vs tone "
               "count (parallels: figure 6)",
               ["strategy", "n_tones", "closed_form_low", "closed_form_high",
                "mc_mean", "mc_stderr"], rows)


def _preset_fig9_like(out: str, seed: int, trials: int) -> None:
    cfg = validate_config(dict(default_config(), seed=seed, sca_eps=1e-7,
                               trials=min(trials, 50), sca_max_iterations=60,
                               strategies=["up", "ass", "mf", "opt"]))
    circuit = _circuit(cfg)
    rows = []
    for n in (1, 2, 4, 8, 16):
        cfg["n_tones"] = n
        grid = _grid(cfg)
        per_trial = [_simulate_trial((cfg, t)) for t in range(cfg["trials"])]
        p_dc = _ensemble_p_dc(per_trial, cfg, grid, circuit)
        rows.extend((n, strategy, cfg["trials"], float(np.mean(p)))
                    for strategy, p in zip(cfg["strategies"], p_dc))
    _write_csv(os.path.join(out, "fig9-like.csv"),
               "preset fig9-like: mean rectified DC power vs tone count, "
               "10 MHz band (parallels: figure 9)",
               ["n_tones", "strategy", "trials", "mean_p_dc_w"], rows)


def _preset_fig8_trace(out: str, seed: int) -> None:
    cfg = validate_config(dict(default_config(), n_tones=16, seed=seed,
                               strategies=["up", "opt"], sca_eps=1e-7,
                               sca_max_iterations=60))
    grid = _grid(cfg)
    circuit = _circuit(cfg)
    for strategy, tones in zip(cfg["strategies"],
                               _simulate_trial((cfg, 0))):
        _write_trace(os.path.join(out, f"fig8-trace-{strategy}.csv"),
                     f"preset fig8-trace [{strategy}]: steady-state rectifier "
                     "voltages over one waveform period, 16 tones over 10 "
                     "MHz; input peaks repeat every n_tones/bandwidth seconds "
                     "(parallels: figure 8)", tones, grid, circuit, strategy)


# name -> (function, defaults of the --seed and --trials it reads)
_PRESETS = {
    "fig2": (_preset_fig2, {}),
    "fig3-top": (_preset_fig3_top, {}),
    "fig3-middle": (_preset_fig3_middle, {}),
    "table1": (_preset_table1, {"seed": 1, "trials": 100_000}),
    "fig-scalinglaws": (_preset_fig_scalinglaws,
                        {"seed": 1, "trials": 50_000}),
    "fig9-like": (_preset_fig9_like, {"seed": 1, "trials": 20}),
    "fig8-trace": (_preset_fig8_trace, {"seed": 1}),
}


def cmd_preset(args) -> int:
    if args.name not in _PRESETS:
        raise ConfigError(f"unknown preset '{args.name}'; available: "
                          + ", ".join(sorted(_PRESETS)))
    fn, defaults = _PRESETS[args.name]
    given = {flag: getattr(args, flag) for flag in ("seed", "trials")
             if getattr(args, flag) is not None}
    for flag in given:
        if flag not in defaults:
            raise ConfigError(f"--{flag}: preset '{args.name}' does not "
                              "read it")
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    fn(out, **{**defaults, **given})
    print(f"preset {args.name} written to {out}/")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    as it was."""
    parser = argparse.ArgumentParser(
        prog="multisine-wpt",
        description="Design and evaluate multisine waveforms for wireless "
                    "power transfer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=None):
        if config:
            p.add_argument(config, help="key = value configuration file")
        p.add_argument("--seed", type=int, default=None)

    def ensemble(p, config=None):
        common(p, config)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("optimize", help="design waveforms for one realization")
    common(p, "config")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("evaluate", help="evaluate a stored waveform")
    p.add_argument("waveform")
    p.add_argument("--channel", default=None)
    common(p, "--config")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("papr", help="report a stored waveform's PAPR")
    p.add_argument("waveform")
    p.add_argument("--oversampling", type=int, default=8)
    p.set_defaults(fn=cmd_papr)

    p = sub.add_parser("scaling", help="closed forms vs Monte Carlo")
    ensemble(p, "config")
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser("simulate", help="rectifier ensemble simulation")
    ensemble(p, "config")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--trace", action="store_true",
                   help="also export one realization's time trace")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("preset", help="run a named experiment preset")
    p.add_argument("name")
    ensemble(p)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=cmd_preset)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ConfigError("--workers must be >= 1")
        if workers > 1 and args.fn is not cmd_simulate:
            raise ConfigError(f"--workers {workers}: only 'simulate' runs "
                              "in parallel; use --workers 1")
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 3
    except SteadyStateError as e:
        print(f"simulation did not reach steady state: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
