import numpy as np
import pytest

from multisine_wpt import circuit, cli
from multisine_wpt.channel import (FrequencyGrid, flat_channel,
                                   load_channel_text, save_channel_text)
from multisine_wpt.circuit import SimTrace
from multisine_wpt.cli import (ConfigError, default_config, main,
                               parse_config_file, validate_config)
from multisine_wpt.optimizer import CLOSED_FORM, baseline_waveform
from multisine_wpt.rectenna import (RectennaParams, Waveform,
                                    load_waveform_text, save_waveform_text,
                                    zdc_analytic)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = """
# two-antenna multipath design
channel_type = multipath
n_tones = 4
n_antennas = 2
bandwidth_hz = 10e6
power_dbm = -20
strategies = up, ass, opt
seed = 3
sca_max_iterations = 60
"""


def test_parse_and_defaults(tmp_path):
    cfg = parse_config_file(_write(tmp_path, "a.cfg", BASIC))
    assert cfg["n_tones"] == 4
    assert cfg["strategies"] == ["up", "ass", "opt"]
    assert cfg["c_out_f"] == 100e-12  # untouched default
    validate_config(cfg)


def test_unknown_key_is_named(tmp_path):
    path = _write(tmp_path, "bad.cfg", "not_a_key = 3\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        parse_config_file(path)


def test_bad_value_is_named(tmp_path):
    path = _write(tmp_path, "bad.cfg", "n_tones = many\n")
    with pytest.raises(ConfigError, match="n_tones"):
        parse_config_file(path)


def test_validation_errors():
    cfg = default_config()
    cfg["strategies"] = ["nope"]
    with pytest.raises(ConfigError, match="nope"):
        validate_config(cfg)


@pytest.mark.parametrize("strategy", cli._KNOWN_STRATEGIES)
def test_build_waveform_reads_the_closed_form_table(strategy, monkeypatch):
    # exactly the table's names reach `baseline_waveform`, as closed forms
    assert set(CLOSED_FORM) <= set(cli._KNOWN_STRATEGIES)
    assert cli._KNOWN_STRATEGIES.count(strategy) == 1
    reached = []

    def spy(name, *args):
        reached.append(name)
        return baseline_waveform(name, *args)

    monkeypatch.setattr(cli, "baseline_waveform", spy)
    cfg = validate_config(dict(default_config(), channel_type="flat",
                               n_tones=2, n_antennas=2, papr_eta=4.0))
    grid = cli._grid(cfg)
    _, meta = cli.build_waveform(strategy, cfg, cli._channel(cfg, grid, 0),
                                 grid)
    closed = strategy in CLOSED_FORM
    assert reached == ([strategy] if closed else [])
    assert (meta["stop_reason"] == "closed_form") == closed


def test_opt_decoupled_builds_opts_design():
    # the joint design is also the decoupled one, so the CLI name
    # `opt-decoupled` builds it, bit for bit
    cfg = validate_config(dict(default_config(), channel_type="iid",
                               n_tones=4, n_antennas=2, seed=2))
    grid = cli._grid(cfg)
    channel = cli._channel(cfg, grid, 0)
    opt, opt_meta = cli.build_waveform("opt", cfg, channel, grid)
    dec, dec_meta = cli.build_waveform("opt-decoupled", cfg, channel, grid)
    assert dec_meta == opt_meta
    assert np.array_equal(dec.amplitudes, opt.amplitudes)
    assert np.array_equal(dec.phases, opt.phases)


@pytest.mark.parametrize("keys, key", [
    ("strategies = ass, opt-papr\n", "papr_eta"),
    ("strategies = ass, opt-multi\nn_rectennas = 2\nweights = 1\n",
     "weights"),
    # a flat channel has one rectenna, so it refuses two, weighted or not
    ("channel_type = flat\nstrategies = opt-multi\nn_rectennas = 2\n",
     "n_rectennas"),
    ("channel_type = flat\nstrategies = opt-multi\nn_rectennas = 2\n"
     "weights = 1, 3\n", "n_rectennas")])
def test_design_values_exit_2_before_any_waveform_is_written(tmp_path, capsys,
                                                              keys, key):
    # a value one listed design cannot use is refused up front, not after
    # the strategies before it have written their waveforms
    cfg = _write(tmp_path, "bad.cfg", "channel_type = iid\nn_tones = 2\n"
                                      + keys)
    for command in ("optimize", "simulate"):
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error"), (command, err)
        assert key in err, (command, err)
    assert not (tmp_path / "o").exists()


def test_optimize_command_outputs_and_determinism(tmp_path):
    cfg = _write(tmp_path, "exp.cfg", BASIC)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["optimize", cfg, "--out", out1]) == 0
    assert main(["optimize", cfg, "--out", out2]) == 0
    report1 = (tmp_path / "r1" / "optimize_report.csv").read_bytes()
    report2 = (tmp_path / "r2" / "optimize_report.csv").read_bytes()
    assert report1 == report2
    wave1 = (tmp_path / "r1" / "waveform_opt.txt").read_bytes()
    wave2 = (tmp_path / "r2" / "waveform_opt.txt").read_bytes()
    assert wave1 == wave2
    # reported zdc matches an independent evaluation of the stored artifacts
    waveform = load_waveform_text(tmp_path / "r1" / "waveform_opt.txt")
    channel = load_channel_text(tmp_path / "r1" / "channel.txt")
    lines = (tmp_path / "r1" / "optimize_report.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[-1].split(",")))
    assert row["strategy"] == "opt"
    assert np.isclose(float(row["zdc_a"]),
                      zdc_analytic(waveform, channel, RectennaParams()),
                      rtol=1e-12)
    # dominance visible in the emitted report
    by_strategy = {ln.split(",")[0]: float(ln.split(",")[1])
                   for ln in lines[2:]}
    assert by_strategy["opt"] >= by_strategy["up"]
    assert by_strategy["opt"] >= by_strategy["ass"]


def test_optimize_report_names_each_stop_reason(tmp_path):
    # `converged` reads False for both an iteration cap and a refused GP
    # start; the `stop_reason` column tells them apart
    cfg = _write(tmp_path, "stop.cfg",
                 "channel_type = flat\nn_tones = 4\n"
                 "strategies = up, opt, opt-papr\n"
                 "sca_max_iterations = 1\npapr_eta = 2\n")
    assert main(["optimize", cfg, "--out", str(tmp_path / "r")]) == 0
    lines = (tmp_path / "r" / "optimize_report.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[-2:] == ["converged", "stop_reason"]
    rows = {row["strategy"]: row
            for row in (dict(zip(header, ln.split(","))) for ln in lines[2:])}
    assert (rows["up"]["converged"], rows["up"]["stop_reason"]) \
        == ("True", "closed_form")
    assert (rows["opt"]["converged"], rows["opt"]["stop_reason"]) \
        == ("False", "max_iter")
    assert (rows["opt-papr"]["converged"], rows["opt-papr"]["stop_reason"]) \
        == ("False", "solver_fallback")


def test_cli_exit_codes(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "mystery_key = 1\n")
    assert main(["optimize", bad]) == 2
    assert "mystery_key" in capsys.readouterr().err
    zero = _write(tmp_path, "zero.cfg", "n_tones = 0\n")
    assert main(["optimize", zero]) == 2
    ok = _write(tmp_path, "ok.cfg", "strategies = up\n")
    assert main(["scaling", ok, "--trials", "0"]) == 2
    assert main(["preset", "does-not-exist"]) == 2
    capsys.readouterr()
    # scaling settings the laws or the Monte Carlo do not cover, by key
    two_ant = _write(tmp_path, "m2.cfg", "strategies = up\nn_antennas = 2\n")
    order6 = _write(tmp_path, "o6.cfg", "strategies = up\ntaylor_order = 6\n")
    three_rect = _write(tmp_path, "u3.cfg", "strategies = up\nregime = flat\n"
                                            "n_rectennas = 3\n")
    for argv, key in ((["scaling", ok, "--trials", "50"], "trials"),
                      (["preset", "table1", "--trials", "50",
                        "--out", str(tmp_path / "t1")], "trials"),
                      (["scaling", two_ant], "n_antennas"),
                      (["scaling", order6], "taylor_order"),
                      (["scaling", three_rect], "n_rectennas")):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error"), argv
        assert key in err, argv
    # input files: missing, malformed, or a channel of the wrong shape
    wave = str(tmp_path / "w.txt")
    save_waveform_text(wave, baseline_waveform(
        "up", flat_channel(1.0, 0.0, 3, 2), 1e-5, FrequencyGrid(3, 48e6, 1e6)))
    chan = str(tmp_path / "c.txt")
    save_channel_text(chan, flat_channel(1.0, 0.0, 3, 1))
    junk = _write(tmp_path, "junk.txt", "# waveform 3 2 oops\n")
    missing = str(tmp_path / "missing.txt")
    for argv in (["evaluate", missing], ["evaluate", junk],
                 ["evaluate", wave, "--channel", junk],
                 ["evaluate", wave, "--channel", missing],
                 ["evaluate", wave, "--channel", chan],
                 ["papr", missing], ["papr", junk]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("input error: "), argv
    assert main(["simulate", missing]) == 2
    # flag values below their floor, by flag and before any CSV is written
    for argv, key in [(["papr", wave, "--oversampling", value],
                       "--oversampling") for value in ("0", "-3", "1")] + [
            (["preset", "fig9-like", "--trials", value, "--out",
              str(tmp_path / "f9")], "trials") for value in ("0", "-2")]:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error"), argv
        assert key in err, argv
    assert not (tmp_path / "f9" / "fig9-like.csv").exists()
    # a design or a rectifier run for one rectenna refuses n_rectennas > 1,
    # by key and before it writes anything
    for strategy in ("opt", "opt-decoupled", "opt-papr"):
        two_rect = _write(tmp_path, "u2.cfg",
                          "n_tones = 2\nn_rectennas = 2\npapr_eta = 3\n"
                          f"strategies = up, {strategy}\n")
        for command in ("optimize", "simulate"):
            unwritten = tmp_path / f"u2-{command}-{strategy}"
            assert main([command, two_rect, "--out", str(unwritten)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error"), (command, err)
            assert "n_rectennas" in err, (command, err)
            assert not unwritten.exists()
    closed_form = _write(tmp_path, "u2up.cfg",
                         "n_tones = 2\nn_rectennas = 2\nstrategies = up\n")
    assert main(["simulate", closed_form, "--out",
                 str(tmp_path / "u2up")]) == 2
    assert "n_rectennas" in capsys.readouterr().err
    assert main(["optimize", closed_form, "--out",
                 str(tmp_path / "u2up")]) == 0
    capsys.readouterr()
    # --workers: only simulate runs in parallel; preset keeps the flag and
    # accepts 1, and the other commands have no such flag
    for argv in (["optimize", ok], ["evaluate", wave], ["scaling", ok]):
        with pytest.raises(SystemExit) as stop:
            main(argv + ["--workers", "2"])
        assert stop.value.code == 2, argv
        assert "--workers" in capsys.readouterr().err, argv
    assert main(["preset", "fig2", "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err
    assert main(["simulate", ok, "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err
    out = str(tmp_path / "fig2")
    assert main(["preset", "fig2", "--workers", "1", "--out", out]) == 0
    # a preset refuses the --seed or --trials it does not read, before it
    # writes anything
    for name, flag in (("fig2", "--seed"), ("fig2", "--trials"),
                       ("fig3-top", "--seed"), ("fig3-top", "--trials"),
                       ("fig3-middle", "--seed"), ("fig3-middle", "--trials"),
                       ("fig8-trace", "--trials")):
        unread = tmp_path / f"unread-{name}{flag}"
        assert main(["preset", name, flag, "5", "--out", str(unread)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and flag in err, (name, err)
        assert not unread.exists()


def test_evaluate_draws_no_two_rectenna_channel(tmp_path, capsys):
    # without --channel, evaluate draws the config's channel, which has one
    # rectenna per n_rectennas; a stored waveform is scored on one
    wave = str(tmp_path / "w.txt")
    save_waveform_text(wave, baseline_waveform(
        "up", flat_channel(1.0, 0.0, 2, 1), 1e-5, FrequencyGrid(2, 48e6, 1e6)))
    two_rect = _write(tmp_path, "u2.cfg", "channel_type = iid\n"
                      "n_tones = 2\nn_rectennas = 2\n")
    assert main(["evaluate", wave, "--config", two_rect]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "n_rectennas" in err, err
    chan = str(tmp_path / "c.txt")
    save_channel_text(chan, flat_channel(1.0, 0.0, 2, 1))
    assert main(["evaluate", wave, "--config", two_rect,
                 "--channel", chan]) == 0


def test_design_on_a_zero_channel_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, "zero.cfg", "channel_type = flat\n"
                 "flat_amplitude = 0\nstrategies = opt\n")
    assert main(["optimize", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "no seed reaches a rectenna" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "sca_eps = 0", "sca_max_iterations = 0", "papr_oversampling = 1",
    "diode_is_a = 0", "diode_ideality = -1", "diode_vt_v = 0",
    "r_antenna_ohm = 0", "r_load_ohm = 0", "taylor_order = 3",
    "pdp_taps = 0", "pdp_spacing_s = -1e-9", "bandwidth_hz = 0",
    "carrier_multiple = -1", "c_out_f = 0", "flat_amplitude = -1",
    "weights = -1, 2", "strategies = ,",
    "pdp_decay_s = 0", "power_dbm = nan", "sca_eps = inf"])
def test_bad_config_value_exits_2_naming_its_key(tmp_path, capsys, line):
    # each value is rejected up front, before any command runs, and the
    # error names its key
    key = line.split()[0]
    cfg = _write(tmp_path, "bad.cfg", "n_tones = 2\n" + line + "\n")
    for command in ("optimize", "simulate"):
        assert main([command, cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error"), (command, err)
        assert key in err, (command, err)
    assert not (tmp_path / "o").exists()


def test_evaluate_and_papr_roundtrip(tmp_path):
    cfg = _write(tmp_path, "exp.cfg", "strategies = upmf\nn_tones = 3\n"
                                      "channel_type = iid\nseed = 9\n")
    out = str(tmp_path / "o")
    assert main(["optimize", cfg, "--out", out]) == 0
    wf = str(tmp_path / "o" / "waveform_upmf.txt")
    ch = str(tmp_path / "o" / "channel.txt")
    assert main(["evaluate", wf, "--channel", ch]) == 0
    assert main(["papr", wf]) == 0


def test_parser_is_built_once_and_parsing_leaves_it_unchanged(tmp_path,
                                                              capsys):
    # one parser per process: neither an option given to one command nor
    # an argparse error between two identical commands changes what the
    # second prints
    wave = str(tmp_path / "w.txt")
    save_waveform_text(wave, Waveform(np.array([1e-3, 2e-3, 3e-3]),
                                      np.array([0.3, 1.1, 2.0]),
                                      FrequencyGrid(3, 48e6, 1e6)))
    assert cli._parser() is cli._parser()
    assert main(["papr", wave]) == 0
    first = capsys.readouterr().out
    assert first.startswith("papr_antenna_0 = ")
    assert main(["papr", wave, "--oversampling", "3"]) == 0
    assert capsys.readouterr().out != first
    with pytest.raises(SystemExit) as stop:
        main(["papr", wave, "--no-such-flag"])
    assert stop.value.code == 2
    assert "--no-such-flag" in capsys.readouterr().err
    assert main(["papr", wave]) == 0
    assert capsys.readouterr().out == first
    assert cli._parser() is cli._parser()


def test_scaling_command_csv(tmp_path):
    cfg = _write(tmp_path, "s.cfg",
                 "strategies = up\nregime = selective\nn_tones = 4\n"
                 "trials = 5000\nseed = 2\n")
    out = str(tmp_path / "sc")
    assert main(["scaling", cfg, "--out", out]) == 0
    lines = (tmp_path / "sc" / "scaling.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    lo = float(row["closed_form_low"])
    mean, err = float(row["mc_mean"]), float(row["mc_stderr"])
    assert abs(mean - lo) <= 4 * err


def test_simulate_command_with_trace(tmp_path):
    cfg = _write(tmp_path, "sim.cfg",
                 "n_tones = 2\nstrategies = up\ntrials = 3\nseed = 4\n"
                 "sca_max_iterations = 30\n")
    out = str(tmp_path / "sim")
    assert main(["simulate", cfg, "--out", out, "--trace"]) == 0
    lines = (tmp_path / "sim" / "simulate.csv").read_text().splitlines()
    assert lines[1] == "strategy,trials,mean_p_dc_w,stderr_w"
    assert lines[2].startswith("up,3,")
    trace = (tmp_path / "sim" / "trace.csv").read_text().splitlines()
    assert trace[0] == "t_s,v_in_v,v_out_v,i_d_a"
    assert len(trace) > 100


SIM = """
n_tones = 2
carrier_multiple = 4
strategies = up, ss, ass
trials = 5
seed = 4
"""


def test_simulate_outputs_identical_for_any_worker_count(tmp_path):
    cfg = _write(tmp_path, "sim.cfg", SIM)
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["simulate", cfg, "--out", str(out), "--trace",
                     "--workers", workers]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("simulate.csv", "trace.csv")])
    assert outputs[0] == outputs[1]


def test_simulate_trace_designs_each_row_once(tmp_path, monkeypatch):
    # the trace solves the ensemble's first row: every (strategy, trial) is
    # designed once, on the one channel drawn for its trial
    calls = {"build_waveform": 0, "_channel": 0}

    def counted(name):
        original = getattr(cli, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    cfg = _write(tmp_path, "sim.cfg",
                 "n_tones = 2\nstrategies = up, ass\ntrials = 2\n")
    assert main(["simulate", cfg, "--out", str(tmp_path / "sim"),
                 "--trace"]) == 0
    assert calls == {"build_waveform": 4, "_channel": 2}


def test_unsteady_trace_exits_4(tmp_path, monkeypatch, capsys):
    def unsteady(tones, grid, circuit, *args, **kwargs):
        return SimTrace(time=np.zeros(1), v_in=np.zeros(1), v_out=np.zeros(1),
                        i_d=np.zeros(1), period_mean_vout=np.zeros(2),
                        steady=False, dt=1e-9, load=circuit.diode.r_load)

    monkeypatch.setattr(cli, "simulate", unsteady)
    cfg = _write(tmp_path, "sim.cfg", SIM)
    out = tmp_path / "sim"
    assert main(["simulate", cfg, "--out", str(out), "--trace"]) == 4
    assert "steady state" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()
    out = tmp_path / "fig8"
    assert main(["preset", "fig8-trace", "--out", str(out)]) == 4
    assert not list(out.glob("*.csv"))


def test_removed_simulation_keys_are_unknown(tmp_path, capsys):
    for key in ("sim_max_periods = 300", "sim_steady_tol = 1e-6",
                "trace_decimation = 1"):
        cfg = _write(tmp_path, "old.cfg", SIM + key + "\n")
        assert main(["simulate", cfg, "--out", str(tmp_path / "old")]) == 2
        assert key.split()[0] in capsys.readouterr().err


def test_ensemble_newton_cap_hit_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(circuit, "_NEWTON_CAP", 1)
    cfg = _write(tmp_path, "sim.cfg", SIM)
    out = tmp_path / "sim"
    assert main(["simulate", cfg, "--out", str(out)]) == 4
    assert "Newton cap" in capsys.readouterr().err
    assert not (out / "simulate.csv").exists()


def test_preset_fig2(tmp_path):
    out = str(tmp_path / "p")
    assert main(["preset", "fig2", "--out", out]) == 0
    lines = (tmp_path / "p" / "fig2.csv").read_text().splitlines()
    assert "figure 2" in lines[0]
    for ln in lines[2:]:
        a1, z0, z1, zbest = (float(tok) for tok in ln.split(","))
        assert zbest >= max(z0, z1) * (1 - 1e-12)


def test_preset_fig3_top(tmp_path):
    out = str(tmp_path / "p3")
    assert main(["preset", "fig3-top", "--out", out]) == 0
    lines = (tmp_path / "p3" / "fig3-top.csv").read_text().splitlines()
    assert "figure 3" in lines[0]
    rows = [tuple(float(t) for t in ln.split(",")) for ln in lines[2:]]
    assert len(rows) == 16
    for _, z_up, z_opt in rows:
        assert z_opt >= z_up * (1 - 1e-12)
    # the uniform design rides within a whisker of the optimum on flat fading
    assert all(z_opt <= 1.02 * z_up for _, z_up, z_opt in rows)
