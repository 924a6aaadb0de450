"""Run every demo in-process so a rename it depends on fails here."""

import contextlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


@pytest.mark.parametrize("name", ["01_two_tone_power_split.py",
                                  "02_waveform_strategy_gallery.py",
                                  "03_papr_constrained_design.py",
                                  "04_scaling_laws.py",
                                  "05_circuit_validation.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    assert out.getvalue().strip()
