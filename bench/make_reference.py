"""Regenerate `reference_pdc.json`, the stored rectifier output that the
`evaluate` workload's `simulate` op is checked against.

    python3 bench/make_reference.py

Runs the workload's `simulate` command once and stores the mean harvested
DC power per strategy.  Rerun it only when the rectifier's answers are
meant to change.
"""

import json
import os
import sys
import tempfile

import run

run.import_package()
import workloads  # noqa: E402


def main():
    with tempfile.TemporaryDirectory(dir=run.ROOT) as work:
        cfg_path = os.path.join(work, "simulate.cfg")
        workloads.write_config(cfg_path, workloads.SIM_KEYS)
        code, _ = workloads.run_cli(workloads.simulate_argv(cfg_path, work))
        if code != 0:
            sys.exit(f"simulate failed with exit code {code}")
        p_dc = workloads.simulate_result(work)
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump({"config": workloads.SIM_KEYS, "rtol": workloads.SIM_RTOL,
                   "p_dc_w": p_dc}, f, indent=1)
        f.write("\n")
    print(p_dc)


if __name__ == "__main__":
    main()
