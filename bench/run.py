"""Benchmark runner: one workload, one seed, one process, one caller.

    python3 bench/run.py --workload design --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/` next to
this directory.  Each op runs only after the previous one returned (a
closed loop with one client).  BLAS and OpenMP are pinned to one thread
and every CLI command gets `--workers 1`.

With `--trace 0` the run repeats passes over the workload's fixed op list
until `--seconds` have gone by, and prints the end-to-end metrics, each
op's latency being its mean over the passes.  With `--trace 1` it runs
every op of the list once untraced and once traced, alternating which goes
first, and prints the per-layer metrics of the traced runs; the spans are
written to `.bench_out/` when the run ends.  The last stdout line is the
JSON result; the lines before it are the run record, one record per op,
the failed ops and every metric with its unit.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("design", "constrained", "evaluate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_package():
    """Import numpy and the package from `src/`; seconds taken."""
    if not os.path.isfile(os.path.join(SRC, "multisine_wpt", "__init__.py")):
        sys.exit(f"bench: no package source at {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import multisine_wpt
    elapsed = time.perf_counter() - start
    if not os.path.abspath(multisine_wpt.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported {multisine_wpt.__file__}, not {SRC}")
    return elapsed


def fresh_import_seconds():
    """Seconds a fresh interpreter takes to import numpy and the package."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "start = time.perf_counter(); import numpy, multisine_wpt; "
            "print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code, SRC], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout)


def run_record(args):
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": git_commit(), "src_sha256": tree_digest(SRC),
            "blas_threads": 1, "workers": 1}


def git_commit():
    """HEAD commit read from `.git` without running git; None outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(top):
    """SHA-256 over the package's .py files, names and contents."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def no_span(name):
    """Span factory of untraced runs."""
    return contextlib.nullcontext()


def set_up(workload_cls, seed, workdir):
    """Inputs for the fixed op list plus one warm-up op; (workload, ops)."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload = workload_cls(seed, workdir)
    ops = [workload.make_op(i) for i in range(workload.fixed_ops)]
    workload.warm_up_op().call(no_span)
    return workload, ops


def execute(op, span):
    """Run one op; (latency seconds, result, error text or None)."""
    start = time.perf_counter()
    try:
        result = op.call(span)
    except Exception as exc:  # an op failure is recorded; the loop goes on
        return time.perf_counter() - start, None, _describe(exc)
    return time.perf_counter() - start, result, None


def _describe(exc):
    return f"{type(exc).__name__}: {exc}"


def verdict(op, result, error):
    """(values, failure) from the op's check, run outside the timed region."""
    if error is not None:
        return {}, error
    try:
        return op.check(result)
    except Exception as exc:
        return {}, "check raised " + _describe(exc)


def record(i, pass_no, op, latency, values, failure):
    rec = {"id": i, "pass": pass_no, "kind": op.kind, "size": op.size,
           "latency_s": latency, "value": values,
           "verdict": "ok" if failure is None else f"fail: {failure}"}
    print("op " + json.dumps(rec, default=float), flush=True)
    return rec


def measure(ops, seconds):
    """Closed loop over passes of the fixed op list until time is up.

    At least one pass runs in full.  Returns one list of records per op,
    one record per pass that reached it.
    """
    per_op = [[] for _ in ops]
    start = time.perf_counter()
    n = 0
    while n < len(ops) or time.perf_counter() - start < seconds:
        i = n % len(ops)
        latency, result, error = execute(ops[i], no_span)
        values, failure = verdict(ops[i], result, error)
        per_op[i].append(record(i, n // len(ops), ops[i], latency, values,
                                failure))
        n += 1
    return per_op


def measure_traced(ops, tracer, package):
    """Each fixed op untraced and traced, alternating which runs first.

    The wrappers are in place only while the traced run executes.  Returns
    the traced records and the summed untraced latency.
    """
    def traced(op):
        tracer.install(package)
        try:
            return execute(op, tracer.span)
        finally:
            tracer.uninstall()

    records = []
    untraced_s = 0.0
    for i, op in enumerate(ops):
        tracer.op_id = i
        if i % 2 == 0:
            plain = execute(op, no_span)
            latency, result, error = traced(op)
        else:
            latency, result, error = traced(op)
            plain = execute(op, no_span)
        untraced_s += plain[0]
        values, failure = verdict(op, result, error)
        if failure is None and plain[2] is not None:
            failure = "untraced run: " + plain[2]
        if "csv_bytes" in values:
            tracer.count("cli.csv_bytes", values["csv_bytes"])
        records.append(record(i, 0, op, latency, values, failure))
    return records, untraced_s


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def print_metrics(metrics, units):
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")


def main():
    args = parse_args()
    import_s = import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    import workloads
    import multisine_wpt

    print("run " + json.dumps(run_record(args)), flush=True)
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}")
    workload_cls = workloads.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload, ops = set_up(workload_cls, args.seed, workdir)
        setups.append(time.perf_counter() - start)
    fixed = len(ops)

    if args.trace:
        tracer = tracing.Tracer()
        records, untraced_s = measure_traced(ops, tracer, multisine_wpt)
        wall = sum(r["latency_s"] for r in records)
        metrics = tracer.layer_metrics()
        attributed = sum(v for k, v in metrics.items()
                         if k.endswith(".self_s"))
        metrics.update({"trace.wall_s": wall,
                        "trace.unattributed_s": wall - attributed,
                        "trace.overhead_s": wall - untraced_s,
                        "trace.spans": len(tracer.spans),
                        "trace.absent_targets": len(tracer.absent)})
        units = tracing.units()
        tracer.write(os.path.join(workdir, "spans.json"))
        for target in tracer.absent:
            print(f"absent wrap target {target}")
        for hook in sorted(tracer.hook_failures):
            print(f"counter hook failed {hook}")
    else:
        # set-up is timed SETUP_REPEATS times: the import in this process
        # and in fresh interpreters, the inputs and warm-up op above
        imports = [import_s] + [fresh_import_seconds()
                                for _ in range(SETUP_REPEATS - 1)]
        per_op = measure(ops, args.seconds)
        records = [r for runs in per_op for r in runs]
        # On a shared host the CPU can switch between a fast and a slow
        # speed for seconds at a time, which makes one op's latencies
        # bimodal: their median flips between the two speeds, their mean
        # moves only with the share of time spent at each.
        means = [statistics.fmean(r["latency_s"] for r in runs)
                 for runs in per_op]
        failed = sum(r["verdict"] != "ok" for r in records)
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "wall_s": sum(means),
            "op_p50_s": statistics.median(means),
            "ok_ratio": 1.0 - failed / len(records),
            "zdc_gain": workload.gain([runs[0] for runs in per_op]),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
                 "ok_ratio": "ratio", "zdc_gain": "ratio",
                 "peak_rss_mb": "MB"}
        # Reported alongside, but not compared between commits: the failure
        # share is 0 when all is well, and the 90th percentile is defined
        # only with ten samples beyond it.
        latencies = [r["latency_s"] for r in records]
        print(f"info ops = {len(records)} ({len(records) / fixed:.2f} "
              f"passes of {fixed})")
        print(f"info fail_ratio = {failed / len(records)!r} ratio")
        if len(latencies) >= 100:
            print(f"info op_p90_s = {percentile(latencies, 90)!r} s")

    failed_records = [r for r in records if r["verdict"] != "ok"]
    for r in failed_records:
        print(f"failed op {r['id']} {r['kind']} {json.dumps(r['size'])}: "
              f"{r['verdict']}")
    print_metrics(metrics, units)
    result = {"correct": not failed_records, "attempted": len(records),
              "failed": len(failed_records),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
