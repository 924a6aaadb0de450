"""Span tracing around the package's layer boundaries, from outside `src/`.

The tracer rebinds names that one package module imports from another
(`multisine_wpt.optimizer.condense`, `multisine_wpt.cli.simulate_ensemble`,
...) and a few class methods, so the calls crossing each boundary are
timed without touching the package.  Spans (name, start, end, parent, op
id) stay in memory and are written once, at the end of the run.  A layer's
self time is its spans' durations minus the parts covered by their child
spans.  A wrap target that a later refactor removes is reported as absent
with zero calls instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

# Wrap targets: (module, attribute path, layer metric, result hook name).
# The module is the importer whose global name is rebound, so only calls
# crossing from that module into the target layer are seen.
TARGETS = [
    ("cli", "optimize", "optimizer", "design"),
    ("cli", "optimize_decoupled", "optimizer", "design"),
    ("cli", "optimize_papr", "optimizer", "design"),
    ("cli", "optimize_multi", "optimizer", "design"),
    ("optimizer", "zdc_posynomial", "rectenna.posynomial", "posynomial"),
    ("optimizer", "_posynomial_from_amplitudes", "rectenna.posynomial",
     "posynomial"),
    ("optimizer", "weighted_sum_signomial", "rectenna.posynomial",
     "posynomial"),
    ("optimizer", "condense", "gp.condense", None),
    ("optimizer", "single_condensation_fraction", "gp.condense", None),
    ("optimizer", "solve_gp", "gp.solve", "solve"),
    ("gp", "Posynomial.evaluate", "gp.posy_eval", None),
    ("gp", "Posynomial.term_values", "gp.posy_eval", None),
    ("gp", "Signomial.evaluate", "gp.posy_eval", None),
    ("cli", "simulate_ensemble", "circuit.ensemble", "ensemble"),
    ("cli", "simulate", "circuit.trace", "sim_trace"),
    ("cli", "monte_carlo", "scaling.mc", "monte_carlo"),
    ("cli", "zdc_analytic", "rectenna.eval", None),
    ("cli", "papr", "rectenna.eval", None),
    ("cli", "received_tone_coefficients", "rectenna.eval", None),
    ("optimizer", "zdc_analytic", "rectenna.eval", None),
    ("optimizer", "papr", "rectenna.eval", None),
    ("cli", "multipath_channel", "channel", None),
    ("cli", "flat_channel", "channel", None),
    ("cli", "iid_frequency_channel", "channel", None),
    ("cli", "load_channel_text", "channel", None),
    ("cli", "save_channel_text", "channel", None),
]

LAYERS = ("cli", "channel", "rectenna.posynomial", "rectenna.eval",
          "gp.condense", "gp.posy_eval", "gp.solve", "optimizer",
          "circuit.ensemble", "circuit.trace", "scaling.mc")

# layer -> name of its call counter in the reported metrics
CALLS_NAME = {"optimizer": "optimizer.designs", "cli": "cli.commands"}

# counters filled by the result hooks and by run.py, with their units
COUNTERS = {
    "rectenna.posynomial.terms": "count", "rectenna.posynomial.bytes": "B",
    "optimizer.sca_iters": "count", "optimizer.unconverged": "count",
    "optimizer.iter_cap_hits": "count", "gp.solve.newton_iters": "count",
    "gp.solve.unconverged": "count", "gp.solve.errors": "count",
    "circuit.ensemble.instances": "count", "circuit.trace.periods": "count",
    "scaling.mc.trials": "count", "cli.csv_bytes": "B",
}


def _bound_argument(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except (TypeError, ValueError):
        return None


def _posynomial_size(poly):
    """(terms, bytes) of a Posynomial, or summed over a Signomial's parts."""
    parts = [getattr(poly, "positive", None), getattr(poly, "negative", None)]
    parts = [p for p in parts if p is not None] or [poly]
    terms = sum(int(p.coefficients.size) for p in parts)
    nbytes = sum(int(p.coefficients.nbytes + p.exponents.nbytes)
                 for p in parts)
    return terms, nbytes


def _hook_design(tracer, fn, args, kwargs, trace):
    """SCA trace counters: iterations, unconverged runs and iteration caps."""
    iters = int(trace.n_iterations)
    tracer.count("optimizer.sca_iters", iters)
    tracer.count("optimizer.unconverged", 0 if trace.converged else 1)
    opts = _bound_argument(fn, args, kwargs, "options")
    cap = getattr(opts, "max_iterations", None)
    if cap is None:
        cap = inspect.signature(fn).parameters["options"].default.max_iterations
    tracer.count("optimizer.iter_cap_hits", 1 if iters >= cap else 0)


def _hook_posynomial(tracer, fn, args, kwargs, poly):
    terms, nbytes = _posynomial_size(poly)
    tracer.count("rectenna.posynomial.terms", terms)
    tracer.count("rectenna.posynomial.bytes", nbytes)


def _hook_solve(tracer, fn, args, kwargs, report):
    tracer.count("gp.solve.newton_iters", int(report.iterations))
    tracer.count("gp.solve.unconverged", 0 if report.converged else 1)


def _hook_ensemble(tracer, fn, args, kwargs, result):
    rows = _bound_argument(fn, args, kwargs, "tone_rows")
    tracer.count("circuit.ensemble.instances", len(rows))


def _hook_sim_trace(tracer, fn, args, kwargs, trace):
    tracer.count("circuit.trace.periods", int(trace.period_mean_vout.size))


def _hook_monte_carlo(tracer, fn, args, kwargs, result):
    tracer.count("scaling.mc.trials",
                 int(_bound_argument(fn, args, kwargs, "trials")))


HOOKS = {"design": _hook_design, "posynomial": _hook_posynomial,
         "solve": _hook_solve, "ensemble": _hook_ensemble,
         "sim_trace": _hook_sim_trace, "monte_carlo": _hook_monte_carlo}


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.counters = defaultdict(int)
        self.absent = []
        self.hook_failures = set()
        self.op_id = None
        self._stack = []
        self._restore = []

    # -- spans --------------------------------------------------------------
    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Span around a call the benchmark itself makes into a layer."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name, value=1):
        self.counters[name] += value

    # -- wrapping -----------------------------------------------------------
    def install(self, package):
        """Rebind every target found in the package; note absent ones."""
        self.absent = []
        for module_name, path, layer, hook in TARGETS:
            owner = getattr(package, module_name, None)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None \
                else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr,
                    self._wrap(original, layer, HOOKS.get(hook)))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, layer, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(idx)
                if layer == "gp.solve" \
                        and type(exc).__name__ == "GPSolverError":
                    tracer.count("gp.solve.errors")
                raise
            tracer.close(idx)
            if hook is not None:
                try:
                    hook(tracer, fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    tracer.hook_failures.add(f"{layer}:{hook.__name__}")
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------
    def layer_metrics(self):
        """Per-layer calls and self seconds, plus the hook counters.

        `calls` counts outermost entries only: a span nested in a span of
        the same layer (`Posynomial.evaluate` calling `term_values`) adds
        self time but not a call.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            if parent < 0 or self.spans[parent][0] != name:
                calls[name] += 1
        out = {}
        for layer in LAYERS:
            out[CALLS_NAME.get(layer, f"{layer}.calls")] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        return out

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "absent": self.absent,
                       "hook_failures": sorted(self.hook_failures),
                       "spans": self.spans}, f)


def units():
    """Unit of every per-layer metric the traced run reports."""
    out = {}
    for layer in LAYERS:
        out[CALLS_NAME.get(layer, f"{layer}.calls")] = "count"
        out[f"{layer}.self_s"] = "s"
    out.update(COUNTERS)
    out.update({"trace.wall_s": "s", "trace.unattributed_s": "s",
                "trace.overhead_s": "s", "trace.spans": "count",
                "trace.absent_targets": "count"})
    return out
