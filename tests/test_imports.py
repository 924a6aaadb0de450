"""Imports: every imported name is used, and the package imports only what
it runs.

The unused-name and layering checks are stdlib-`ast` scans of the package
and tests; `__init__.py` re-exports what it imports, so it is exempt from
the first.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = [p for p in sorted((ROOT / "src").rglob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").rglob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, unused


def test_src_does_not_import_the_gp_oracle():
    # the geometric program and its AM-GM condensation are a test oracle in
    # tests/gp_oracle.py, as the enumerated posynomial is in
    # tests/posynomial_oracle.py; no package module imports either or
    # defines its own condensation
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules = [node.module or "" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)]
        modules += [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        found += [(path.name, mod) for mod in modules
                  if mod.split(".")[-1] in ("gp", "gp_oracle",
                                            "posynomial_oracle")]
        found += [(path.name, node.name) for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name in ("condense", "solve_gp")]
    assert not found, found


def test_circuit_takes_received_tones():
    # the rectifier sees only the received tones; a waveform or a channel
    # reaching it is a second way to form them
    tree = ast.parse((ROOT / "src" / "multisine_wpt" / "circuit.py")
                     .read_text())
    names = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not names & {"Waveform", "ChannelRealization",
                        "received_tone_coefficients"}, names


def _name_parts(node) -> set[str]:
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Import):
        return {part for alias in node.names for part in alias.name.split(".")}
    if isinstance(node, ast.ImportFrom):
        return (set((node.module or "").split("."))
                | {alias.name for alias in node.names})
    return set()


def test_only_rectenna_uses_fft():
    # the DC kernel's batch path is the package's one FFT; another module
    # reaching for one is a second z_dc evaluator
    users = [str(path.relative_to(ROOT))
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "rectenna.py"
             and any("fft" in _name_parts(node)
                     for node in ast.walk(ast.parse(path.read_text())))]
    assert not users, users


def test_dc_kernel_batch_has_no_matrix_product():
    # a BLAS product sums a row in an order that depends on the row's place
    # in its block; the batch path sums each row's spectrum by itself
    tree = ast.parse((ROOT / "src" / "multisine_wpt" / "rectenna.py")
                     .read_text())
    kernel = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef)
                  and node.name == "DCKernel")
    methods = {node.name: node for node in kernel.body
               if isinstance(node, ast.FunctionDef)}
    products = [(name, node.lineno)
                for name in ("value", "order_terms", "_batch_terms")
                for node in ast.walk(methods[name])
                if isinstance(getattr(node, "op", None), ast.MatMult)
                or {"dot", "matmul", "vdot", "inner", "tensordot",
                    "einsum"} & _name_parts(node)]
    assert not products, products


def test_only_channel_draws_normals():
    # `channel` lays complex draws out of a stream of normals, real parts
    # first and scaled by fl(1/sqrt(2)), and the Monte Carlo's shared
    # stream is one; another module drawing normals is a second layout
    users = [str(path.relative_to(ROOT))
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name != "channel.py"
             and any("standard_normal" in _name_parts(node)
                     for node in ast.walk(ast.parse(path.read_text())))]
    assert not users, users


def test_only_rectenna_samples_the_carrier():
    # `rectenna.period_basis` is where the carrier enters sampling; another
    # module reading the tone frequencies in rad/s or the carrier multiple
    # is a second multisine sampler.  `channel` defines both.
    users = [str(path.relative_to(ROOT))
             for path in sorted((ROOT / "src").rglob("*.py"))
             if path.name not in ("channel.py", "rectenna.py")
             and any({"omegas", "carrier_multiple"} & _name_parts(node)
                     for node in ast.walk(ast.parse(path.read_text())))]
    assert not users, users


def test_only_optimizer_calls_the_primal_dual_loop():
    # minimize_linear refuses a start that is not strictly inside; the PAPR
    # design builds its starts to be, and a new caller must read that
    # contract
    home = ROOT / "src" / "multisine_wpt"
    users = [str(path.relative_to(ROOT))
             for folder in ("src", "demos", "bench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path not in (home / "optimizer.py", home / "interior.py")
             and any("minimize_linear" in _name_parts(node)
                     for node in ast.walk(ast.parse(path.read_text())))]
    assert not users, users


def test_optimizer_has_one_dc_objective():
    # every design scores z_dc through one object that builds the DC
    # kernel; a second construction or a `zdc_analytic` call is a second
    # evaluation path
    tree = ast.parse((ROOT / "src" / "multisine_wpt" / "optimizer.py")
                     .read_text())
    builds = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and "DCKernel" in _name_parts(node.func)]
    assert len(builds) == 1, builds
    assert not any("zdc_analytic" in _name_parts(node)
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom,
                                        ast.Name, ast.Attribute)))


@pytest.mark.parametrize("package", ["multisine_wpt", "multisine_wpt.cli"])
@pytest.mark.parametrize("scipy_module", ["scipy.optimize", "scipy.linalg"])
def test_package_import_leaves_out_scipy_optimize(package, scipy_module):
    # only the rectifier's banded solve needs scipy, and it imports
    # scipy.linalg at its first call
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code = (f"import sys, {package}; "
            f"print({scipy_module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_every_config_key_is_read():
    # a key the CLI accepts but never reads as cfg["<key>"] is a setting
    # that does nothing
    tree = ast.parse((ROOT / "src" / "multisine_wpt" / "cli.py").read_text())
    schema = next(node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["_SCHEMA"])
    keys = {key.value for key in schema.keys}
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"
            and isinstance(node.slice, ast.Constant)}
    assert keys and not keys - read, sorted(keys - read)


# public names only tests use, kept on purpose as references: the DC
# operating point and harvested power the rectifier tests compare against,
# and the large-N trend of the paper's Table I
_TEST_REFERENCES = {"dc_operating_point", "harvested_dc_power",
                    "asymptotic_form"}


def _references(node, skip=frozenset()) -> set[str]:
    """Names, attributes and imported names under `node`, leaving out a
    definition's references to itself."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        skip = skip | {node.name}
    found = _name_parts(node) - skip
    for child in ast.iter_child_nodes(node):
        found |= _references(child, skip)
    return found


def test_every_public_name_is_used_outside_tests():
    # a name the package exports that no module, demo or benchmark reaches
    # is code only tests run
    init = ROOT / "src" / "multisine_wpt" / "__init__.py"
    exported = {alias.name for node in ast.walk(ast.parse(init.read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for folder in ("src", "demos", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if path != init:
                used |= _references(ast.parse(path.read_text()))
    assert exported and not exported - used - _TEST_REFERENCES, \
        sorted(exported - used - _TEST_REFERENCES)
