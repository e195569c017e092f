"""Repository rules checked on the source: the benchmark wraps library
functions by name, so a rename must fail here too, a traced run through
those wrappers must succeed, no function in the package or its tests holds
an import, no module imports a name it does not use, the package exports
exactly the pinned public names, the package runs without numpy, the
glue extension test runs on integers, and a mutation audit stopped by
SIGTERM leaves no temporary copy behind."""
import ast
import dataclasses
import importlib
import importlib.util
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import k3enriques
from k3enriques import checker, embeddings
from k3enriques.embeddings import extends_to, identity_map, negation_map

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_trace_targets_resolve():
    for modname, names in _tracing().TARGETS.items():
        mod = importlib.import_module(f"k3enriques.{modname}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"k3enriques.{modname}.{name}"


# the benchmark's --trace 1 path in miniature: the wrappers read .flat off
# every matrix hnf and snf return, so a changed return type fails here; no
# case or geometry check calls snf, so discriminant_group calls it
_TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.install()
from k3enriques import checker, cli, lattice
doc = json.loads(json.dumps(checker.build_case(2, 5).to_doc()))
assert checker.verify_certificate(doc) == (True, [])
e8 = str(lattice.fixture_path("E8"))
assert lattice.discriminant_group(lattice.load_lattice(e8)).order == 1
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["lattice", "info", e8]) == 0
    assert cli.main(["lattice", "roots", e8]) == 0
assert checker.gamma2_in_k3().passed
bits = tracer.metrics(1)["intmat.snf.out_bits"]["value"]
assert bits > 0, bits
"""


def test_traced_run_succeeds():
    # a subprocess, so that the wrappers do not leak into other tests
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(TRACING)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


_NUMPY_FREE_RUN = """
import contextlib, io, sys
import k3enriques
from k3enriques import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["decide", "--p", "1000003", "--sigma", "3"]) == 0
assert k3enriques.gamma2_in_k3().passed
assert "numpy" not in sys.modules, "k3enriques loaded numpy"
"""


def test_package_runs_without_numpy():
    # a fresh interpreter: the tests themselves import numpy as an oracle
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_glue_workload_patch_point():
    assert checker.glue_data is embeddings.glue_data


def test_no_function_local_imports():
    found = []
    paths = [*(ROOT / "src" / "k3enriques").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    for path in sorted(paths):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert not found, found


def test_no_unused_imports():
    # every name a module-level import binds is read somewhere in its module
    found = []
    for path in sorted((ROOT / "src" / "k3enriques").glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's API
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, found


# every public name has a caller in a pipeline, the benchmark or the
# documented API; a new export is added here on purpose, not by accident
_PUBLIC = [
    "CaseCertificate", "DiscriminantGroup", "GlueData", "IntegralLattice",
    "LatticeEmbedding", "Matrix", "ShortVectorReport", "Verdict",
    "arith", "arth", "build_case", "builtin", "checker", "count_norm",
    "decide_enriques", "det", "diag_lattice", "direct_sum", "discriminant",
    "discriminant_group", "embeddings", "enumeration", "extends_to", "find_d",
    "fixture_path", "frobenius_bounds_enriques", "gamma2_in_k3", "glue_data",
    "hnf", "intmat", "is_even", "is_primitive", "kernel_basis", "lattice",
    "legendre", "load_lattice", "newton_slopes", "orthogonal_complement",
    "overlattice", "polygon_lies_above", "save_lattice", "short_vectors",
    "signature", "snf", "survey", "twist", "verify_certificate",
    "verify_norm_bound",
]


def test_public_exports_pinned():
    assert sorted(k3enriques.__all__) == _PUBLIC


def _ints_only(x):
    return type(x) is int or (type(x) is tuple and all(_ints_only(y) for y in x))


def test_gamma2_glue_extension_hashes_no_fraction(monkeypatch):
    kept = []
    computed = checker.glue_data
    monkeypatch.setattr(checker, "glue_data", lambda *args: kept.append(computed(*args)) or kept[-1])
    checker.gamma2_in_k3()
    (g,) = kept
    assert all(_ints_only(getattr(g, f.name)) for f in dataclasses.fields(g))
    hashes = []
    fraction_hash = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda x: hashes.append(1) or fraction_hash(x))
    assert extends_to(identity_map, identity_map, g)
    assert extends_to(identity_map, negation_map, g)
    assert not hashes
    # the counter sees hashing: the elements as a dict keyed by Fraction tuples
    assert len(dict(g.elements)) == 1024 and hashes


def test_gamma2_glue_runs_on_integers(monkeypatch):
    # the inverse reaches glue_data as integer numerators over its denominator,
    # through one positional call of the name a caller may patch
    calls = []
    computed = checker.glue_data
    monkeypatch.setattr(
        checker, "glue_data", lambda *args, **kwargs: calls.append(kwargs) or computed(*args, **kwargs)
    )
    built = []
    fraction_new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda *a, **k: built.append(1) or fraction_new(*a, **k))
    )
    assert checker.gamma2_in_k3().passed
    assert not built and calls == [{}]
    # the counter sees construction
    assert Fraction(1, 2) and built


def test_gamma2_glue_extension_builds_no_fraction(monkeypatch):
    kept = []
    computed = checker.glue_data
    monkeypatch.setattr(checker, "glue_data", lambda *args: kept.append(computed(*args)) or kept[-1])
    checker.gamma2_in_k3()
    (g,) = kept
    built = []
    fraction_new = Fraction.__new__
    monkeypatch.setattr(
        Fraction, "__new__", staticmethod(lambda *a, **k: built.append(1) or fraction_new(*a, **k))
    )
    assert extends_to(identity_map, identity_map, g)
    assert extends_to(identity_map, negation_map, g)
    assert not built and "elements" not in vars(g)
    # the counter sees construction: the elements view is built of Fractions
    assert len(g.elements) == 1024 and built


def _test_runs_of(pid):
    # the pids of pid's child processes that run pytest, read from /proc
    runs = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rpartition(")")[2].split()[1])
            if ppid == pid and b"pytest" in (stat.parent / "cmdline").read_bytes():
                runs.append(int(stat.parent.name))
        except (OSError, ValueError, IndexError):
            pass  # the process ended while it was read
    return runs


def test_mutation_audit_removes_its_copy_on_sigterm(tmp_path):
    # the audit copies the tree into a temporary directory, then runs the
    # tests on it in a child process; SIGTERM during that run kills the
    # child and removes the copy
    if not Path("/proc/self/stat").exists():
        pytest.skip("reads the audit's child processes from /proc")
    audit = subprocess.Popen(
        [sys.executable, str(ROOT / "tests" / "mutation_audit.py"), "enumeration:count_norm",
         "-t", "tests/test_enumeration.py"],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 20
        while not (runs := _test_runs_of(audit.pid)):
            assert audit.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        audit.send_signal(signal.SIGTERM)
        assert audit.wait(timeout=20) == 128 + signal.SIGTERM
    finally:
        audit.kill()
    assert not list(tmp_path.iterdir())
    assert not any(Path(f"/proc/{pid}").exists() for pid in runs)
