"""Repository rules checked on the source: the benchmark wraps library
functions by name, so a rename must fail here too, no function in the
package or its tests holds an import, and the glue extension test runs on
integers."""
import ast
import dataclasses
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

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
    # the counter sees hashing: the gamma view is a dict keyed by Fraction tuples
    assert len(g.gamma) == 1024 and hashes
