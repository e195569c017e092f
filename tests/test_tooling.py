"""Repository rules checked on the source: the benchmark wraps library
functions by name, so a rename must fail here too, and no function in the
package or its tests holds an import."""
import ast
import importlib
import importlib.util
from pathlib import Path

from k3enriques import checker, embeddings

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
