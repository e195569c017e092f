"""The benchmark wraps library functions by name; a rename must fail here too."""
import importlib
import importlib.util
from pathlib import Path

from k3enriques import checker, embeddings

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
