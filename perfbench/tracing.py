"""Per-module spans, recorded from the benchmark around calls into k3enriques.

``install()`` replaces each public function named in TARGETS, wherever a
module of the package holds a reference to it, by a wrapper that counts calls
and accumulates self time: the span's duration minus the spans of wrapped
calls made inside it. Work in functions that are not wrapped counts towards
the nearest wrapped caller. The library itself is not changed on disk.
"""
from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

TARGETS = {
    "intmat": ("snf", "hnf", "kernel_basis", "det", "rat_inv"),
    "lattice": ("discriminant_group", "signature", "load_lattice"),
    "enumeration": ("short_vectors",),
    "embeddings": ("glue_data", "LatticeEmbedding", "orthogonal_complement"),
    "arith": ("is_odd_prime", "legendre", "find_d"),
    "checker": ("build_case", "verify_certificate", "decide_enriques", "gamma2_in_k3"),
    "cli": ("main",),
}


def _max_bits(matrices) -> int:
    return max((abs(int(x)).bit_length() for m in matrices for x in m.flat), default=0)


def _out_bits(rec, out):
    rec["out_bits"] = max(rec["out_bits"], _max_bits(out))


def _vectors(rec, out):
    rec["vectors"] += len(out.vectors)


def _elements(rec, out):
    rec["elements"] += out.order


# extra figures read off a return value, outside the span being timed
MEASURES = {
    "intmat.snf": _out_bits,
    "intmat.hnf": _out_bits,
    "enumeration.short_vectors": _vectors,
    "embeddings.glue_data": _elements,
}

# the metrics reported, in BENCHMARK.json order; all but out_bits are per op
PER_LAYER = (
    ("intmat.snf.calls", "count"),
    ("intmat.snf.self_ms", "ms"),
    ("intmat.snf.out_bits", "bits"),
    ("intmat.hnf.self_ms", "ms"),
    ("intmat.hnf.out_bits", "bits"),
    ("intmat.kernel_basis.self_ms", "ms"),
    ("intmat.det.self_ms", "ms"),
    ("intmat.rat_inv.self_ms", "ms"),
    ("lattice.discriminant_group.calls", "count"),
    ("lattice.discriminant_group.self_ms", "ms"),
    ("lattice.signature.self_ms", "ms"),
    ("lattice.load_lattice.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("enumeration.short_vectors.self_ms", "ms"),
    ("enumeration.short_vectors.vectors", "count"),
    ("embeddings.glue_data.self_ms", "ms"),
    ("embeddings.glue_data.elements", "count"),
    ("embeddings.LatticeEmbedding.self_ms", "ms"),
    ("embeddings.orthogonal_complement.self_ms", "ms"),
    ("arith.is_odd_prime.calls", "count"),
    ("arith.is_odd_prime.self_ms", "ms"),
    ("arith.legendre.calls", "count"),
    ("arith.find_d.self_ms", "ms"),
    ("checker.build_case.self_ms", "ms"),
    ("checker.verify_certificate.self_ms", "ms"),
    ("checker.decide_enriques.self_ms", "ms"),
    ("checker.gamma2_in_k3.self_ms", "ms"),
)


class Tracer:
    def __init__(self):
        self.records = {}
        self._stack = []  # nanoseconds of wrapped child spans, one slot per open span

    def reset(self):
        for rec in self.records.values():
            rec.update(dict.fromkeys(rec, 0))

    def wrap(self, name, fn):
        rec = self.records[name] = dict.fromkeys(("calls", "self_ns", "out_bits", "vectors", "elements"), 0)
        measure = MEASURES.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            stack.append(0)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = perf_counter_ns() - t0
                rec["calls"] += 1
                rec["self_ns"] += span - stack.pop()
                if stack:
                    stack[-1] += span
            if measure is not None:
                t1 = perf_counter_ns()
                measure(rec, out)
                if stack:
                    stack[-1] += perf_counter_ns() - t1
            return out

        return traced

    def metrics(self, ops: int) -> dict:
        out = {}
        for metric, unit in PER_LAYER:
            name, field = metric.rsplit(".", 1)
            rec = self.records[name]
            if field == "self_ms":
                value = rec["self_ns"] / 1e6 / ops
            elif field == "out_bits":
                value = rec["out_bits"]
            else:
                value = rec[field] / ops
            out[metric] = {"value": value, "unit": unit}
        return out


def install() -> Tracer:
    """Wrap every TARGETS function in every k3enriques module that refers to it."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"k3enriques.{name}") for name in TARGETS}
    package = [m for n, m in sys.modules.items() if n == "k3enriques" or n.startswith("k3enriques.")]
    for modname, names in TARGETS.items():
        mod = modules[modname]
        for name in names:
            orig = getattr(mod, name)
            if isinstance(orig, type):  # a class: time its constructor
                orig.__init__ = tracer.wrap(f"{modname}.{name}", orig.__init__)
                continue
            traced = tracer.wrap(f"{modname}.{name}", orig)
            if hasattr(orig, "cache_clear"):
                traced.cache_clear = orig.cache_clear
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, traced)
    return tracer
