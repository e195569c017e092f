"""The output checks catch corrupted outputs.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import contextlib
import dataclasses
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from k3enriques import checker, cli

import checks
import run
import tracing


def _verdict_row(p):
    checker.build_case.cache_clear()
    verdicts = [checker.decide_enriques(p, sigma) for sigma in range(1, 11)]
    verified = [
        checker.verify_certificate(v.certificate.to_doc()) for v in verdicts if v.certificate
    ]
    return verdicts, verified


def test_verdicts_wrong_d_is_caught():
    p = 1000003
    verdicts, verified = _verdict_row(p)
    assert checks.check_verdicts(p, verdicts, verified) == []
    wrong = list(verdicts)
    wrong[2] = dataclasses.replace(wrong[2], d=wrong[2].d + 1)
    assert checks.check_verdicts(p, wrong, verified)


def _lattice_output(tmp_path, blocks):
    gram = checks.block_sum([checks.block_gram(b) for b in blocks])
    path = tmp_path / "lattice.json"
    label = "+".join(blocks)
    path.write_text(json.dumps({"label": label, "rank": len(gram), "gram": sum(gram, [])}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = [cli.main(["lattice", "info", str(path)])]
        codes.append(cli.main(["lattice", "roots", str(path), "--norm", "-2"]))
    return label, gram, codes, out.getvalue()


@pytest.mark.parametrize("blocks", [("A2",), ("D4", "A1"), ("E6",)])
def test_lattice_root_count_off_by_one_is_caught(tmp_path, blocks):
    label, gram, codes, text = _lattice_output(tmp_path, blocks)
    assert checks.check_lattice(label, blocks, gram, codes, text) == []
    roots = sum(checks.block_roots(b) for b in blocks)
    bad = text.replace(f"count: {roots}", f"count: {roots + 1}")
    assert checks.check_lattice(label, blocks, gram, codes, bad)
    dropped = "\n".join(text.splitlines()[:-1])
    assert checks.check_lattice(label, blocks, gram, codes, dropped)


def test_lattice_wrong_divisors_are_caught(tmp_path):
    label, gram, codes, text = _lattice_output(tmp_path, ("A3",))
    assert checks.check_lattice(label, ("A3",), gram, codes, text.replace("[4]", "[2, 2]"))


def test_mutated_certificate_is_caught():
    doc = checker.build_case(5, 3).to_doc()
    verify = checker.verify_certificate
    assert checks.check_certify(5, 3, doc, verify(doc), verify, random.Random(0)) == []
    bad = json.loads(json.dumps(doc))
    bad["complement_gram"][0][0] += 2
    assert checks.check_certify(5, 3, bad, verify(bad), verify, random.Random(0))


def test_every_mutation_is_refused():
    doc = checker.build_case(3, 7).to_doc()
    fields = set()
    for seed in range(60):
        bad, field = checks._mutate(doc, random.Random(seed))
        fields.add(field)
        assert not checker.verify_certificate(bad)[0], field
    assert len(fields) == 8


def test_glue_wrong_order_is_caught():
    # stand-ins for GlueReport and GlueData, so as not to spend seconds on gamma2_in_k3
    witness = SimpleNamespace(name="complement_discriminant", witness={"computed": 1024})
    elements = (((Fraction(1, 2),), (Fraction(0), Fraction(1, 2))),)

    def outputs(order):
        report = SimpleNamespace(passed=True, glue_order=order, checks=(witness,))
        return report, SimpleNamespace(order=order, elements=elements)

    assert checks.check_glue(*outputs(1024), (True, True)) == []
    assert checks.check_glue(*outputs(512), (True, True))
    assert checks.check_glue(*outputs(1024), (True, False))


def test_metric_lists_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
