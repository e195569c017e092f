"""Reach trace: which function and class body lines of src/k3enriques no pipeline runs.

    python tests/reach_trace.py

Under sys.settrace, with every file written to a temporary directory, it runs
through cli.main: `lattice info` and `lattice roots` on the six shipped
fixtures; `case build` (to stdout and to a file), `case verify` and the verify
of a forged copy for five (sigma, d) cases; `decide` (text and --json) at five
primes and sigma 1..10; and `survey --pmax 200 --csv`.  Then gamma2_in_k3,
with extends_to on the glue data it builds.  It prints, per module, the
executable lines of function and class bodies that never ran (docstrings
excluded), as line ranges with the top-level name that holds them, and the
reached total.  Stdlib only; pytest does not collect this file.
"""
from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "k3enriques"
CASES = [(2, 1), (3, 2), (4, 3), (5, 5), (3, 10**9 + 7)]
PRIMES = [3, 23, 1000003, 1000033, 999999937]


def _body_lines(path: Path) -> dict[int, str]:
    """{line: top-level name} for every line with bytecode in a function or
    class body of the module at path, docstrings and def/class lines excluded."""
    source = path.read_text()
    tree = ast.parse(source)
    docs, owner = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for node in tree.body:
        owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), getattr(node, "name", "")))
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                lines.update(x for _, _, x in const.co_lines() if x and x != const.co_firstlineno)
                todo.append(const)
    return {x: owner[x] for x in sorted(lines - docs)}


def _pipelines(tmp: Path) -> None:
    cli = importlib.import_module("k3enriques.cli")
    checker = importlib.import_module("k3enriques.checker")
    embeddings = importlib.import_module("k3enriques.embeddings")
    lattice = importlib.import_module("k3enriques.lattice")

    def run(*argv):
        cli.main([str(a) for a in argv])

    for name in lattice.FIXTURES:
        run("lattice", "info", lattice.fixture_path(name))
        run("lattice", "roots", lattice.fixture_path(name))
    for sigma, d in CASES:
        out, forged = tmp / f"case-{sigma}-{d}.json", tmp / f"forged-{sigma}-{d}.json"
        run("case", "build", "--sigma", sigma, "--d", d)
        run("case", "build", "--sigma", sigma, "--d", d, "--out", out)
        run("case", "verify", out)
        doc = json.loads(out.read_text())
        doc["checks"][0]["passed"] = not doc["checks"][0]["passed"]
        forged.write_text(json.dumps(doc))
        run("case", "verify", forged)
    for p in PRIMES:
        for sigma in range(1, 11):
            run("decide", "--p", p, "--sigma", sigma)
            run("decide", "--p", p, "--sigma", sigma, "--json")
    run("survey", "--pmax", 200, "--csv", tmp / "survey.csv")
    computed, kept = checker.glue_data, []
    checker.glue_data = lambda *args: kept.append(computed(*args)) or kept[-1]
    try:
        checker.gamma2_in_k3()
    finally:
        checker.glue_data = computed
    for phibar in (embeddings.identity_map, embeddings.negation_map):
        embeddings.extends_to(embeddings.identity_map, phibar, kept[-1])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(str(PACKAGE)) else None

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(trace)
        try:
            _pipelines(Path(tmp))
        finally:
            sys.settrace(None)
    total = reached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        body = _body_lines(path)
        missed = [x for x in body if (str(path), x) not in hits]
        total, reached = total + len(body), reached + len(body) - len(missed)
        print(f"{path.name}: {len(missed)} of {len(body)} body lines not reached")
        runs = []  # runs of missed lines with no reached body line between them
        for x in missed:
            if runs and runs[-1][1] == body[x] and not any(
                (str(path), y) in hits for y in body if runs[-1][0][-1] < y < x
            ):
                runs[-1][0].append(x)
            else:
                runs.append(([x], body[x]))
        for xs, name in runs:
            span = f"{xs[0]}-{xs[-1]}" if len(xs) > 1 else f"{xs[0]}"
            print(f"  {span:>9}  {name}")
    print(f"reached {reached} of {total} body lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
