"""Mutation audit: which one-token changes to named code no test notices.

    python tests/mutation_audit.py checker:_compute_case arith:_find_d:251-260 \
        -t tests/test_checker.py tests/test_arith.py

Each target is MODULE:NAME, a top-level function or class of
src/k3enriques/MODULE.py, optionally narrowed to the lines FIRST-LAST.
src/, tests/, perfbench/ (which tier-1 reads) and pyproject.toml are copied
to a temporary directory; the working tree is never edited.  One mutation at
a time is written into the copy: a one-operator comparison negated, `and`
<-> `or`, an int constant + 1, a bool flipped, or a `not` dropped.  Each
mutant runs the named test files with -x under the conftest watchdog, with
hypothesis's seed fixed at 0 so that a rerun draws the same examples, and a
table of the mutants no test kills is printed.  Stdlib only; pytest does not
collect this file.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NEGATED = [(ast.Eq, ast.NotEq), (ast.Lt, ast.GtE), (ast.Gt, ast.LtE), (ast.Is, ast.IsNot),
            (ast.In, ast.NotIn)]
_FLIP = {**dict(_NEGATED), **{b: a for a, b in _NEGATED}}


def _sites(tree: ast.Module, name: str, lines: range):
    """(node, label) for every mutable node of the top-level `name` within lines."""
    target = next(n for n in tree.body if getattr(n, "name", None) == name)
    for node in ast.walk(target):
        if getattr(node, "lineno", 0) not in lines:
            continue
        if isinstance(node, ast.Compare) and len(node.ops) == 1 and type(node.ops[0]) in _FLIP:
            yield node, f"{type(node.ops[0]).__name__} -> {_FLIP[type(node.ops[0])].__name__}"
        elif isinstance(node, ast.BoolOp):
            yield node, "and -> or" if isinstance(node.op, ast.And) else "or -> and"
        elif isinstance(node, ast.Constant) and type(node.value) in (int, bool):
            new = not node.value if type(node.value) is bool else node.value + 1
            yield node, f"{node.value!r} -> {new!r}"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, "drop not"


def _mutate(node: ast.AST) -> None:
    """Apply the site's mutation in place."""
    if isinstance(node, ast.Compare):
        node.ops = [_FLIP[type(node.ops[0])]()]
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif isinstance(node, ast.Constant):
        node.value = not node.value if type(node.value) is bool else node.value + 1
    else:  # not x -> not not x, which has the truth value of x
        node.operand = ast.UnaryOp(ast.Not(), node.operand)


def _run(tmp: Path, tests: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    # SIGTERM waits while the test process starts, so that the SystemExit it
    # raises always finds a process to kill; the process starts unblocked
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, [signal.SIGTERM])
    try:
        run = subprocess.Popen(
            cmd, cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            preexec_fn=lambda: signal.pthread_sigmask(signal.SIG_SETMASK, mask),
        )
    except BaseException:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        raise
    with run:  # waits for the killed process on the way out
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # a pending SIGTERM lands here
            output = run.communicate(timeout=600)[0]
        except subprocess.TimeoutExpired:
            run.kill()
            return "hang"
        except BaseException:  # SystemExit from _terminate
            run.kill()
            raise
    if "Timeout (" in output:
        return "hang"
    return "survived" if run.returncode == 0 else "killed"


def _terminate(signum, frame):
    # SystemExit unwinds the with-blocks: _run kills its test process and
    # TemporaryDirectory removes the copy
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="+", help="MODULE:NAME or MODULE:NAME:FIRST-LAST")
    ap.add_argument("-t", "--tests", nargs="+", required=True, help="test files, from the root")
    args = ap.parse_args(argv)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tmp / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if _run(tmp, args.tests) != "survived":
            sys.exit("the unmutated tests do not pass")
        for spec in args.targets:
            module, name, *span = spec.split(":")
            path = tmp / "src" / "k3enriques" / f"{module}.py"
            source = path.read_text()
            first, last = map(int, span[0].split("-")) if span else (0, len(source.splitlines()))
            lines = range(first, last + 1)
            for k in range(len(list(_sites(ast.parse(source), name, lines)))):
                tree = ast.parse(source)
                site, label = list(_sites(tree, name, lines))[k]
                _mutate(site)
                path.write_text(ast.unparse(tree))
                rows.append((f"{module}:{name}", site.lineno, label, _run(tmp, args.tests)))
                print(*rows[-1], sep="\t", flush=True)
            path.write_text(source)
    survivors = [r for r in rows if r[3] != "killed"]
    print(f"\n{len(rows)} mutants, {len(rows) - len(survivors)} killed, {len(survivors)} not:")
    print("| target | line | mutation | result |\n|---|---|---|---|")
    for r in survivors:
        print("| {} | {} | `{}` | {} |".format(*r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
