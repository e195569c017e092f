"""Benchmark harness for k3enriques.

    python3 perfbench/run.py [--workload decide|geometry|all] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process (single-threaded) against the package in
``src/`` of the checkout: it makes the inputs from the seed, repeats whole
rounds of operations for at least S seconds, checks every output against
computations made apart from the program, and prints one JSON object as its
last line of output. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 they are per-module figures from spans around the package's public
functions. ``--workload all`` runs each workload in its own process and
prints a table. Exit code 0 means every output was checked and correct.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("decide", "geometry")
SETUP_REPEATS = 7

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("build_p50_ms", "ms"),
    ("verify_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _import_program():
    """Import k3enriques from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    import k3enriques

    if Path(k3enriques.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"k3enriques comes from {k3enriques.__file__}, not {SRC}")


def _setup(workload_cls, seed: int, workdir: Path):
    """Make the inputs SETUP_REPEATS times, each after a cold import of the
    package in a fresh interpreter; return the last workload and the median
    seconds of one import plus input generation."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import k3enriques"], env=env, check=True)
        workload = workload_cls(random.Random(f"{workload_cls.name}:{seed}"), workdir)
        times.append(perf_counter() - t0)
    return workload, statistics.median(times)


def _probe() -> int:
    """Nanoseconds of a fixed pure-Python loop of about a millisecond."""
    t0 = perf_counter_ns()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return perf_counter_ns() - t0


def _pin_fastest(cpus):
    """Move this process to the CPU, of those it may use, that runs the probe
    fastest right now. On a shared host each CPU has slow spells of its own,
    lasting seconds, when another tenant loads it."""
    if len(cpus) > 1:
        speed = {}
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(_probe(), _probe())
        os.sched_setaffinity(0, {min(cpus, key=speed.get)})


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _fastest(times):
    """Per input, the fastest of its repetitions in this run, in ms."""
    return [min(t) / 1e6 for t in times if t]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_program()
    import tracing
    import workloads

    workdir = Path(__file__).resolve().parent / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        tracer = tracing.install() if trace else None
        workload, setup_s = _setup(workloads.WORKLOADS[name], seed, workdir)
        inputs = workload.inputs
        op_ns, build_ns, verify_ns = ([[] for _ in inputs] for _ in range(3))
        # outputs are deterministic: the first output of each input is kept for
        # the checks, later ones must have the same digest (so that memory does
        # not grow with the number of rounds)
        first, digests, errors = {}, {}, []
        ops, failed, rounds = 0, 0, 0
        # each op starts from an empty young generation, so that the garbage
        # collector runs at the same points of an op in every repetition;
        # frozen objects (imports, inputs) are not scanned again
        gc.collect()
        gc.freeze()
        cpus = sorted(os.sched_getaffinity(0))
        start = perf_counter_ns()
        while rounds == 0 or perf_counter_ns() - start < seconds * 1e9:
            rounds += 1
            for i, inp in enumerate(inputs):
                gc.collect()
                _pin_fastest(cpus)
                t0 = perf_counter_ns()
                try:
                    output, build, verify = workload.run(inp)
                except Exception:  # an operation that raises counts as failed
                    failed += 1
                    if failed == 1:
                        traceback.print_exc()
                    continue
                op_ns[i].append(perf_counter_ns() - t0)
                build_ns[i].append(build)
                if verify is not None:
                    verify_ns[i].append(verify)
                ops += 1
                digest = hashlib.sha256(repr(output).encode()).digest()
                if i not in first:
                    first[i], digests[i] = output, digest
                elif digest != digests[i]:
                    errors.append(f"{inp!r}: output differs from its first run")
        elapsed = (perf_counter_ns() - start) / 1e9
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # taken before the checks, which call the verifier again
        layers = tracer.metrics(max(ops, 1)) if trace else None
        for i, output in first.items():
            rng = random.Random(f"check:{name}:{seed}:{i}")
            errors += workload.check(inputs[i], output, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    op_ms = _fastest(op_ns)
    if trace:
        metrics = layers
    else:
        values = {
            "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": _p90(op_ms),
            "build_p50_ms": statistics.median(_fastest(build_ns)),
            "verify_p50_ms": statistics.median(_fastest(verify_ns)),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    print(
        f"# {name} seed={seed} trace={int(trace)}: {rounds} rounds of {len(inputs)} ops "
        f"in {elapsed:.1f} s, {failed} failed, {len(errors)} check errors, "
        f"op_p50_ms {statistics.median(op_ms):.3f}"
    )
    return {"correct": not errors, "attempted": ops + failed, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = results[name] = json.loads(lines[-1])
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:44s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps(results))
    return 0


def _terminate(signum, frame):
    # turn SIGTERM into SystemExit, so that the scratch directory and any
    # child process are cleaned up on the way out
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: cannot run the package in {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
