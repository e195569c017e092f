"""Inputs and operations of the two benchmark workloads.

Each workload is made of two parts, and a part makes its share of a round of
operations from the seed. A run repeats the whole round until its time is up,
so every run of a seed does the same operations in the same proportions.
Inputs are stratified (one seeded value near the middle of each band of
magnitude, or a fixed catalogue of lattice shapes) so that the mix, and with
it the median, hardly moves from seed to seed.

An operation returns ``(output, build_ns, verify_ns)``: the nanoseconds of the
stage that computes a result and of the stage in which the program checks that
result again. ``verify_ns`` is None where an input has no second stage.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from time import perf_counter_ns

from k3enriques import checker, cli, embeddings, lattice

import checks

VERDICT_STRATA = 10  # primes per round, one per band of log10 p in [9, 10]
CERTIFY_STRATA = 8  # values of d per round, one per band of log10 d in [0, 10]
SKEW_STEPS = 20  # elementary row operations in each change of basis
SKEW_CANDIDATES = 12  # changes of basis drawn per definite lattice
SKEW_TARGET = 5.0  # kept: the one whose enumeration estimate is nearest 5x the unskewed one


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _stratum(rng: random.Random, i: int, count: int, lo: float, hi: float) -> int:
    """A seeded integer near the middle (in log scale) of the i-th of `count`
    equal bands of [10^lo, 10^hi]: within 1% of it, so that the cost of the
    ops, which grows with the magnitude, hardly depends on the seed."""
    centre = 10 ** (lo + (hi - lo) * (i + 0.5) / count)
    return int(centre * (1 + rng.random() / 100))


class Verdicts:
    """decide_enriques for sigma = 1..10 at one prime p, then verify_certificate
    on each Yes certificate through its JSON text."""

    name = "verdicts"

    def __init__(self, rng: random.Random, workdir):
        self.inputs = [
            _next_prime(_stratum(rng, i, VERDICT_STRATA, 9, 10))
            for i in range(VERDICT_STRATA)
        ]

    def run(self, p):
        checker.build_case.cache_clear()
        t0 = perf_counter_ns()
        verdicts = [checker.decide_enriques(p, sigma) for sigma in range(1, 11)]
        t1 = perf_counter_ns()
        verified = [
            checker.verify_certificate(json.loads(json.dumps(v.certificate.to_doc())))
            for v in verdicts
            if v.certificate is not None
        ]
        t2 = perf_counter_ns()
        return (verdicts, verified), t1 - t0, t2 - t1

    def check(self, p, output, rng):
        return checks.check_verdicts(p, *output)


class Certify:
    """For one d and each sigma in 2..5: cold build_case(sigma, d) and its JSON
    text, then parsing and verify_certificate. One op covers all four sigma, so
    that op times do not split into one cluster per sigma."""

    name = "certify"

    def __init__(self, rng: random.Random, workdir):
        # d prime: factoring 4d by trial division then costs ~sqrt(d), smoothly
        self.inputs = [
            _next_prime(_stratum(rng, i, CERTIFY_STRATA, 0, 10))
            for i in range(CERTIFY_STRATA)
        ]

    def run(self, d):
        build_ns = verify_ns = 0
        docs, verified = [], []
        for sigma in (2, 3, 4, 5):
            checker.build_case.cache_clear()
            t0 = perf_counter_ns()
            text = json.dumps(checker.build_case(sigma, d).to_doc())
            t1 = perf_counter_ns()
            doc = json.loads(text)
            verified.append(checker.verify_certificate(doc))
            t2 = perf_counter_ns()
            build_ns += t1 - t0
            verify_ns += t2 - t1
            docs.append(doc)
        return (docs, verified), build_ns, verify_ns

    def check(self, d, output, rng):
        errors = []
        for sigma, doc, verified in zip((2, 3, 4, 5), *output):
            errors += checks.check_certify(sigma, d, doc, verified, checker.verify_certificate, rng)
        return errors


def _skewed_blocks(shape):
    """The Gram matrices of the blocks of `shape`, each under a change of basis
    by elementary row operations with coefficient +-1.

    The row operations come from a generator seeded with the shape alone, so
    the skew, and with it the cost of an op, is the same for every seed. They
    stay inside each block: operations that mix blocks make intmat.snf blow up
    on some draws (see the README). For a definite shape, SKEW_CANDIDATES
    draws are made and the one whose enumeration estimate is nearest
    SKEW_TARGET times that of the unskewed sum is kept.
    """
    fixed = random.Random("skew:" + "+".join(shape))
    grams = [checks.block_gram(b) for b in shape]
    n = sum(len(g) for g in grams)

    def draw():
        out = []
        for g in grams:
            k = len(g)
            u = [[int(i == j) for j in range(k)] for i in range(k)]
            for _ in range(round(SKEW_STEPS * k / n) if k > 1 else 0):
                i, j = fixed.sample(range(k), 2)
                c = fixed.choice((-1, 1))
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            out.append(checks.congruent(g, u))
        return out

    if not checks.is_definite(shape):
        return draw()
    target = SKEW_TARGET * _enumeration_cost(checks.block_sum(grams))
    cands = [draw() for _ in range(SKEW_CANDIDATES)]
    return min(cands, key=lambda c: abs(math.log(_enumeration_cost(checks.block_sum(c)) / target)))


def _seeded_copy(skewed, rng: random.Random):
    """The orthogonal sum of the skewed blocks with a seeded sign on each basis
    vector. The seed changes the file but not the work it takes: a seeded
    order of the blocks, or of the whole basis, changes that work up to
    sixfold, since enumeration runs on the basis as given."""
    gram = checks.block_sum(skewed)
    sign = [rng.choice((-1, 1)) for _ in gram]
    return [[si * sj * x for sj, x in zip(sign, row)] for si, row in zip(sign, gram)]


def _enumeration_cost(gram, bound: int = 2) -> float:
    """Gaussian-heuristic node count of Fincke-Pohst on a definite Gram matrix,
    in floats: it ranks changes of basis by how hard they make enumeration."""
    n = len(gram)
    sign = -1 if gram[0][0] < 0 else 1
    a = [[sign * float(x) for x in row] for row in gram]
    for i in range(n):
        for k in range(i + 1, n):
            f = a[k][i] / a[i][i]
            for j in range(i + 1, n):
                a[k][j] -= f * a[i][j]
    total, log_det = 0.0, 0.0
    for k in range(1, n + 1):
        log_det += math.log(a[n - k][n - k])
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1) * bound ** (k / 2)
        total += ball * math.exp(-log_det / 2)
    return total


class Lattices:
    """`lattice info` on a lattice file and, for a definite lattice,
    `lattice roots --norm -2`, both through cli.main."""

    name = "lattices"

    # A fixed catalogue keeps the mix of ranks and block types the same for
    # every seed; the seed draws a sign for each basis vector.
    SHAPES = (
        ("E8",),
        ("A4", "D5"),
        ("E6", "A3"),
        ("D4", "D4", "A2"),
        ("E7", "A4"),
        ("E8(2)", "A4"),
        ("E8", "A5"),
        ("E6", "E7"),
        ("E8", "D6"),
        ("E8(2)", "E8(2)"),
        ("U", "E8"),
        ("U(2)", "E8(2)"),
        ("U", "U(2)", "E8(2)"),
        ("U", "E8", "E8"),
        ("U(2)", "E8(2)", "A3", "D5"),
        ("U", "E7", "A6", "D5"),
        ("U", "U", "U", "E8", "E8"),
    )
    FIXTURES = {
        "U": ("U",),
        "E8": ("E8",),
        "E8_2": ("E8(2)",),
        "Gamma": ("U", "E8"),
        "Gamma_2": ("U(2)", "E8(2)"),
        "LambdaK3": ("U", "U", "U", "E8", "E8"),
    }

    def __init__(self, rng: random.Random, workdir):
        self.inputs = []
        for k, shape in enumerate(self.SHAPES):
            gram = _seeded_copy(_skewed_blocks(shape), rng)
            label = "+".join(shape)
            path = workdir / f"lattice{k:02d}.json"
            with open(path, "w") as f:
                json.dump({"label": label, "rank": len(gram), "gram": sum(gram, [])}, f)
            self.inputs.append((str(path), label, shape, gram))
        for name, blocks in self.FIXTURES.items():
            path = lattice.fixture_path(name)
            with open(path) as f:
                doc = json.load(f)
            n = doc["rank"]
            gram = [doc["gram"][i * n : (i + 1) * n] for i in range(n)]
            self.inputs.append((str(path), doc["label"], blocks, gram))

    def run(self, item):
        path, _, blocks, _ = item
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t0 = perf_counter_ns()
            codes = [cli.main(["lattice", "info", path])]
            t1 = perf_counter_ns()
            if checks.is_definite(blocks):
                codes.append(cli.main(["lattice", "roots", path, "--norm", "-2"]))
            t2 = perf_counter_ns()
        verify_ns = t2 - t1 if len(codes) > 1 else None
        return (codes, out.getvalue()), t1 - t0, verify_ns

    def check(self, item, output, rng):
        _, label, blocks, gram = item
        return checks.check_lattice(label, blocks, gram, *output)


class Glue:
    """gamma2_in_k3, then extends_to on the glue data it computed, for the
    identity and for identity (+) -1 (the Enriques-type involution)."""

    name = "glue"

    def __init__(self, rng: random.Random, workdir):
        self.inputs = [None]

    def run(self, _):
        # gamma2_in_k3 reports only the order; keep the glue data it builds
        computed, kept = checker.glue_data, []

        def keep(*args, **kwargs):
            kept.append(computed(*args, **kwargs))
            return kept[-1]

        checker.glue_data = keep
        try:
            t0 = perf_counter_ns()
            report = checker.gamma2_in_k3()
            t1 = perf_counter_ns()
        finally:
            checker.glue_data = computed
        (g,) = kept
        extends = (
            embeddings.extends_to(embeddings.identity_map, embeddings.identity_map, g),
            embeddings.extends_to(embeddings.identity_map, embeddings.negation_map, g),
        )
        t2 = perf_counter_ns()
        return (report, g, extends), t1 - t0, t2 - t1

    def check(self, _, output, rng):
        return checks.check_glue(*output)


class Mixed:
    """A round made of the inputs of `parts`, one part after the other, from
    one seeded random stream."""

    parts = ()

    def __init__(self, rng: random.Random, workdir):
        parts = [cls(rng, workdir) for cls in self.parts]
        self.inputs = [(part, inp) for part in parts for inp in part.inputs]

    def run(self, item):
        part, inp = item
        return part.run(inp)

    def check(self, item, output, rng):
        part, inp = item
        return part.check(inp, output, rng)


class Decide(Mixed):
    """The decision pipeline: verdict rows (arith, checker) and cold
    certificate round trips at large d (intmat, lattice, factoring of 4d)."""

    name = "decide"
    parts = (Verdicts, Certify)


class Geometry(Mixed):
    """Lattice files through the CLI (enumeration, snf on generic Grams) and
    gamma2_in_k3 (glue_data), with no arith and no build_case."""

    name = "geometry"
    parts = (Lattices, Glue)


WORKLOADS = {w.name: w for w in (Decide, Geometry)}
