"""Checks of the program's outputs against computations made apart from it.

Nothing here calls the library's algorithms: residues come from Euler's
criterion with ``pow``, primality and exact linear algebra from sympy, matrix
products from plain ints, and lattice invariants from the known data of the
root lattices the inputs are built from. Each check returns a list of error
strings, empty when the output is right.
"""
from __future__ import annotations

import copy
from math import isqrt, prod

import sympy
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors


# --- lattice blocks ---------------------------------------------------------


def _dynkin(n, edges):
    """Negative-definite Cartan form: -2 on the diagonal, 1 on each edge."""
    g = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        g[a][b] = g[b][a] = 1
    return g


def _chain(n):
    return [(i, i + 1) for i in range(n - 1)]


def block_gram(name: str):
    """Gram matrix of A_n, D_n, E6, E7, E8, U, U(2) or E8(2)."""
    twist = 2 if name.endswith("(2)") else 1
    base = name[:-3] if twist == 2 else name
    if base == "U":
        g = [[0, 1], [1, 0]]
    else:
        kind, n = base[0], int(base[1:])
        if kind == "A":
            g = _dynkin(n, _chain(n))
        elif kind == "D":
            g = _dynkin(n, _chain(n - 1) + [(n - 3, n - 1)])
        else:  # E_n: a chain of n - 1 nodes with one more node on the third
            g = _dynkin(n, _chain(n - 1) + [(2, n - 1)])
    return [[twist * x for x in row] for row in g]


def block_roots(name: str) -> int:
    """Number of norm -2 vectors of a definite block."""
    if name.endswith("(2)"):
        return 0
    kind, n = name[0], int(name[1:])
    if kind == "A":
        return n * (n + 1)
    if kind == "D":
        return 2 * n * (n - 1)
    return {6: 72, 7: 126, 8: 240}[n]


def block_disc(name: str) -> list:
    """Orders of the cyclic factors of the block's discriminant group."""
    if name == "U" or name == "E8":
        return []
    if name == "U(2)":
        return [2, 2]
    if name == "E8(2)":
        return [2] * 8
    kind, n = name[0], int(name[1:])
    if kind == "A":
        return [n + 1]
    if kind == "D":
        return [4] if n % 2 else [2, 2]
    return {6: [3], 7: [2]}[n]


def block_signature(name: str) -> tuple:
    return (1, 1) if name.startswith("U") else (0, len(block_gram(name)))


def is_definite(blocks) -> bool:
    return not any(b.startswith("U") for b in blocks)


def block_sum(grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    start = 0
    for g in grams:
        for i, row in enumerate(g):
            out[start + i][start : start + len(row)] = row
        start += len(g)
    return out


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def congruent(gram, u):
    """u . gram . u^T with plain ints."""
    return matmul(matmul(u, gram), transpose(u))


def _prime_powers(values) -> list:
    return sorted(p**e for v in values for p, e in sympy.factorint(v).items())


def invariant_chain(orders) -> list:
    """Invariant factors (> 1, ascending) of a product of cyclic groups."""
    by_prime: dict = {}
    for q in _prime_powers(orders):
        (p,) = sympy.factorint(q)
        by_prime.setdefault(p, []).append(q)
    depth = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for k in range(depth):
        chain.append(prod(sorted(v, reverse=True)[k] for v in by_prime.values() if k < len(v)))
    return sorted(chain)


# --- verdicts ---------------------------------------------------------------


def expected_verdict(p: int, sigma: int):
    """(answer, d): sigma = 1 is Yes, sigma >= 6 is No, otherwise d is the
    least value with 8d < p and -d a square (sigma 2, 4) or a non-square
    (sigma 3, 5) mod p."""
    if sigma == 1:
        return "Yes", None
    if sigma >= 6:
        return "No", None
    want = 1 if sigma in (2, 4) else p - 1
    for d in range(1, (p - 1) // 8 + 1):
        if pow(-d % p, (p - 1) // 2, p) == want:
            return "Yes", d
    return "Unknown", None


def check_verdicts(p, verdicts, verified) -> list:
    errors = []
    if not sympy.isprime(p):
        errors.append(f"input {p} is not prime")
    certified = 0
    for sigma, v in enumerate(verdicts, start=1):
        answer, d = expected_verdict(p, sigma)
        if (v.p, v.sigma, v.answer, v.d) != (p, sigma, answer, d):
            errors.append(f"p={p} sigma={sigma}: got {v.answer} d={v.d}, want {answer} d={d}")
        if d is not None:
            certified += 1
            cert = v.certificate
            if cert is None or not cert.passed or (cert.sigma, cert.d) != (sigma, d):
                errors.append(f"p={p} sigma={sigma}: certificate missing or failing")
    if len(verdicts) != 10:
        errors.append(f"p={p}: {len(verdicts)} verdicts, want 10")
    if len(verified) != certified or any(r != (True, []) for r in verified):
        errors.append(f"p={p}: certificates do not all verify: {verified}")
    return errors


# --- certificates -----------------------------------------------------------

N_DIVISORS = {
    2: lambda d: [4 * d, 4] + [2] * 6,
    3: lambda d: [4 * d, 4, 4, 4, 2, 2],
    4: lambda d: [4 * d, 4, 4, 4],
    5: lambda d: [4 * d, 4],
}


def _mutate(doc, rng):
    """A copy of `doc` with one field changed, and the name of that field.

    The ambient Gram matrix is not among the fields: the verifier does not
    compare it with U(2) + E8(2) first, but recomputes the whole case on the
    changed matrix, and intmat.snf then runs for seconds to minutes on some
    seeds (see the README)."""
    bad = copy.deepcopy(doc)
    field = rng.choice(
        ("d", "sigma", "passed", "check", "witness",
         "embedding_basis", "complement_basis", "complement_gram")
    )
    if field == "d":
        bad["d"] += 1
    elif field == "sigma":
        bad["sigma"] = rng.choice([s for s in (2, 3, 4, 5) if s != doc["sigma"]])
    elif field == "passed":
        bad["passed"] = False
    elif field == "check":
        c = rng.choice(bad["checks"])
        c["passed"] = not c["passed"]
    elif field == "witness":
        ints = [(c, k) for c in bad["checks"] for k, v in c["witness"].items() if type(v) is int]
        c, key = rng.choice(ints)
        c["witness"][key] += 1
    else:
        m = bad[field]
        i = rng.randrange(len(m))
        m[i][rng.randrange(len(m[i]))] += 2
    return bad, field


def check_certify(sigma, d, doc, verified, verify, rng) -> list:
    """Check one certificate document; `verify` is the verifier under test,
    run once more on a seeded one-field mutation that it must refuse."""
    errors = []
    if verified != (True, []):
        errors.append(f"({sigma}, {d}): verify_certificate refused it: {verified}")
    if (doc["sigma"], doc["d"], doc["passed"]) != (sigma, d, True):
        errors.append(f"({sigma}, {d}): document says sigma={doc['sigma']} d={doc['d']}")
    g, b, c = doc["ambient_gram"], doc["embedding_basis"], doc["complement_basis"]
    if matmul(matmul(c, g), transpose(c)) != doc["complement_gram"]:
        errors.append(f"({sigma}, {d}): complement Gram is not C.G.C^T")
    if any(x for row in matmul(matmul(c, g), transpose(b)) for x in row):
        errors.append(f"({sigma}, {d}): C.G.B^T is not zero")
    n_gram = doc["complement_gram"] if sigma in (2, 3) else matmul(matmul(b, g), transpose(b))
    n = sympy.Matrix(n_gram)
    factors = [int(x) for x in invariant_factors(n, domain=ZZ) if abs(int(x)) > 1]
    if _prime_powers(abs(x) for x in factors) != _prime_powers(N_DIVISORS[sigma](d)):
        errors.append(f"({sigma}, {d}): N-side invariant factors {factors}")
    minors = [n[:k, :k].det() for k in range(1, n.rows + 1)]
    if any((-1) ** k * m <= 0 for k, m in enumerate(minors, start=1)):
        errors.append(f"({sigma}, {d}): N side is not negative definite")
    bad, field = _mutate(doc, rng)
    if verify(bad)[0]:
        errors.append(f"({sigma}, {d}): a certificate with {field} changed verifies")
    return errors


# --- lattice files ----------------------------------------------------------


def check_lattice(label, blocks, gram, codes, text) -> list:
    """Check `lattice info` (and `lattice roots` output for definite inputs)
    against the invariants of the blocks the lattice is made of."""
    errors = []
    info = dict(line.split(": ", 1) for line in text.splitlines()[:6])
    plus = sum(block_signature(b)[0] for b in blocks)
    minus = sum(block_signature(b)[1] for b in blocks)
    orders = [q for b in blocks for q in block_disc(b)]
    want = {
        "label": label,
        "rank": str(len(gram)),
        "det": str((-1) ** minus * prod(orders)),
        "signature": f"({plus},{minus})",
        "even": "True",
        "divisors": str(invariant_chain(orders)),
    }
    if info != want or any(codes):
        errors.append(f"{label}: info {info} exit {codes}, want {want}")
    if not is_definite(blocks):
        return errors
    rest = text.splitlines()[6:]
    roots = sum(block_roots(b) for b in blocks)
    if not rest or rest[0] != f"count: {roots}" or len(rest) != roots + 1:
        errors.append(f"{label}: roots {rest[:1]} with {len(rest) - 1} vectors, want {roots}")
    vectors = {tuple(int(x) for x in line.split()) for line in rest[1:]}
    if len(vectors) != len(rest) - 1:
        errors.append(f"{label}: a root is listed twice")
    for v in vectors:
        if sum(v[i] * gram[i][j] * v[j] for i in range(len(v)) for j in range(len(v))) != -2:
            errors.append(f"{label}: listed vector {v} does not have norm -2")
            break
    return errors


# --- glue -------------------------------------------------------------------


def _k3_grams():
    """Gram matrices of Lambda = U^3 + E8^2, of the diagonal Gamma(2) inside it
    and of its complement, on bases written down by hand."""
    lam = block_sum([block_gram(b) for b in ("U", "U", "U", "E8", "E8")])

    def unit(*pairs):
        v = [0] * 22
        for i, s in pairs:
            v[i] = s
        return v

    diag = [unit((0, 1), (2, 1)), unit((1, 1), (3, 1))]
    diag += [unit((6 + i, 1), (14 + i, 1)) for i in range(8)]
    anti = [unit((0, 1), (2, -1)), unit((1, 1), (3, -1)), unit((4, 1)), unit((5, 1))]
    anti += [unit((6 + i, 1), (14 + i, -1)) for i in range(8)]
    return lam, diag, anti


def check_glue(report, glue, extends) -> list:
    errors = []
    lam, diag, anti = _k3_grams()
    if any(x for row in matmul(matmul(anti, lam), transpose(diag)) for x in row):
        errors.append("hand-written complement is not orthogonal")
    d_gamma2 = sympy.Matrix(congruent(lam, diag)).det()
    d_comp = sympy.Matrix(congruent(lam, anti)).det()
    d_lam = sympy.Matrix(lam).det()
    index_sq = abs(d_gamma2 * d_comp) // abs(d_lam)
    order = isqrt(index_sq)
    if order * order != index_sq:
        errors.append(f"glue index squared {index_sq} is not a square")
    if not report.passed or report.glue_order != order or glue.order != order:
        errors.append(f"glue order {report.glue_order}, want {order}")
    witness = {c.name: c.witness for c in report.checks}.get("complement_discriminant", {})
    if witness.get("computed") != d_comp:
        errors.append(f"complement discriminant {witness.get('computed')}, want {d_comp}")
    halves = all(2 * x in (0, 1) for pair in glue.elements for side in pair for x in side)
    if not halves or extends != (True, True):
        errors.append(f"a 2-elementary glue group lets +-1 extend; got {extends}")
    return errors
