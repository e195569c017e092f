"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""
import functools
import json
import math
import random
import time
from fractions import Fraction as F

from k3enriques.arith import (
    HODGE_SLOPES,
    _heights,
    arth,
    is_odd_prime,
    newton_slopes,
    polygon_lies_above,
)
from k3enriques.checker import build_case, decide_enriques, verify_certificate
from k3enriques.cli import main as cli_main
from k3enriques.embeddings import (
    LatticeEmbedding,
    extends_to,
    glue_data,
    identity_map,
    negation_map,
    orthogonal_complement,
    overlattice,
)
from k3enriques.enumeration import count_norm
from k3enriques.intmat import det, hnf, kernel_basis, snf
from k3enriques.lattice import (
    IntegralLattice,
    builtin,
    diag_lattice,
    direct_sum,
    discriminant,
    discriminant_group,
    is_even,
    signature,
    twist,
)

from oracles import (
    arr,
    e8_root_count_euclidean,
    minors_invariant_factors,
    naive_hnf,
    random_even_symmetric,
    random_int_matrix,
)

ODD_PRIMES_200 = [p for p in range(3, 201) if is_odd_prime(p)]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            print(f"PASS criterion {num}: {desc}")

        return wrapper

    return deco


@criterion(1, "E8 root count 240, exact, < 1 s, box-enumeration cross-check")
def test_criterion_01():
    t0 = time.perf_counter()
    count = count_norm(builtin("E8"), -2)
    elapsed = time.perf_counter() - t0
    assert count == 240
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    # independent rank-8 box enumeration in the Euclidean coordinate model
    assert e8_root_count_euclidean() == 240


@criterion(2, "Gamma(2) and Lambda invariants")
def test_criterion_02():
    gamma2 = direct_sum(twist(builtin("U"), 2), twist(builtin("E8"), 2))
    assert discriminant(gamma2) == -1024
    assert discriminant_group(gamma2).divisors == (2,) * 10
    lam = builtin("LambdaK3")
    assert discriminant(lam) == -1
    assert signature(lam) == (3, 19)


@criterion(3, "20 case constructions: divisor formulas and disc identities, < 10 s")
def test_criterion_03():
    build_case.cache_clear()
    formulas = {
        2: lambda d: (4 * d, 4) + (2,) * 6,
        3: lambda d: (4 * d, 4, 4, 4, 2, 2),
        4: lambda d: (4 * d, 4, 4, 4),
        5: lambda d: (4 * d, 4),
    }
    dt = {2: lambda d: 16 * d, 3: lambda d: 256 * d, 4: lambda d: 1024 * d, 5: lambda d: 1024 * d}
    t0 = time.perf_counter()
    for sigma in (2, 3, 4, 5):
        for d in range(1, 6):
            cert = build_case(sigma, d)
            assert cert.passed, (sigma, d)
            by = {c.name: c for c in cert.checks}
            comp = by["n_divisors"].witness
            assert comp["computed_prime_powers"] == comp["formula_prime_powers"]
            assert by["n_divisors"].witness["formula"] == formulas[sigma](d)
            assert by["transcendental_disc"].witness["computed"] == dt[sigma](d)
            assert by["neron_severi_disc"].witness["value"] == -dt[sigma](d)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.3f}s"


@criterion(4, "root-freeness of all 20 complements by shortcut and enumeration")
def test_criterion_04():
    for sigma in (2, 3, 4, 5):
        for d in range(1, 6):
            cert = build_case(sigma, d)
            w = next(c for c in cert.checks if c.name == "n_root_free").witness
            assert w["mod4_shortcut"] is True
            assert w["enumeration_count"] == 0


@criterion(5, "dichotomy of verdicts on all odd primes up to 200")
def test_criterion_05():
    for p in ODD_PRIMES_200:
        for sigma in range(1, 11):
            v = decide_enriques(p, sigma)
            if sigma == 1:
                expected = "Yes"
            elif sigma >= 6:
                expected = "No"
            elif sigma in (3, 5):
                expected = "Yes" if (p == 11 or p >= 19) else "Unknown"
            else:
                expected = "Yes" if (p >= 13 and p != 23) else "Unknown"
            assert v.answer == expected, (p, sigma, v.answer, expected)
    # Corollary-style pattern: no Unknowns for p = 19 and 23 < p <= 200
    for p in [q for q in ODD_PRIMES_200 if q == 19 or q > 23]:
        for sigma in range(1, 11):
            v = decide_enriques(p, sigma)
            assert v.answer == ("Yes" if sigma <= 5 else "No")


@criterion(6, "sigma = 6 exclusion: obstruction fails for every odd prime <= 200")
def test_criterion_06():
    for p in ODD_PRIMES_200:
        assert arth(p, 6, -(2**10)) is False


@criterion(7, "gluing suite: overlattice, glue group, extension, index identity")
def test_criterion_07():
    M = diag_lattice([4, -4])
    ov = overlattice(M, [(F(1, 4), F(1, 4))])
    assert discriminant(ov) == -1
    assert is_even(ov)
    assert signature(ov) == (1, 1)
    assert ov.index**2 * abs(discriminant(ov)) == abs(discriminant(M))

    g4 = glue_data(diag_lattice([4]), diag_lattice([-4]), ov.basis_in_base)
    assert g4.order == 4
    assert not extends_to(identity_map, negation_map, g4)

    ov2 = overlattice(M, [(F(1, 2), F(1, 2))])
    assert ov2.index**2 * abs(discriminant(ov2)) == abs(discriminant(M))
    g2 = glue_data(diag_lattice([4]), diag_lattice([-4]), ov2.basis_in_base)
    assert all(2 * x.numerator % x.denominator == 0 for s1, _ in g2.elements for x in s1)
    assert extends_to(identity_map, negation_map, g2)


@criterion(8, "Newton/Hodge suite: ordinary equality, lies-above, h = 11 rejected")
def test_criterion_08():
    assert _heights(newton_slopes(1).slopes) == _heights(HODGE_SLOPES)
    for h in list(range(1, 11)) + [math.inf]:
        np_ = newton_slopes(h)
        assert polygon_lies_above(np_)
        mults = {s: m for s, m in np_.slopes}
        assert all(mults[2 - s] == m for s, m in np_.slopes)
    try:
        newton_slopes(11)
    except ValueError as exc:
        assert "22 - 2h" in str(exc)
    else:
        raise AssertionError("h = 11 was not rejected")


@criterion(9, "exact-linalg property suite on 500 random matrices")
def test_criterion_09():
    rng = random.Random(1234)
    for _ in range(500):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = random_int_matrix(rng, r, c, -3, 3)
        h, u = hnf(m)
        assert h.tolist() == naive_hnf(m.tolist())
        assert (arr(u) @ m == arr(h)).all()
        s, su, sv = snf(m)
        assert (arr(su) @ m @ arr(sv) == arr(s)).all()
        diag = [int(s[i, i]) for i in range(min(r, c)) if s[i, i] != 0]
        assert diag == minors_invariant_factors(m.tolist())
        k = kernel_basis(m)
        if k.shape[0]:
            sk, _, _ = snf(k)
            assert all(sk[i, i] == 1 for i in range(k.shape[0]))
    done = 0
    while done < 100:
        n = rng.randint(1, 5)
        g = random_even_symmetric(rng, n, -3, 3)
        d = det(g)
        if d == 0:
            continue
        assert discriminant_group(IntegralLattice(g)).order == abs(d)
        done += 1


@criterion(10, "certificate round-trip through the CLI with exit codes")
def test_criterion_10(tmp_path):
    yes = []
    for p in [q for q in ODD_PRIMES_200 if q <= 50]:
        for sigma in (2, 3, 4, 5):
            v = decide_enriques(p, sigma)
            if v.answer == "Yes":
                yes.append((p, sigma, v.d))
    assert yes
    for i, (p, sigma, d) in enumerate(yes):
        path = tmp_path / f"cert_{p}_{sigma}.json"
        assert cli_main(["case", "build", "--sigma", str(sigma), "--d", str(d), "--out", str(path)]) == 0
        assert cli_main(["case", "verify", str(path)]) == 0
    # perturb a single witness value: verification must fail with exit 1
    path = tmp_path / "mutated.json"
    assert cli_main(["case", "build", "--sigma", "3", "--d", "1", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["checks"][-2]["witness"]["value"] += 1
    path.write_text(json.dumps(doc))
    assert cli_main(["case", "verify", str(path)]) == 1
