"""Exact short-vector enumeration in definite lattices.

Fincke-Pohst style depth-first enumeration over an exact rational Cholesky
(LDL^T) factorization.  Everything runs on Fractions; pruning bounds are
computed with integer square roots, so the reported vector lists are complete
with no rounding caveats.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .intmat import ratmat
from .lattice import IntegralLattice


@dataclass(frozen=True)
class ShortVectorReport:
    """Complete list of nonzero vectors with |norm| <= bound.

    vectors are (coordinates, norm) pairs; v and -v are both listed, ordered
    lexicographically by the positive-leading-entry representative of each
    pair, representative first.
    """

    bound: int
    vectors: tuple
    min_norm: int | None
    counts: dict


def _ldl(q):
    """q = L D L^T with unit lower-triangular L; returns (d, u) where
    u[i][j] = L[j][i] for j > i, so x^T q x = sum_i d[i] (x_i + sum_j u[i][j] x_j)^2."""
    n = q.shape[0]
    a = [[Fraction(q[i, j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("short-vector enumeration requires a definite lattice")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for k in range(i + 1, n):
            for l in range(k, n):
                a[k][l] -= u[i][k] * d[i] * u[i][l]
                a[l][k] = a[k][l]
    return d, u


def _floor_sqrt(x: Fraction) -> int:
    """floor(sqrt(x)) for x >= 0."""
    return isqrt(x.numerator * x.denominator) // x.denominator


def short_vectors(L: IntegralLattice, bound: int) -> ShortVectorReport:
    """All nonzero v with |(v, v)| <= bound in a definite lattice."""
    if bound < 1:
        raise ValueError("bound must be positive")
    n = L.rank
    if n == 0:
        return ShortVectorReport(bound, (), None, {})
    # a definite form has the sign of its diagonal; _ldl rejects any other
    sign = 1 if L.gram[0, 0] > 0 else -1
    d, u = _ldl(sign * ratmat(L.gram))
    cap = Fraction(bound)
    found = []
    x = [0] * n

    def rec(i, remaining):
        c = sum((u[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        r = _floor_sqrt(remaining / d[i]) + 1
        center = -c
        start = center.numerator // center.denominator - r
        for xi in range(start, start + 2 * r + 2):
            term = d[i] * (xi + c) ** 2
            if term > remaining:
                continue
            x[i] = xi
            if i == 0:
                if any(x):
                    found.append((tuple(x), remaining - term))
            else:
                rec(i - 1, remaining - term)
        x[i] = 0

    rec(n - 1, cap)

    vectors = []
    for coords, slack in found:
        norm = sign * int(cap - slack)
        vectors.append((coords, norm))

    def rep(v):
        lead = next(x for x in v if x)
        return v if lead > 0 else tuple(-x for x in v)

    pairs = {}
    for coords, norm in vectors:
        pairs.setdefault(rep(coords), norm)
    ordered = []
    for r_ in sorted(pairs):
        norm = pairs[r_]
        ordered.append((r_, norm))
        ordered.append((tuple(-x for x in r_), norm))
    counts: dict = {}
    for _, norm in ordered:
        counts[norm] = counts.get(norm, 0) + 1
    min_norm = min((nm for _, nm in ordered), key=abs, default=None)
    return ShortVectorReport(bound, tuple(ordered), min_norm, counts)


def min_norm(L: IntegralLattice) -> int:
    """Signed norm of smallest absolute value among nonzero vectors."""
    if L.rank < 1:
        raise ValueError("minimum norm needs rank >= 1")
    start = min(abs(int(L.gram[i, i])) for i in range(L.rank))
    report = short_vectors(L, start)
    assert report.min_norm is not None  # a basis vector attains `start`
    return report.min_norm


def count_norm(L: IntegralLattice, t: int) -> int:
    """Number of vectors of exact norm t."""
    if t == 0:
        raise ValueError("norm 0 is attained only by the zero vector")
    report = short_vectors(L, abs(t))
    return report.counts.get(t, 0)
