"""Exact short-vector enumeration in definite lattices.

Fincke-Pohst depth-first enumeration over the fraction-free integer LDL^T of
lattice._ldl.  Everything runs on Python ints: the budget of each level is an
integer multiple of the remaining norm and the coordinate ranges come from
integer square roots, so the reported vector lists are complete with no
rounding caveats.  The search sets the coordinates in the reverse of _ldl's
smallest-pivot-first order, directly in the caller's basis, so no found
vector is mapped back.  It walks half of the ball: it finds one vector of
each pair v, -v (the one whose coordinate set first among its nonzero ones
is positive), and the report lists the other by negation.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import mul, neg

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


def short_vectors(L: IntegralLattice, bound: int) -> ShortVectorReport:
    """All nonzero v with |(v, v)| <= bound in a definite lattice."""
    if bound < 1:
        raise ValueError("bound must be positive")
    n = L.rank
    if n == 0:
        return ShortVectorReport(bound, (), None, {})
    # a definite form has the sign of its diagonal
    sign = 1 if L.gram[0, 0] > 0 else -1
    d, r, order = L._elim
    if sign < 0:  # the elimination of -G: minors times (-1)^k, rows times (-1)^(k+1)
        d = [-x if k % 2 else x for k, x in enumerate(d)]
        r = [row if k % 2 else [-x for x in row] for k, row in enumerate(r)]
    # all leading minors positive: definite.  Only an indefinite form makes
    # _ldl take a hyperbolic step, so order is set from here on.
    if min(d) <= 0:
        raise ValueError("short-vector enumeration requires a definite lattice")
    found = []
    x = [0] * n

    def rec(k, t, top):
        # level k sets coordinate i = order[k] of the caller's basis.
        # t = d[k+1] * (bound - sum of the squares fixed above k); the k-th
        # square is y^2 / (d[k] d[k+1]) with y = r[k] . x = d[k+1] x_i + c,
        # and c = r[k] . x while x_i is still 0.  While every coordinate set
        # above k is 0 (top), c = 0 and the range of x_i is symmetric; x -> -x
        # maps the subtree of x_i onto that of -x_i, so only x_i >= 0 is
        # searched, and the flag stays set below x_i = 0.
        c = 0 if top else sum(map(mul, r[k], x))
        s = isqrt(d[k] * t)
        lo = 0 if top else -((s + c) // d[k + 1])
        i = order[k]
        for xi in range(lo, (s - c) // d[k + 1] + 1):
            y = d[k + 1] * xi + c
            rest = (d[k] * t - y * y) // d[k + 1]
            x[i] = xi
            if k:
                rec(k - 1, rest, top and not xi)
            elif xi or not top:  # x = 0 only on the top path at its last level
                found.append((tuple(x), sign * (bound - rest)))
        x[i] = 0

    rec(n - 1, d[n] * bound, True)

    # one vector of each pair was found; list the one with positive leading
    # entry first, then its negative
    zero = (0,) * n
    reps = sorted((v if v > zero else tuple(map(neg, v)), norm) for v, norm in found)
    ordered, counts = [], {}
    for v, norm in reps:
        ordered += [(v, norm), (tuple(map(neg, v)), norm)]
        counts[norm] = counts.get(norm, 0) + 2
    min_norm = min((nm for _, nm in reps), key=abs, default=None)
    return ShortVectorReport(bound, tuple(ordered), min_norm, counts)


def count_norm(L: IntegralLattice, t: int) -> int:
    """Number of vectors of exact norm t."""
    if t == 0:
        raise ValueError("norm 0 is attained only by the zero vector")
    report = short_vectors(L, abs(t))
    return report.counts.get(t, 0)
