"""Integral even lattices given by Gram matrices, and their discriminant groups.

A lattice is a free Z-module with an integer-valued symmetric bilinear form,
presented by the Gram matrix on a fixed basis.  The discriminant group is the
finite quotient of the dual lattice by the lattice, carrying a torsion
bilinear form (values in Q/Z) and quadratic form (values in Q/2Z).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from math import prod

from .intmat import Matrix, _snf_diagonal, intmat, snf


class IntegralLattice:
    """An integral lattice presented by a symmetric integer Gram matrix."""

    def __init__(self, gram, label: str | None = None):
        g = intmat(gram)
        if g.shape[0] != g.shape[1]:
            raise ValueError("Gram matrix must be square")
        if g != g.T:
            raise ValueError("Gram matrix must be symmetric")
        self.gram = g
        self.label = label

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def _elim(self) -> tuple[list[int], list[list[int]], list[int] | None]:
        return _ldl(self.gram)  # once: the Gram matrix is an immutable Matrix

    def __eq__(self, other):
        return isinstance(other, IntegralLattice) and self.gram == other.gram

    def __repr__(self):
        name = self.label or f"lattice of rank {self.rank}"
        return f"<IntegralLattice {name}>"


_U_GRAM = [[0, 1], [1, 0]]

# Negative-definite E8 Cartan form; doubling it gives the E8(2) matrix used
# throughout the rank-10 ambient constructions.
_E8_GRAM = [
    [-2, 1, 0, 0, 0, 0, 0, 0],
    [1, -2, 1, 0, 0, 0, 0, 0],
    [0, 1, -2, 1, 1, 0, 0, 0],
    [0, 0, 1, -2, 0, 0, 0, 0],
    [0, 0, 1, 0, -2, 1, 0, 0],
    [0, 0, 0, 0, 1, -2, 1, 0],
    [0, 0, 0, 0, 0, 1, -2, 1],
    [0, 0, 0, 0, 0, 0, 1, -2],
]


def builtin(name: str) -> IntegralLattice:
    """Standard lattices: U, E8, Gamma = U + E8, LambdaK3 = U^3 + E8^2."""
    if name == "U":
        return IntegralLattice(_U_GRAM, "U")
    if name == "E8":
        return IntegralLattice(_E8_GRAM, "E8")
    if name == "Gamma":
        L = direct_sum(builtin("U"), builtin("E8"))
        L.label = "Gamma"
        return L
    if name == "LambdaK3":
        L = direct_sum(*map(builtin, ("U", "U", "U", "E8", "E8")))
        L.label = "LambdaK3"
        return L
    raise ValueError(f"unknown builtin lattice {name!r}")


def diag_lattice(entries, label: str | None = None) -> IntegralLattice:
    """Diagonal lattice diag(entries); zero entries are rejected."""
    entries = list(entries)
    if any(e == 0 for e in entries):
        raise ValueError("diagonal entries must be nonzero")
    g = [[e * (i == j) for j in range(len(entries))] for i, e in enumerate(entries)]
    return IntegralLattice(g, label)


def twist(L: IntegralLattice, n: int) -> IntegralLattice:
    """The lattice L(n): same module, form multiplied by n."""
    if n < 1:
        raise ValueError("twist factor must be positive")
    label = f"{L.label}({n})" if L.label and n != 1 else L.label
    return IntegralLattice([[n * x for x in row] for row in L.gram], label)


def direct_sum(*lattices: IntegralLattice) -> IntegralLattice:
    """Orthogonal direct sum of any number of lattices, block-diagonal Gram."""
    n, rows, left = sum(L.rank for L in lattices), [], 0
    for L in lattices:
        rows += [(0,) * left + r + (0,) * (n - left - L.rank) for r in L.gram]
        left += L.rank
    return IntegralLattice(rows)


def discriminant(L: IntegralLattice):
    """Signed determinant of the Gram matrix: the last leading minor of the
    lattice's one cached _ldl (0 for a degenerate form, 1 at rank 0)."""
    return L._elim[0][-1]


def is_even(L: IntegralLattice) -> bool:
    return all(x % 2 == 0 for x in L.gram.diagonal())


def _ldl(gram) -> tuple[list[int], list[list[int]], list[int] | None]:
    """Symmetric fraction-free (Bareiss) elimination of an integer Gram matrix,
    smallest pivot first.

    Step k eliminates order[k], the coordinate whose remaining diagonal entry
    has the smallest nonzero absolute value (the lowest coordinate on a tie).
    No row moves: the remaining coordinates are kept in a list, and each row
    r[k] is in the caller's coordinates, zero at order[:k] and d[k+1] at
    order[k].  Returns the leading minors d of the form in that order,
    d[0] = 1 and d[-1] = det G, the rows r, and order.  While order is set,
    x^T G x = sum_k (r[k] . x)^2 / (d[k] d[k+1]) for every x.  When the
    remaining diagonal is all zero, one basis vector is added to another
    (this handles hyperbolic blocks such as U); that step changes
    coordinates, so order is then None.  It never runs on a definite form.
    Either way the pivot signs d[k+1] / d[k] are those of a congruent
    diagonal form.  A degenerate form ends d with 0.
    """
    a = [list(row) for row in gram]
    n = len(a)
    d, rows, order = [1], [], []
    rest = list(range(n))  # the coordinates not yet eliminated, ascending
    while rest:
        piv = min((i for i in rest if a[i][i]), key=lambda i: abs(a[i][i]), default=None)
        if piv is None:
            # the remaining diagonal is all zero, so an entry found has i != j
            off = next(((i, j) for i in rest for j in rest if a[i][j]), None)
            if off is None:
                return d + [0], rows, order
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            order = None
            continue
        ap, prev = a[piv], d[-1]
        p = ap[piv]
        r = [0] * n
        for j in rest:
            r[j] = ap[j]
        rest.remove(piv)
        for i in rest:
            ai = a[i]
            f = ai[piv]
            for j in rest:
                ai[j] = (p * ai[j] - f * ap[j]) // prev
        rows.append(r)
        d.append(p)
        if order is not None:
            order.append(piv)
    return d, rows, order


def signature(L: IntegralLattice) -> tuple[int, int]:
    """Sylvester signature (plus, minus) from the lattice's one cached _ldl:
    one sign per pivot d[k+1] / d[k], as the pivot order and hyperbolic
    steps of _ldl are unimodular congruences."""
    d = L._elim[0]
    if d[-1] == 0:
        raise ValueError("degenerate form has no signature")
    plus = sum(p * q > 0 for p, q in zip(d, d[1:]))
    return plus, L.rank - plus


@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite group L*/L with its torsion bilinear and quadratic forms.

    divisors   -- orders of the generators (> 1), in divisor-chain order
    generators -- coset representatives in L (x) Q, coordinates mod 1 in [0,1)
    bform      -- matrix of b(g_i, g_j) values, reduced mod 1 into [0,1)
    qvals      -- q(g_i) values, reduced mod 2 into [0,2)
    """

    divisors: tuple
    generators: tuple
    bform: tuple
    qvals: tuple

    @property
    def order(self) -> int:
        return prod(self.divisors, start=1)


def _divisors(L: IntegralLattice) -> list[int]:
    """The divisors of L*/L, ascending: the SNF diagonal entries > 1.

    The zeros of a degenerate form are dropped as well, so callers test
    nondegeneracy first (discriminant_group raises instead).  A unimodular
    form needs no SNF: its invariant factors multiply to |det| = 1.
    """
    if abs(discriminant(L)) == 1:
        return []
    return [x for x in _snf_diagonal(L.gram) if x > 1]


def discriminant_group(L: IntegralLattice) -> DiscriminantGroup:
    """Elementary divisors and generators of L*/L, with b and q values.

    Generators are read off the SNF transform V: with U G V = S, the columns
    of G^-1 U^-1 = V S^-1 generate, the i-th, V[:, i] / S[i, i], having order
    S[i, i].  With the columns reduced mod S[i, i] into W, b and q are the
    entries of the integer matrix W^T G W divided by S[i, i] S[j, j].
    """
    s, _, v = snf(L.gram)
    divs = s.diagonal()
    if 0 in divs:
        raise ValueError("degenerate form has no discriminant group")
    cols = sorted((d, tuple(x % d for x in col)) for col, d in zip(v.T, divs) if d > 1)
    w = Matrix(tuple(c for _, c in cols), L.rank)
    w = w @ L.gram @ w.T
    return DiscriminantGroup(
        tuple(d for d, _ in cols),
        tuple(tuple(Fraction(x, d) for x in c) for d, c in cols),
        tuple(
            tuple(Fraction(w[i, j] % (di * dj), di * dj) for j, (dj, _) in enumerate(cols))
            for i, (di, _) in enumerate(cols)
        ),
        tuple(Fraction(w[i, i] % (2 * d * d), d * d) for i, (d, _) in enumerate(cols)),
    )


def save_lattice(L: IntegralLattice, path) -> None:
    """Write a lattice file: rank and row-major integer Gram array."""
    doc = {
        "label": L.label,
        "rank": L.rank,
        "gram": list(L.gram.flat),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_lattice(path) -> IntegralLattice:
    """Read a lattice file produced by save_lattice (or the shipped fixtures)."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except RecursionError:
            raise ValueError("lattice file is nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("a lattice file holds one JSON object")
    n, flat = doc.get("rank"), doc.get("gram")
    # JSON reads 1.5 as float and true as bool; int() would accept both
    if type(n) is not int or n < 0:
        raise ValueError(f"rank must be a nonnegative integer, got {n!r}")
    if not isinstance(flat, list) or not all(type(x) is int for x in flat):
        raise ValueError("gram must be a list of integers")
    if len(flat) != n * n:
        raise ValueError(f"gram array has {len(flat)} entries, expected {n * n}")
    gram = [flat[i * n : (i + 1) * n] for i in range(n)]
    return IntegralLattice(gram, doc.get("label"))


FIXTURES = ("U", "E8", "E8_2", "Gamma", "Gamma_2", "LambdaK3")


def fixture_path(name: str):
    """Filesystem path of a shipped lattice fixture (U, E8, E8_2, ...)."""
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; have {FIXTURES}")
    return resources.files("k3enriques") / "fixtures" / f"{name}.json"
