"""Sublattices of an ambient lattice: primitivity, complements, overlattices, glue.

An embedding is presented by a basis matrix whose rows are the images of the
sublattice basis in ambient coordinates.  Overlattices are built from isotropic
glue vectors in the discriminant group (the Nikulin correspondence).  The glue
group of an orthogonal pair is listed as integer numerators over one
denominator, and its isomorphism S1 -> S2 decides when an isometry of the pair
extends.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import index, mul

from .intmat import Matrix, _hnf, _snf_diagonal, hnf, intmat, kernel_basis
from .lattice import IntegralLattice, direct_sum, discriminant, is_even


class LatticeEmbedding:
    """A sublattice of `ambient` spanned by the rows of `basis`."""

    def __init__(self, ambient: IntegralLattice, basis):
        b = intmat(basis)
        if b.shape[1] != ambient.rank:
            raise ValueError("basis rows must live in the ambient lattice")
        self.ambient, self.basis = ambient, b
        # independent rows: no more rows than columns, no 0 on the Smith diagonal
        if b.shape[0] > b.shape[1] or 0 in self._smith:
            raise ValueError("basis rows must be linearly independent")

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def _smith(self) -> tuple[int, ...]:
        """The basis's Smith diagonal, a tuple computed once for independence and primitivity."""
        return tuple(_snf_diagonal(self.basis))

    @cached_property
    def _basis_gram(self) -> Matrix:
        """basis . ambient.gram; its transpose is ambient.gram . basis^T, as
        the Gram matrix is symmetric.  Computed once: the basis is immutable."""
        return self.basis @ self.ambient.gram

    @cached_property
    def _lattice(self) -> IntegralLattice:
        return IntegralLattice(self._basis_gram @ self.basis.T)

    def gram(self) -> Matrix:
        """Induced Gram matrix basis . ambient.gram . basis^T, computed once."""
        return self._lattice.gram

    def sublattice(self) -> IntegralLattice:
        return self._lattice  # one lattice, so one cached elimination for all callers


def is_primitive(e: LatticeEmbedding) -> bool:
    """True iff the row span equals its saturation (all SNF divisors are 1)."""
    return all(x == 1 for x in e._smith)


def orthogonal_complement(e: LatticeEmbedding) -> LatticeEmbedding:
    """All ambient vectors pairing to zero with the sublattice.

    Computed as the primitive integer kernel of ambient.gram @ basis^T; for a
    degenerate sublattice the kernel meets the sublattice and a warning is
    emitted, but the kernel is still returned.
    """
    k = kernel_basis(e._basis_gram.T)
    if discriminant(e.sublattice()) == 0:
        warnings.warn("sublattice is degenerate; complement meets it", stacklevel=2)
    # unchecked: the rows of a unimodular transform are independent
    out = LatticeEmbedding.__new__(LatticeEmbedding)
    out.ambient, out.basis = e.ambient, k
    return out


class Overlattice(IntegralLattice):
    """A finite-index extension of a base lattice, with the rebasing data."""

    def __init__(self, gram, base: IntegralLattice, basis_in_base, index: int, label=None):
        super().__init__(gram, label)
        self.base = base
        self.basis_in_base = basis_in_base  # Fraction row tuples, new basis in base coords
        self.index = index


def _check_glue(gram, gens, den: int) -> None:
    """Refuse glue vectors g/den (g an int tuple) outside the dual lattice of
    `gram`, or not isotropic: in an even lattice, q = 0 mod 2 on each and
    b = 0 mod 1 on each pair make q vanish on the group they generate."""
    images = [[sum(map(mul, row, g)) for row in gram] for g in gens]
    if any(y % den for gg in images for y in gg):
        raise ValueError("glue vector is not in the dual lattice")
    for i, gg in enumerate(images):
        q = sum(map(mul, gens[i], gg)) % (2 * den * den)
        if q:
            raise ValueError(f"glue is not isotropic: q = {Fraction(q, den * den)}")
        for h in gens[i + 1 :]:
            b = sum(map(mul, h, gg)) % (den * den)
            if b:
                raise ValueError(f"glue is not isotropic: b = {Fraction(b, den * den)}")


def overlattice(M: IntegralLattice, glue_gens) -> Overlattice:
    """The overlattice of M generated by glue vectors in the discriminant group.

    Each generator is a rational vector in M (x) Q (coordinates in the basis
    of M) that must lie in the dual lattice; the subgroup they generate must
    be isotropic for the torsion quadratic form.
    """
    n = M.rank
    rows = [[Fraction(x) for x in g] for g in glue_gens]
    if any(len(r) != n for r in rows):
        raise ValueError("glue vector has wrong length")
    denom = lcm(*(x.denominator for r in rows for x in r))
    gens = [[x.numerator * (denom // x.denominator) for x in r] for r in rows]
    _check_glue(M.gram, gens, denom)
    h = hnf([[denom * (i == j) for j in range(n)] for i in range(n)] + gens)[0][:n]
    hgh = h @ M.gram @ h.T  # denom^2 times the Gram matrix of the new basis h / denom
    if any(x % (denom * denom) for x in hgh.flat):
        raise ValueError("glue does not generate an integral lattice")
    new_gram = [[x // (denom * denom) for x in row] for row in hgh]
    w = tuple(tuple(Fraction(x, denom) for x in row) for row in h)
    index = denom**n // prod(h.diagonal())  # h is square Hermite: positive pivots
    out = Overlattice(new_gram, M, w, index, label=M.label and f"overlattice of {M.label}")
    assert index * index * abs(discriminant(out)) == abs(discriminant(M))
    return out


@dataclass(frozen=True)
class GlueData:
    """The glue group of an overlattice of an orthogonal pair M (+) N.

    den        -- the common denominator of the glue coordinates
    numerators -- sorted (a, b) int tuples mod den, one per glue element
                  (a/den, b/den): a on l(M), b on l(N)
    elements   -- the same pairs as Fractions mod 1, s1 in l(M) and s2 in
                  l(N), built on first use in the order of numerators; as a
                  dict it is the glue isomorphism S1 -> S2
    """

    den: int
    numerators: tuple

    @property
    def order(self) -> int:
        return len(self.numerators)

    @cached_property
    def elements(self) -> tuple:
        frac = [Fraction(k, self.den) for k in range(self.den)]
        return tuple(
            (tuple(frac[k] for k in a), tuple(frac[k] for k in b)) for a, b in self.numerators
        )


def glue_data(M: IntegralLattice, N: IntegralLattice, over_basis, den=None) -> GlueData:
    """Glue group of the overlattice spanned by `over_basis` over M (+) N.

    `over_basis` rows express a basis of the overlattice in the coordinates
    of the orthogonal sum, which must be even: rational rows, or, when `den`
    is given, integer numerators over the nonzero int den (the form
    intmat.rat_inv returns).  The glue group must be an isotropic subgroup
    of its discriminant group, and both projections of it injective (they
    are exactly when M and N are a primitive pair).
    """
    m, n = M.rank, N.rank
    if not (is_even(M) and is_even(N)):
        raise ValueError("M (+) N is odd; the discriminant quadratic form needs an even lattice")
    if den is None:  # rational rows: numerators over their least common denominator
        rows = [[Fraction(x) for x in row] for row in over_basis]
        den = lcm(*(x.denominator for r in rows for x in r))
        over_basis = [[x.numerator * (den // x.denominator) for x in r] for r in rows]
    den, rows = index(den), [list(map(index, row)) for row in over_basis]
    if not den:
        raise ValueError("glue denominator must be nonzero")
    c = gcd(den, *(x for r in rows for x in r)) * (-1 if den < 0 else 1)  # the least den > 0
    den, rows, k = den // c, [[x // c for x in r] for r in rows], m + n
    if any(len(r) != k for r in rows):
        raise ValueError("over-basis rows must have length rank(M) + rank(N)")
    # Hermite basis h_i, pivot p_i on the diagonal, of span(rows) + den Z^k:
    # the group is every sum of c_i h_i with 0 <= c_i < den / p_i, mod den
    h = [[x % den for x in r] for r in rows]
    h += [[den * (i == j) for j in range(k)] for i in range(k)]
    _hnf(h, [[] for _ in h])
    h = [r for i, r in enumerate(h[:k]) if r[i] < den]  # the others are den e_i
    # listed one coordinate column at a time, each as a list over the group;
    # taking h_1 last makes c_1 vary slowest, so the list is already sorted
    # (and sorting it a linear pass) when no h_i has an entry in another's
    # pivot column, as in an elementary group
    cols, size = [[0] for _ in range(k)], 1
    for r in reversed(h):
        o = den // next(filter(None, r))
        for j, t in enumerate(r):
            v = cols[j]
            cols[j] = v + [(x + s) % den for s in range(t, o * t, t) for x in v] if t else o * v
        size *= o
    s1 = list(zip(*cols[:m])) or [()] * size  # zip() of no columns is empty
    s2 = list(zip(*cols[m:])) or [()] * size
    if len(set(s1)) != size or len(set(s2)) != size:
        raise ValueError("glue projections are not injective; not a primitive pair")
    _check_glue(direct_sum(M, N).gram, h, den)
    return GlueData(den, tuple(sorted(zip(s1, s2))))


def identity_map(v):
    return v


def negation_map(v):
    """-v on glue numerators (read mod den); it used to return -v mod 1 as Fractions."""
    return tuple([-x for x in v])


def extends_to(phibar, psibar, g: GlueData) -> bool:
    """Whether phi (+) psi extends through the glue.

    True iff the induced map on l(M) preserves S1, the one on l(N) preserves
    S2, and gamma intertwines them: gamma(phibar(s1)) = psibar(gamma(s1)).
    Each map takes the int numerator tuple of a glue coordinate over g.den
    and returns an int tuple, read mod g.den; it used to act on Fraction
    tuples mod 1.  Every glue element is checked, so the maps need not be
    homomorphisms.
    """
    den, gamma = g.den, dict(g.numerators)
    for a, b in g.numerators:
        s1, s2 = phibar(a), psibar(b)
        # an image as returned is a key only if it is a reduced tuple
        t2 = type(s1) is tuple and gamma.get(s1) or gamma.get(tuple([x % den for x in s1]))
        if t2 is None or t2 != s2 and t2 != tuple([x % den for x in s2]):
            return False
    return True
