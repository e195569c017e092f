"""Sublattices of an ambient lattice: primitivity, complements, overlattices, glue.

An embedding is presented by a basis matrix whose rows are the images of the
sublattice basis in ambient coordinates.  Overlattices are built from isotropic
glue vectors in the discriminant group (the Nikulin correspondence), and the
glue isomorphism decides when an isometry of an orthogonal pair extends.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .intmat import det, hnf, intmat, kernel_basis, ratmat, snf, unimodular_inv, zeros
from .lattice import (
    DiscriminantGroup,
    IntegralLattice,
    _mod1,
    _mod2,
    _prime_powers,
)


class LatticeEmbedding:
    """A sublattice of `ambient` spanned by the rows of `basis`."""

    def __init__(self, ambient: IntegralLattice, basis):
        b = intmat(basis)
        if b.shape[1] != ambient.rank:
            raise ValueError("basis rows must live in the ambient lattice")
        s, _, _ = snf(b)
        if any(s[i, i] == 0 for i in range(b.shape[0])):
            raise ValueError("basis rows must be linearly independent")
        self.ambient = ambient
        self.basis = b

    @property
    def rank(self) -> int:
        return self.basis.shape[0]

    def gram(self) -> np.ndarray:
        """Induced Gram matrix basis . ambient.gram . basis^T."""
        return self.basis @ self.ambient.gram @ self.basis.T

    def sublattice(self, label: str | None = None) -> IntegralLattice:
        return IntegralLattice(self.gram(), label)


def is_primitive(e: LatticeEmbedding) -> bool:
    """True iff the row span equals its saturation (all SNF divisors are 1)."""
    s, _, _ = snf(e.basis)
    return all(s[i, i] == 1 for i in range(e.rank))


def saturate(e: LatticeEmbedding) -> LatticeEmbedding:
    """The primitive sublattice with the same rational span.

    With U B V = S, the first r rows of V^-1 span the saturation.
    """
    _, _, v = snf(e.basis)
    vinv = unimodular_inv(v)
    return LatticeEmbedding(e.ambient, vinv[: e.rank])


def orthogonal_complement(e: LatticeEmbedding) -> LatticeEmbedding:
    """All ambient vectors pairing to zero with the sublattice.

    Computed as the saturated kernel of ambient.gram @ basis^T; for a
    degenerate sublattice the kernel meets the sublattice and a warning is
    emitted, but the kernel is still returned.
    """
    k = kernel_basis(e.ambient.gram @ e.basis.T)
    if det(e.gram()) == 0:
        warnings.warn("sublattice is degenerate; complement meets it", stacklevel=2)
    return LatticeEmbedding(e.ambient, k)


class Overlattice(IntegralLattice):
    """A finite-index extension of a base lattice, with the rebasing data."""

    def __init__(self, gram, base: IntegralLattice, basis_in_base, index: int, label=None):
        super().__init__(gram, label)
        self.base = base
        self.basis_in_base = basis_in_base  # rational rows, new basis in base coords
        self.index = index


def overlattice(M: IntegralLattice, glue_gens) -> Overlattice:
    """The overlattice of M generated by glue vectors in the discriminant group.

    Each generator is a rational vector in M (x) Q (coordinates in the basis
    of M) that must lie in the dual lattice; the subgroup they generate must
    be isotropic for the torsion quadratic form, which for generators means
    q = 0 mod 2 and pairwise b values integral.
    """
    n = M.rank
    G = ratmat(M.gram)
    gens = [np.array([Fraction(x) for x in g], dtype=object) for g in glue_gens]
    for g in gens:
        if g.shape != (n,):
            raise ValueError("glue vector has wrong length")
        pair = g @ G
        if any(x.denominator != 1 for x in pair):
            raise ValueError("glue vector is not in the dual lattice")
        q = _mod2(g @ G @ g)
        if q != 0:
            raise ValueError(f"glue is not isotropic: q = {q}")
    for i, gi in enumerate(gens):
        for gj in gens[i + 1 :]:
            b = _mod1(gi @ G @ gj)
            if b != 0:
                raise ValueError(f"glue is not isotropic: b = {b}")
    denom = 1
    for g in gens:
        for x in g:
            denom = denom * x.denominator // gcd(denom, x.denominator)
    rows = zeros(n + len(gens), n)
    for i in range(n):
        rows[i, i] = denom
    for k, g in enumerate(gens):
        for j in range(n):
            rows[n + k, j] = int(g[j] * denom)
    h, _ = hnf(rows)
    w = ratmat(h[:n]) / denom
    new_gram_q = w @ G @ w.T
    new_gram = zeros(n, n)
    for i in range(n):
        for j in range(n):
            x = new_gram_q[i, j]
            if x.denominator != 1:
                raise ValueError("glue does not generate an integral lattice")
            new_gram[i, j] = int(x)
    dw = _rat_det(w)
    index = abs(Fraction(1) / dw)
    if index.denominator != 1:
        raise AssertionError("overlattice index is not an integer")
    index = int(index)
    out = Overlattice(new_gram, M, w, index, label=M.label and f"overlattice of {M.label}")
    assert index * index * abs(det(new_gram)) == abs(det(M.gram))
    return out


def _rat_det(m) -> Fraction:
    a = ratmat(m)
    n = a.shape[0]
    sign = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i, k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            sign = -sign
        for i in range(k + 1, n):
            if a[i, k] != 0:
                a[i] -= (a[i, k] / a[k, k]) * a[k]
    return sign * np.prod(np.diagonal(a))


def _frac_vec(v) -> tuple:
    return tuple(_mod1(Fraction(x)) for x in v)


@dataclass(frozen=True)
class GlueData:
    """The glue group of an overlattice of an orthogonal pair M (+) N.

    elements -- all (s1, s2) pairs, s1 the l(M)-part and s2 the l(N)-part of
                one glue element (coordinates mod 1)
    gamma    -- the glue isomorphism S1 -> S2 as a mapping on all of S1
    """

    elements: tuple
    gamma: dict
    s1_group: frozenset
    s2_group: frozenset

    @property
    def order(self) -> int:
        return len(self.elements)


def glue_data(M: IntegralLattice, N: IntegralLattice, over_basis) -> GlueData:
    """Glue group of the overlattice spanned by `over_basis` over M (+) N.

    `over_basis` rows express a basis of the overlattice in the coordinates
    of the orthogonal sum.  Both projections of the glue group must be
    injective (they are exactly when M and N are a primitive pair).
    """
    m, n = M.rank, N.rank
    rows = [
        [Fraction(x) for x in row] for row in np.asarray(over_basis, dtype=object)
    ]
    if any(len(r) != m + n for r in rows):
        raise ValueError("over-basis rows must have length rank(M) + rank(N)")
    gens = [_frac_vec(r) for r in rows]
    zero = tuple([Fraction(0)] * (m + n))
    group = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(_mod1(a + b) for a, b in zip(x, g))
                if y not in group:
                    group.add(y)
                    nxt.append(y)
        frontier = nxt
    elements = sorted(group)
    pairs = [(e[:m], e[m:]) for e in elements]
    s1 = {p[0] for p in pairs}
    s2 = {p[1] for p in pairs}
    if len(s1) != len(pairs) or len(s2) != len(pairs):
        raise ValueError("glue projections are not injective; not a primitive pair")
    GM, GN = ratmat(M.gram), ratmat(N.gram)
    for a, b in pairs:
        av = np.array(a, dtype=object)
        bv = np.array(b, dtype=object)
        if _mod2(av @ GM @ av + bv @ GN @ bv) != 0:
            raise ValueError("glue group is not isotropic for q_M (+) q_N")
    gamma = {a: b for a, b in pairs}
    return GlueData(tuple(pairs), gamma, frozenset(s1), frozenset(s2))


def identity_map(v):
    return v


def negation_map(v):
    return tuple(_mod1(-Fraction(x)) for x in v)


def extends_to(phibar, psibar, g: GlueData) -> bool:
    """Whether phi (+) psi extends through the glue.

    True iff the induced map on l(M) preserves S1, the one on l(N) preserves
    S2, and gamma intertwines them: gamma(phibar(s1)) = psibar(gamma(s1)).
    """
    for s1, s2 in g.elements:
        t1 = _frac_vec(phibar(s1))
        if t1 not in g.gamma:
            return False
        if g.gamma[t1] != _frac_vec(psibar(s2)):
            return False
    return True


def coprime_complement_disc(
    dg_M: DiscriminantGroup, dg_L: DiscriminantGroup
) -> DiscriminantGroup:
    """Discriminant form of a primitive complement with coprime discriminants.

    For a primitive sublattice whose discriminant is coprime to the ambient
    one, the complement's torsion form is the direct sum of the sublattice's
    form (sign-reversed here, matching the orthogonal-complement convention
    recorded in certificates) and the ambient form.  Divisors are refactored
    into canonical prime-power order.
    """
    if gcd(dg_M.order, dg_L.order) != 1:
        raise ValueError(
            f"discriminant orders {dg_M.order} and {dg_L.order} are not coprime"
        )
    lm = len(dg_M.generators[0]) if dg_M.generators else 0
    ll = len(dg_L.generators[0]) if dg_L.generators else 0
    zero_m, zero_l = (Fraction(0),) * lm, (Fraction(0),) * ll

    comps = []  # (order, padded gen, qval, source index or None)
    for i, (d, g, q) in enumerate(zip(dg_M.divisors, dg_M.generators, dg_M.qvals)):
        comps.append((d, tuple(g) + zero_l, _mod2(-q), ("M", i)))
    for i, (d, g, q) in enumerate(zip(dg_L.divisors, dg_L.generators, dg_L.qvals)):
        comps.append((d, zero_m + tuple(g), _mod2(q), ("L", i)))

    # split into prime-power components, canonical order
    split = []
    for d, g, q, src in comps:
        for pe in _prime_powers(d):
            a = d // pe
            gen = tuple(_mod1(a * x) for x in g)
            split.append((pe, gen, _mod2(a * a * q), src, a))
    split.sort(key=lambda c: (_prime_powers(c[0])[0], c[0], c[1]))

    def b_source(si, ai, sj, aj):
        side_i, i = si
        side_j, j = sj
        if side_i != side_j:
            return Fraction(0)
        base = dg_M.bform[i][j] if side_i == "M" else dg_L.bform[i][j]
        val = ai * aj * base
        if side_i == "M":
            val = -val
        return _mod1(val)

    bform = tuple(
        tuple(b_source(ci[3], ci[4], cj[3], cj[4]) for cj in split) for ci in split
    )
    return DiscriminantGroup(
        tuple(c[0] for c in split),
        tuple(c[1] for c in split),
        bform,
        tuple(c[2] for c in split),
    )
