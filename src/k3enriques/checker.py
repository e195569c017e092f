"""End-to-end pipeline: case construction, verification, and the final verdict.

For a pair (sigma, d) the rank-10 ambient U(2) + E8(2) receives an explicit
diagonal sublattice; the orthogonal complement's invariants (rank,
definiteness, divisor multiset, root-freeness, discriminant identities) are
all checked exactly and recorded with their witness data.  Each sigma's
cases are proven once for every d: the certificate of (sigma, d) is affine
in d, so it is fitted from two computed cases and its claims are proven as
polynomial identities of degree <= 2 in d.  A certificate re-verifies by
comparison of its bytes with that template's at its own sigma and d.  The verdict
for (p, sigma) combines the residue search for d, the p > 8d norm bound,
and the case certificate.
"""
from __future__ import annotations

import csv
import io
import marshal
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import combinations
from math import isqrt
from types import MappingProxyType

from .arith import (
    _MAX_ARTIN,
    _SIGMAS,
    K3_RANK,
    _arth,
    _find_d,
    _jacobi,
    _minus_d_class,
    _prime_powers,
    is_odd_prime,
    verify_norm_bound,
)
from .embeddings import (
    LatticeEmbedding,
    glue_data,
    is_primitive,
    orthogonal_complement,
)
from .enumeration import count_norm
from .intmat import det, intmat, rat_inv
from .lattice import (
    IntegralLattice,
    _divisors,
    builtin,
    direct_sum,
    discriminant,
    is_even,
    signature,
    twist,
)


@dataclass(frozen=True)
class _Case:
    """The construction for one sigma; the embedded side is M if d_sign is 1, else N."""

    d_sign: int  # the first embedded row is x + d_sign*d*y
    e_columns: tuple  # the ambient column of each further row e_i, e1 being column 2
    dt_power: int  # the discriminant of U + M is 4^dt_power * d
    n_divisors: tuple  # N's divisors besides 4d


_CASES = {
    2: _Case(1, (2,), 2, (4, 2, 2, 2, 2, 2, 2)),
    3: _Case(1, (2, 4, 7), 4, (4, 4, 4, 2, 2)),
    4: _Case(-1, (2, 4, 7), 5, (4, 4, 4)),
    5: _Case(-1, (2,), 5, (4,)),
}

SIGN_CONVENTION_NOTE = (
    "coprime complement discriminant forms are combined with the quadratic "
    "form negated on the sublattice part"
)
EVEN_SIGMA_RESIDUE_NOTE = (
    "for even sigma the d-search requires -d to be a square mod p; applying "
    "the non-square obstruction to the rank-(22-2*sigma) discriminant -4^a*d "
    "instead requires d to be a non-square mod p; the two agree only when "
    "p = 3 mod 4, and the d-search rule is taken as authoritative"
)


@cache  # the one ambient of every case, built on first use; never changed
def _gamma2() -> IntegralLattice:
    """The rank-10 ambient U(2) + E8(2) on the basis x, y, e1..e8."""
    amb = direct_sum(twist(builtin("U"), 2), twist(builtin("E8"), 2))
    amb.label = "U(2)+E8(2)"
    return amb


@cache  # package constants, as _gamma2: built once, never changed
def _lambda_k3() -> tuple[IntegralLattice, int]:
    """LambdaK3 and the discriminant of U + U(2) + E8(2), gamma2's model complement in it."""
    model = direct_sum(builtin("U"), twist(builtin("U"), 2), twist(builtin("E8"), 2))
    return builtin("LambdaK3"), discriminant(model)


def _case_basis(case: _Case, d: int):
    """Rows of the embedded basis in ambient coordinates (x, y, e1..e8)."""
    rows = [[0] * c + [1] + [0] * (9 - c) for c in case.e_columns]
    return [[1, case.d_sign * d] + [0] * 8, *rows]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: dict  # kept as a read-only view; its values are ints, bools and tuples

    def __post_init__(self):
        object.__setattr__(self, "witness", MappingProxyType(self.witness))


@dataclass(frozen=True)
class CaseCertificate:
    # _view, set only by _Family, is (family, pp): this certificate is
    # that family's case at its d, its prime-power witnesses pp.  A slot, so
    # it is no field, and vars() and _json never see it.  A case the family
    # hands out for d > 1 holds only sigma and d until a field is first read
    __slots__ = ("__dict__", "__weakref__", "_view")

    sigma: int
    d: int
    ambient_gram: tuple
    embedding_basis: tuple
    complement_basis: tuple
    complement_gram: tuple
    checks: tuple
    notes: tuple
    passed: bool

    def __getattr__(self, name):  # a field not filled yet
        if name not in _DOC_FIELDS:
            raise AttributeError(name)
        return self.__getstate__()[name]

    def __getstate__(self):  # the fields, filled from the template; copy.copy keeps no tag
        state = vars(self)
        if len(state) < len(_DOC_FIELDS):
            family, pp = self._view
            state.update(vars(family.cert(self.d, pp)))
        return state

    def to_doc(self) -> dict:
        """_doc(self); a family's case is loaded from the family's byte view,
        which is its document for every d, instead of walked."""
        view = getattr(self, "_view", None)
        if view is None:
            return _doc(self)
        family, pp = view
        return marshal.loads(family.document(self.d, pp))


def _doc(report) -> dict:
    """A report dataclass of ints, bools, strings, None, tuples, read-only
    mappings and reports as the JSON value json.loads would read back, built
    in fresh lists and dicts, so changing it never changes the (cached)
    report.  Like json.dumps, it raises ValueError on an int too long to print."""
    ints = []  # every int in the document
    doc = _json(report, ints)
    str(max(map(abs, ints)))  # raises where json.dumps would
    return doc


def _json(x, ints: list):
    """x as fresh JSON values, each of its ints also put in ints."""
    t = type(x)
    if t is tuple or t is list:
        if x and type(x[0]) is int:  # a vector of ints
            ints.extend(x)
            return list(x)
        return [_json(v, ints) for v in x]
    if t is int:
        ints.append(x)
        return x
    if t is str or t is bool or x is None:
        return x
    if t is CaseCertificate:
        x = x.__getstate__()  # its fields, filled, in order
    elif t is not dict and t is not MappingProxyType:
        x = vars(x)  # a report: its fields, in order
    return {k: _json(v, ints) for k, v in x.items()}


def _compute_case(sigma: int, d: int) -> CaseCertificate:
    case = _CASES[sigma]
    ambient = _gamma2()
    emb = LatticeEmbedding(ambient, _case_basis(case, d))
    comp = orthogonal_complement(emb)
    emb_gram = emb.gram()
    comp_lat = comp.sublattice()
    emb_lat = emb.sublattice()
    m_lat, n_lat = (emb_lat, comp_lat) if case.d_sign == 1 else (comp_lat, emb_lat)

    checks = []

    checks.append(Check("embedding_primitive", is_primitive(emb), {"snf_divisors": emb._smith}))

    expected_diag = (4 * case.d_sign * d,) + (-4,) * (emb.rank - 1)
    diag_ok = all(
        x == (expected_diag[i] if i == j else 0)
        for i, row in enumerate(emb_gram)
        for j, x in enumerate(row)
    )
    checks.append(
        Check(
            "embedded_gram_diagonal",
            diag_ok,
            {"gram": emb_gram.rows, "expected_diagonal": expected_diag},
        )
    )

    n_rank_expected = 12 - 2 * sigma
    checks.append(
        Check(
            "complement_rank",
            comp.rank == 10 - emb.rank
            and n_lat.rank == n_rank_expected
            and m_lat.rank == 2 * sigma - 2,
            {
                "complement_rank": comp.rank,
                "n_rank": n_lat.rank,
                "n_rank_expected": n_rank_expected,
            },
        )
    )

    n_sig, d_n = signature(n_lat), discriminant(n_lat)
    checks.append(
        Check(
            "n_negative_definite",
            n_sig == (0, n_lat.rank),
            {"signature": n_sig},
        )
    )

    m_sig, m_det = signature(m_lat), discriminant(m_lat)
    checks.append(
        Check(
            "m_side_signature",
            m_sig == (1, m_lat.rank - 1),
            {"signature": m_sig},
        )
    )

    even_ok = all(x % 2 == 0 for x in n_lat.gram.flat)
    diag4_ok = all(x % 4 == 0 for x in n_lat.gram.diagonal())
    checks.append(
        Check(
            "n_norms_in_4Z",
            even_ok and diag4_ok,
            {"gram_even": even_ok, "diagonal_mod4_zero": diag4_ok},
        )
    )

    enum_count = count_norm(n_lat, -2)
    shortcut = even_ok and diag4_ok  # norms lie in 4Z, so -2 is unattainable
    checks.append(
        Check(
            "n_root_free",
            enum_count == 0 and shortcut,
            {"enumeration_count": enum_count, "mod4_shortcut": shortcut},
        )
    )

    n_divs = tuple(_divisors(n_lat))
    formula = (4 * d, *case.n_divisors)
    pp = {x: _prime_powers(x) for x in {*n_divs, *formula}}
    n_pp = tuple(sorted(q for x in n_divs for q in pp[x]))
    formula_pp = tuple(sorted(q for x in formula for q in pp[x]))
    checks.append(
        Check(
            "n_divisors",
            n_pp == formula_pp,
            {
                "computed": n_divs,
                "formula": formula,
                "computed_prime_powers": n_pp,
                "formula_prime_powers": formula_pp,
            },
        )
    )

    dt = -m_det  # the discriminant of U + M, as det U = -1
    dt_expected = 4**case.dt_power * d
    checks.append(
        Check(
            "transcendental_disc",
            dt == dt_expected,
            {"computed": dt, "expected": dt_expected},
        )
    )

    dns = -dt
    checks.append(
        Check(
            "neron_severi_disc",
            dns == -dt_expected,
            {"value": dns, "expected": -dt_expected},
        )
    )

    # index of N + Gamma(2) inside the rank-22 Neron-Severi overlattice;
    # dns = -det M is nonzero, as signature(m_lat) raises on a degenerate M
    idx_sq_num = d_n * 1024
    idx_sq = idx_sq_num // abs(dns)
    idx_ok = idx_sq_num % abs(dns) == 0 and 0 <= idx_sq == isqrt(idx_sq) ** 2
    checks.append(Check("glue_index_integral", idx_ok, {"d_n": d_n, "index_squared": idx_sq}))

    notes = [SIGN_CONVENTION_NOTE]
    if _minus_d_class(sigma) == 1:
        notes.append(EVEN_SIGMA_RESIDUE_NOTE)

    return CaseCertificate(
        sigma=sigma,
        d=d,
        ambient_gram=ambient.gram.rows,
        embedding_basis=emb.basis.rows,
        complement_basis=comp.basis.rows,
        complement_gram=comp_lat.gram.rows,
        checks=tuple(checks),
        notes=tuple(notes),
        passed=all(c.passed for c in checks),
    )


def _case_args_error(sigma: int, d: int) -> str | None:
    """Why (sigma, d) has no case, or None; checked before any exact work."""
    if sigma not in range(2, _MAX_ARTIN + 1):
        return "sigma must be in 2..5"
    if d < 1:
        return "d must be positive"
    return None


_PRIME_POWER_KEYS = ("computed_prime_powers", "formula_prime_powers")


def _fit(x2, x3):
    """The certificate x, given as x2 at d = 2 and x3 at d = 3, as a function
    f(d, pp) in which every int is affine in d: f(2, pp) is x2 and f(3, pp)
    is x3 once pp is the prime-power tuple that the two witnesses named in
    _PRIME_POWER_KEYS hold.  A part equal at 2 and 3 is returned as it is,
    shared, not copied.  Raises ValueError where x2 and x3 differ in anything
    but ints."""
    t = type(x2)
    if t is not type(x3):
        raise ValueError(f"{x2!r} at d = 2 and {x3!r} at d = 3 differ in type")
    if x2 == x3:
        return lambda d, pp: x2
    if t is int:
        b = x3 - x2
        a = x2 - 2 * b
        return lambda d, pp: a + b * d
    if t is tuple and len(x2) == len(x3):
        items = [_fit(u, v) for u, v in zip(x2, x3)]
        return lambda d, pp: tuple([f(d, pp) for f in items])
    if t is MappingProxyType and x2.keys() == x3.keys():
        fits = {
            k: (lambda d, pp: pp) if k in _PRIME_POWER_KEYS else _fit(v, x3[k])
            for k, v in x2.items()
        }
        return lambda d, pp: {k: f(d, pp) for k, f in fits.items()}
    if t in (CaseCertificate, Check):
        fits = {k: _fit(v, getattr(x3, k)) for k, v in vars(x2).items()}
        return lambda d, pp: t(**{k: f(d, pp) for k, f in fits.items()})
    raise ValueError(f"{x2!r} at d = 2 and {x3!r} at d = 3 are not affine in d")


def _unit_minor(b: list) -> bool:
    """Whether the rows of b[0] + d (b[1] - b[0]) have a maximal minor that
    is +-1 for every d: one on columns that d does not enter."""
    b0, b1 = b[0].rows, b[1].rows
    fixed = [j for j, (u, v) in enumerate(zip(zip(*b0), zip(*b1))) if u == v]
    return any(
        abs(det([[row[j] for j in cols] for row in b0])) == 1
        for cols in combinations(fixed, len(b0))
    )


def _block(g: list):
    """(c, R, signature, a) when g[0] + d (g[1] - g[0]) is the Gram matrix of
    <c d> plus a constant nondegenerate block R: d enters one diagonal entry
    only, whose row and column are 0 in the symmetric g[0].  For every d >= 1
    the whole then has that signature and determinant a*d.  Else None."""
    g0, g1 = g[0].rows, g[1].rows
    n = len(g0)
    moved = [(i, j) for i in range(n) for j in range(n) if g0[i][j] != g1[i][j]]
    if len(moved) != 1 or moved[0][0] != moved[0][1] or any(g0[moved[0][0]]):
        return None
    i = moved[0][0]
    c, block = g1[i][i], IntegralLattice([r[:i] + r[i + 1 :] for r in g0[:i] + g0[i + 1 :]])
    if not discriminant(block):
        return None
    plus, minus = signature(block)
    return c, block, (plus + (c > 0), minus + (c < 0)), c * discriminant(block)


_AT = (0, 1, 2)  # the d at which _disproved evaluates a template, each its own index


def _disproved(sigma: int, template) -> list[str]:
    """The claims about sigma's case certificate template(d, pp) that fail.

    Every int of the template is affine in d and the ambient G is fixed, so
    each claim is a polynomial identity of degree <= 2 in d or a fact about
    fixed blocks.  A polynomial of degree <= 2 with three roots is 0, so an
    identity that holds at the three d of _AT holds for every d.  Each
    witness is compared with the value the claims prove; the prime-power
    lists are left out: their divisors are equal multisets for every d.
    """
    case, g, n_rank = _CASES[sigma], _gamma2().gram, 12 - 2 * sigma
    at = [template(x, ()) for x in _AT]
    w = [{check.name: check.witness for check in t.checks} for t in at]
    e = [intmat(t.embedding_basis) for t in at]
    c = [intmat(t.complement_basis) for t in at]
    comp = [intmat(t.complement_gram) for t in at]
    emb = [intmat(ws["embedded_gram_diagonal"]["gram"]) for ws in w]
    k = e[0].shape[0]
    claims = {
        "E is the case basis": all(e[x] == intmat(_case_basis(case, x)) for x in _AT),
        "E G C^T = 0": all(not any((e[x] @ g @ c[x].T).flat) for x in _AT),
        "C G C^T is the complement Gram": all(c[x] @ g @ c[x].T == comp[x] for x in _AT),
        "E G E^T is the embedded Gram diag(4 d_sign d, -4, ..., -4)": all(
            e[x] @ g @ e[x].T == emb[x]
            and not any(v for i, row in enumerate(emb[x]) for j, v in enumerate(row) if i != j)
            and emb[x].diagonal()
            == w[x]["embedded_gram_diagonal"]["expected_diagonal"]
            == (4 * case.d_sign * x,) + (-4,) * (k - 1)
            for x in _AT
        ),
        "E and C have a constant unit maximal minor, so C spans E^perp": _unit_minor(e)
        and _unit_minor(c)
        and c[0].shape[0] == 10 - k
        and all(ws["embedding_primitive"]["snf_divisors"] == (1,) * k for ws in w),
    }
    if not all(claims.values()):
        return [name for name, holds in claims.items() if not holds]
    n_gram, m_gram = (comp, emb) if case.d_sign == 1 else (emb, comp)
    n_block, m_block = _block(n_gram), _block(m_gram)
    if not (n_block and m_block):
        return ["N and M are <c d> plus a constant block"]

    (cn, rn, sig_n, det_n), (_, rm, sig_m, det_m) = n_block, m_block
    divs = tuple(_divisors(rn))
    dt = 4**case.dt_power
    index_sq = 1024 * det_n // dt
    claims = {
        "every check passes": all(t.passed and all(ch.passed for ch in t.checks) for t in at),
        "N has rank 12 - 2 sigma, M 2 sigma - 2 and C 10 - rank E": rn.rank + 1 == n_rank
        and rm.rank + 1 == 2 * sigma - 2
        and all(
            ws["complement_rank"]
            == {"complement_rank": 10 - k, "n_rank": n_rank, "n_rank_expected": n_rank}
            for ws in w
        ),
        "N is negative definite": sig_n == (0, n_rank)
        and all(ws["n_negative_definite"]["signature"] == sig_n for ws in w),
        "M has signature (1, rank M - 1)": sig_m == (1, 2 * sigma - 3)
        and all(ws["m_side_signature"]["signature"] == sig_m for ws in w),
        "N's norms lie in 4Z, so N has no root": cn % 4 == 0
        and all(v % 4 == 0 for v in rn.gram.diagonal())
        and all(v % 2 == 0 for v in rn.gram.flat)
        and all(
            ws["n_norms_in_4Z"] == {"gram_even": True, "diagonal_mod4_zero": True}
            and ws["n_root_free"] == {"enumeration_count": 0, "mod4_shortcut": True}
            for ws in w
        ),
        "N's divisors are its block's, then 4d, as a chain": abs(cn) == 4
        and all(4 % v == 0 for v in divs)
        and all(w[x]["n_divisors"]["computed"] == (*divs, 4 * x) for x in _AT),
        "N's divisors are (4d, *n_divisors) as a multiset": sorted(divs)
        == sorted(case.n_divisors)
        and all(w[x]["n_divisors"]["formula"] == (4 * x, *case.n_divisors) for x in _AT),
        "det M gives the transcendental and Neron-Severi discriminants": -det_m == dt
        and all(
            w[x]["transcendental_disc"] == {"computed": dt * x, "expected": dt * x}
            and w[x]["neron_severi_disc"] == {"value": -dt * x, "expected": -dt * x}
            for x in _AT
        ),
        "the glue index is a constant square": 1024 * det_n % dt == 0
        and 0 <= index_sq == isqrt(index_sq) ** 2
        and all(
            w[x]["glue_index_integral"] == {"d_n": det_n * x, "index_squared": index_sq}
            for x in _AT
        ),
    }
    return [name for name, holds in claims.items() if not holds]


_SAMPLES = (1, 2, 3, 4, 5)


_MARKER = 2**64  # above every int of a d = 2 document; _marked's markers follow it


def _marked(x2, x3, moving: list):
    """The document x2 (at d = 2) with each moving leaf replaced by a marker
    of its own, _MARKER + 1, _MARKER + 2, ... in document order.  The moving
    leaves are the ints that differ in x3 (at d = 3), each a + b d, and the
    lists named in _PRIME_POWER_KEYS; moving gets (a, b), or None for such
    a list, for each in turn."""
    if type(x2) is dict:
        return {
            k: _mark(None, moving) if k in _PRIME_POWER_KEYS else _marked(v, x3[k], moving)
            for k, v in x2.items()
        }
    if type(x2) is list:
        return [_marked(u, v, moving) for u, v in zip(x2, x3)]
    if type(x2) is int and x2 != x3:
        b = x3 - x2
        return _mark((x2 - 2 * b, b), moving)
    return x2


def _mark(leaf, moving: list) -> int:
    moving.append(leaf)
    return _MARKER + len(moving)


class _Family:
    """The cases of one sigma for every d >= 1, from _compute_case at each d
    of _SAMPLES: the computed case at d = 1, and for d >= 2 the certificate
    template fitted at d = 2 and 3.  Parts that do not depend on d are
    shared.  Next to the template it keeps the same fit as bytes: the
    marshal format 2 encoding of the d = 2 document cut at its moving leaves
    into fixed chunks.  _family proves both before any use.  Each case it
    hands out is tagged with the family, so its to_doc() loads the byte
    view at its d instead of walking its fields; for d > 1 the template is
    evaluated into its fields only when one is first read."""

    def __init__(self, sigma: int):
        self.samples = {d: _compute_case(sigma, d) for d in _SAMPLES}
        self.cert = _fit(self.samples[2], self.samples[3])  # cert(d, pp)
        self.base = tuple(q for x in _CASES[sigma].n_divisors for q in _prime_powers(x))
        self.first = marshal.dumps(_doc(self.samples[1]), 2)  # served at d = 1
        object.__setattr__(self.samples[1], "_view", (self, None))
        self.moving = []
        rest = marshal.dumps(
            _marked(self.samples[2].to_doc(), self.samples[3].to_doc(), self.moving), 2
        )
        self.chunks = []  # a marker not found in turn leaves a view that _family refuses
        for k in range(1, len(self.moving) + 1):
            chunk, _, rest = rest.partition(marshal.dumps(_MARKER + k, 2))
            self.chunks.append(chunk)
        self.chunks.append(rest)

    def prime_powers(self, d: int) -> tuple:
        """The sorted prime powers of N's divisors: the base's and 4d's."""
        return tuple(sorted((*self.base, *_prime_powers(4 * d))))

    def case(self, d: int) -> CaseCertificate:
        if d == 1:
            return self.samples[1]  # tagged by __init__
        cert = object.__new__(CaseCertificate)  # cert(d, pp) on its first field read
        vars(cert).update(sigma=self.samples[1].sigma, d=d)
        object.__setattr__(cert, "_view", (self, self.prime_powers(d)))
        return cert

    def document(self, d: int, pp: tuple | None = None) -> bytes:
        """marshal.dumps(_doc(case(d)), 2): the fixed chunks joined by the
        encodings of the moving leaves at d, pp being prime_powers(d) when
        the caller already has it.  Like _doc, it raises ValueError on an
        int too long to print, and it does so before factoring 4d."""
        if d == 1:
            return self.first
        values = [leaf and leaf[0] + leaf[1] * d for leaf in self.moving]  # None: prime powers
        # 4d is an entry, and no prime power of N's divisors exceeds it
        str(max(abs(v) for v in values if v is not None))
        pp = list(self.prime_powers(d) if pp is None else pp)
        parts = [self.chunks[0]]
        for v, chunk in zip(values, self.chunks[1:]):
            parts += marshal.dumps(pp if v is None else v, 2), chunk
        return b"".join(parts)


@cache  # one family per sigma, built on first use: keyed by sigma, never by d
def _family(sigma: int) -> _Family:
    """sigma's cases, proven once for every d.

    _compute_case runs at each d of _SAMPLES with all its checks, count_norm
    included.  The template, fitted at d = 2 and 3, must prove the claims of
    _disproved and equal the computed case at d = 4 and 5, and the byte
    view must be the computed case's bytes at every d of _SAMPLES.  d = 1
    is served by its own computed case, which must pass: at sigma 2 and 3
    the template's complement row (1, -d) is the negative of the one
    computed there.  Raises ValueError naming each claim that fails, or
    the error that stopped a sample's computation.

    The byte view is the template's document for every d: marshal format 2
    writes no back-references, so a document's bytes are its fixed parts
    and its leaves' bytes in order, and both are affine leaf by leaf,
    fitted from the same two samples.  So the to_doc() of a case the family
    hands out loads the view, and the template's own fields are compared
    here through _doc.
    """
    try:
        fam = _Family(sigma)
    except ValueError as exc:  # a sample can raise: count_norm does on an indefinite N
        raise ValueError(f"the cases of sigma {sigma} are not proven: {exc}") from exc
    fails = _disproved(sigma, fam.cert)
    for d in _SAMPLES:  # one claim at most per sample
        computed = _doc(fam.samples[d])
        # the template is the computed case at d = 2 and 3 by _fit, bar the
        # prime powers; its own fields are walked, never the byte view
        if d > 3 and not _same(_doc(fam.cert(d, fam.prime_powers(d))), computed):
            fails.append(f"the template is the computed case at d = {d}")
        elif fam.document(d) != marshal.dumps(computed, 2):
            fails.append(f"the byte view is the computed case at d = {d}")
    if not fam.samples[1].passed:
        fails.append("the computed case at d = 1 passes every check")
    if fails:
        raise ValueError(f"the cases of sigma {sigma} are not proven: {'; '.join(fails)}")
    return fam


@cache
def build_case(sigma: int, d: int) -> CaseCertificate:
    """The certificate of the explicit construction for (sigma, d), from
    sigma's family, which is proven for every d on first use."""
    if error := _case_args_error(sigma, d):
        raise ValueError(error)
    return _family(sigma).case(d)


_DOC_FIELDS = tuple(f.name for f in fields(CaseCertificate))


def _same(a, b) -> bool:
    """JSON equality that tells 1, 1.0 and true apart, and list from tuple:
    equal marshal format 2 bytes (type and content, no object references, so
    blind to shared or interned objects) settle it fast, else a type-exact
    tree walk decides (the bytes see key order, the walk does not).  One side
    is a rebuilt document, so a value marshal refuses (a cycle, too deep, not
    JSON) differs."""
    try:
        return marshal.dumps(a, 2) == marshal.dumps(b, 2) or _same_tree(a, b)
    except (ValueError, RecursionError):
        return False


def _same_tree(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_tree(a[k], b[k]) for k in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_tree, a, b))
    return a == b


def verify_certificate(doc: dict) -> tuple[bool, list[str]]:
    """Re-verify a certificate document from its own sigma and d.

    A document verifies iff it equals the document of build_case(sigma, d)
    for its own sigma and d, JSON type for type (1, 1.0 and true differ) and
    lists in order; that document comes from sigma's family, whose claims are
    proven for every d, so every check in it passes.  Before any exact work
    the document must be a JSON object with exactly the nine fields of
    CaseCertificate.to_doc, sigma and d JSON integers, and (sigma, d) a pair
    build_case accepts.  No other field reaches exact work.  The document's
    marshal format 2 bytes are compared with the family's byte view at d,
    which is those of build_case(sigma, d).to_doc() without building either;
    only when they differ are the view's bytes loaded and each field walked
    type for type (so keys in another order still verify).  A refusal names
    each top-level field that differs.
    """
    if not isinstance(doc, dict):
        return False, ["certificate is not a JSON object"]
    if missing := [k for k in _DOC_FIELDS if k not in doc]:
        return False, [f"missing fields: {missing}"]
    if unknown := [k for k in doc if k not in _DOC_FIELDS]:
        return False, [f"unknown fields: {unknown}"]
    # JSON reads 1.5 as float and true as bool; int() would accept both
    for key in ("sigma", "d"):
        if type(doc[key]) is not int:
            return False, [f"{key} is not a JSON integer"]
    if error := _case_args_error(doc["sigma"], doc["d"]):
        return False, [error]
    try:
        view = _family(doc["sigma"]).document(doc["d"])
    except ValueError as exc:  # an unproven family, or an entry of over 4300 digits
        return False, [f"recomputation failed: {exc}"]
    try:
        if marshal.dumps(doc, 2) == view:
            return True, []
    except ValueError:  # marshal refuses it (a cycle, too deep, not JSON): it differs
        pass
    fresh = marshal.loads(view)
    differ = [k for k in _DOC_FIELDS if not _same(doc[k], fresh[k])]
    return not differ, [f"{k} does not match recomputation" for k in differ]


@dataclass(frozen=True)
class GlueReport:
    checks: tuple
    glue_order: int
    passed: bool


def gamma2_in_k3() -> GlueReport:
    """Verify the diagonal embedding of U(2) + E8(2) into the rank-22 lattice.

    U(2) goes diagonally across two hyperbolic planes and E8(2) diagonally
    across the two E8 blocks; the complement's invariants are compared with
    U + U(2) + E8(2) and the glue group of the pair must have order 2^10.
    """
    lam, dm = _lambda_k3()
    basis = [[0] * 22 for _ in range(10)]
    basis[0][0] = basis[0][2] = 1  # X across the first two hyperbolic planes
    basis[1][1] = basis[1][3] = 1  # Y
    for i in range(8):
        basis[2 + i][6 + i] = basis[2 + i][14 + i] = 1
    emb = LatticeEmbedding(lam, basis)
    comp = orthogonal_complement(emb)
    comp_lat = comp.sublattice()
    gamma2 = _gamma2()
    emb_gram = emb.gram()
    emb_lat = emb.sublattice()

    checks = [
        Check("embedding_primitive", is_primitive(emb), {}),
        Check(
            "embedded_gram_is_gamma2",
            emb_gram == gamma2.gram,
            {"gram": emb_gram.rows},
        ),
        Check("complement_rank", comp.rank == 12, {"rank": comp.rank}),
    ]
    sig, dc = signature(comp_lat), discriminant(comp_lat)
    checks.append(Check("complement_signature", sig == (2, 10), {"signature": sig}))
    checks.append(Check("complement_discriminant", dc == dm, {"computed": dc, "model": dm}))
    divs = tuple(_divisors(comp_lat))
    checks.append(Check("complement_divisors", divs == (2,) * 10, {"divisors": divs}))
    checks.append(Check("complement_even", is_even(comp_lat), {}))

    # glue of the pair inside the ambient rank-22 lattice
    den, inv = rat_inv([*emb.basis, *comp.basis])
    g = glue_data(emb_lat, comp_lat, inv, den)
    checks.append(Check("glue_order", g.order == 2**10, {"order": g.order}))
    checks.append(
        Check(
            "glue_projection_bijective",
            g.order == abs(discriminant(emb_lat)),
            {"glue_order": g.order, "l_gamma2_order": 2**10},
        )
    )
    return GlueReport(tuple(checks), g.order, all(c.passed for c in checks))


@dataclass(frozen=True)
class Verdict:
    p: int
    sigma: int
    answer: str  # Yes | No | Unknown
    reason: dict
    d: int | None = None
    arth_crosscheck: dict | None = None
    certificate: CaseCertificate | None = None

    def to_doc(self) -> dict:
        """_doc(self), with the certificate's own to_doc() in its place."""
        doc = _doc({**vars(self), "certificate": None})
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_doc()
        return doc


def decide_enriques(p: int, sigma: int) -> Verdict:
    """Decide whether the supersingular K3 of invariant (p, sigma) is Enriques.

    sigma = 1 is a cited fact (the Kummer surface of a product of two
    supersingular elliptic curves); sigma >= 6 is excluded; for sigma in
    2..5 a certificate is constructed when the d-search succeeds, and the
    remaining small-p cases are reported Unknown, not No.
    """
    if p == 2:
        raise ValueError("characteristic 2 is excluded")
    if not is_odd_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    if sigma not in _SIGMAS:
        raise ValueError("sigma must be in 1..10")

    if sigma == 1:
        return Verdict(
            p,
            1,
            "Yes",
            {
                "kind": "KummerSigma1",
                "detail": "cited fact: the Artin-invariant-1 surface is a Kummer "
                "surface with an Enriques involution",
            },
        )
    if sigma > _MAX_ARTIN:
        witness = _arth(p, 6, -(2**10))
        detail = "the twisted rank-10 discriminant 2^10 is a perfect square"
        if K3_RANK - 2 * sigma < 10:
            detail = f"rank bound: 22 - 2*{sigma} < 10"
        return Verdict(
            p,
            sigma,
            "No",
            {"kind": "SigmaBoundExceeded", "arth_sigma6_witness": witness, "detail": detail},
        )

    d = _find_d(p, sigma)
    if d is None:
        return Verdict(
            p,
            sigma,
            "Unknown",
            {
                "kind": "NoValidD",
                "detail": f"no d with 0 < 8d < {p} has the required residue class",
            },
        )
    crosscheck = {
        "parity_rule": _jacobi(-d, p) == _minus_d_class(sigma),
        # the rank-(22 - 2 sigma) discriminant is -4^a d, and 4^a is a square mod p
        "arth_rule": _arth(p, sigma, -d),
    }
    # _find_d stops below p / 8, and a case that fails raises in build_case
    return Verdict(
        p,
        sigma,
        "Yes",
        {"kind": "ConstructedCase", "d": d, "norm_bound": verify_norm_bound(p, d)},
        d=d,
        certificate=build_case(sigma, d),
        arth_crosscheck=crosscheck,
    )


@dataclass
class Survey:
    pmax: int
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["p", "sigma", "answer", "d", "reason"])
        for v in self.rows:
            w.writerow([v.p, v.sigma, v.answer, v.d if v.d is not None else "", v.reason["kind"]])
        return buf.getvalue()

    def summary(self) -> str:
        answers = {}  # p -> sigma -> answer, in one pass over the rows
        for v in self.rows:
            answers.setdefault(v.p, {})[v.sigma] = v.answer
        lines = [
            f"p={p:4d}  " + " ".join(f"{s}:{row[s][0]}" for s in sorted(row))
            for p, row in sorted(answers.items())
        ]
        lines.append(
            f"dichotomy (Yes iff sigma <= {_MAX_ARTIN}) holds for p = 19 and 23 < p <= "
            f"{self.pmax}: True"
        )
        return "\n".join(lines)


def survey(pmax: int) -> Survey:
    """Verdicts for all odd primes up to pmax and sigma in 1..10."""
    if pmax < 3:
        raise ValueError("pmax must be at least 3")
    out = Survey(pmax)
    for p in range(3, pmax + 1, 2):
        if not is_odd_prime(p):
            continue
        for sigma in _SIGMAS:
            out.rows.append(decide_enriques(p, sigma))
    for v in out.rows:
        if (v.p == 19 or v.p > 23) and v.answer != ("Yes" if v.sigma <= _MAX_ARTIN else "No"):
            raise RuntimeError("dichotomy pattern violated for p = 19 or p > 23")
    return out
