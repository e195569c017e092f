import hashlib
import importlib
import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3enriques.checker import build_case
from k3enriques.embeddings import LatticeEmbedding
from k3enriques.intmat import (
    Matrix,
    _snf_diagonal,
    det,
    hnf,
    intmat,
    kernel_basis,
    rat_inv,
    snf,
)
from k3enriques.lattice import _E8_GRAM, IntegralLattice, builtin, diag_lattice, twist

from oracles import (
    arr,
    fraction_inv,
    minors_invariant_factors,
    naive_det,
    naive_hnf,
    random_int_matrix,
)


def test_hnf_already_reduced():
    h, u = hnf([[2, 0], [0, 3]])
    assert h.tolist() == [[2, 0], [0, 3]]
    assert u.tolist() == [[1, 0], [0, 1]]


def test_hnf_unimodular_input():
    h, _ = hnf([[0, 1], [1, 0]])
    assert h.tolist() == [[1, 0], [0, 1]]


def test_hnf_hand_example():
    h, u = hnf([[2, 4], [1, 3]])
    # canonical form with the above-pivot entry reduced mod 2; the row
    # lattice is the same one spanned by (1,3) and (0,2)
    assert h.tolist() == [[1, 1], [0, 2]]
    h2, _ = hnf([[1, 3], [0, 2]])
    assert h2.tolist() == h.tolist()
    assert u @ intmat([[2, 4], [1, 3]]) == h


def test_snf_divisor_chain_kept():
    s, _, _ = snf([[2, 0], [0, 4]])
    assert s.tolist() == [[2, 0], [0, 4]]


def test_snf_unimodular():
    s, _, _ = snf([[0, 1], [1, 0]])
    assert s.tolist() == [[1, 0], [0, 1]]


def test_snf_hand_example():
    m = intmat([[2, 1], [1, 2]])
    s, u, v = snf(m)
    assert s.tolist() == [[1, 0], [0, 3]]
    assert u @ m @ v == s


def test_kernel_rank_one():
    k = kernel_basis([[1], [1]])
    assert k.shape == (1, 2)
    assert k.tolist()[0] in ([1, -1], [-1, 1])


def test_kernel_injective():
    k = kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert k.shape == (0, 3)


def test_kernel_saturated():
    k = kernel_basis([[2], [4]])
    assert k.shape == (1, 2)
    assert k.tolist()[0] in ([2, -1], [-2, 1])


def test_matrix_is_immutable_and_has_no_entrywise_arithmetic():
    m = intmat(_E8_GRAM)
    with pytest.raises(TypeError):
        m[0, 0] = 1
    with pytest.raises(TypeError):
        m[0] = (0,) * 8
    # tuple repetition and concatenation never happen silently
    for op in (lambda: 2 * m, lambda: m * 2, lambda: m + m):
        with pytest.raises(TypeError):
            op()
    assert twist(builtin("E8"), 2).gram.tolist() == [[2 * x for x in row] for row in _E8_GRAM]
    eq = m == m.T
    assert type(eq) is bool and eq
    assert m != intmat([[1]]) and m != _E8_GRAM


def test_matrix_shapes_flat_and_slices():
    k = kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert k.shape == (0, 3) and k.T.shape == (3, 0) and k.T.T.shape == (0, 3)
    assert list(k.flat) == [] and (k @ intmat([[1]] * 3)).shape == (0, 1)
    m = intmat([[1, 2, 3], [4, 5, 6]])
    assert list(m.flat) == [1, 2, 3, 4, 5, 6]
    assert m[1, 2] == 6 and m[1] == (4, 5, 6) and m[1:].tolist() == [[4, 5, 6]]
    assert m.T.tolist() == [[1, 4], [2, 5], [3, 6]] and m.diagonal() == (1, 5)
    assert (m @ m.T).tolist() == [[14, 32], [32, 77]]
    with pytest.raises(ValueError):
        m @ m


def test_det_examples():
    assert det([[0, 1], [1, 0]]) == -1
    assert det(_E8_GRAM) == 1
    assert det(_E8_GRAM) == naive_det(_E8_GRAM)
    e8_2 = (2 * arr(intmat(_E8_GRAM))).tolist()
    assert det(e8_2) == 256


def test_det_nonsquare_rejected():
    with pytest.raises(ValueError):
        det([[1, 2, 3], [4, 5, 6]])


def test_snf_random_properties():
    rng = random.Random(20240824)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = random_int_matrix(rng, r, c, -10, 10)
        s, u, v = snf(m)
        assert (arr(u) @ m @ arr(v) == arr(s)).all()
        assert abs(det(u)) == 1 and abs(det(v)) == 1
        diag = [int(s[i, i]) for i in range(min(r, c))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0) or (a == 0 and b == 0)


def test_hnf_snf_against_naive_oracles():
    rng = random.Random(7)
    for side, count in ((4, 120), (6, 40)):
        for _ in range(count):
            r = rng.randint(1, side)
            c = rng.randint(1, side)
            m = random_int_matrix(rng, r, c, -3, 3)
            h, u = hnf(m)
            assert h.tolist() == naive_hnf(m.tolist())
            assert (arr(u) @ m == arr(h)).all()
            assert abs(det(u)) == 1
            s, _, _ = snf(m)
            diag = [int(s[i, i]) for i in range(min(r, c)) if s[i, i] != 0]
            assert diag == minors_invariant_factors(m.tolist())


def test_kernel_random_properties():
    rng = random.Random(99)
    for _ in range(60):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = random_int_matrix(rng, r, c, -6, 6)
        k = kernel_basis(m)
        assert (arr(k) @ m == np.zeros((k.shape[0], c), dtype=object)).all()
        s, _, _ = snf(m)
        rank = sum(1 for i in range(min(r, c)) if s[i, i] != 0)
        assert k.shape[0] + rank == r
        if k.shape[0]:
            sk, _, _ = snf(k)
            assert all(sk[i, i] == 1 for i in range(k.shape[0]))


def test_det_multiplicative():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n, n, -5, 5)
        b = random_int_matrix(rng, n, n, -5, 5)
        assert det(a @ b) == det(a) * det(b)


@pytest.mark.parametrize("n", [10, 14, 22])
def test_snf_random_square_is_fast_and_small(n):
    # the smallest-pivot elimination this replaced took 4 s and 122k-bit
    # transforms at n = 10 and did not finish at n = 14
    m = random_int_matrix(random.Random(n), n, n, -50, 50)
    t0 = time.perf_counter()
    s, u, v = snf(m)
    assert time.perf_counter() - t0 < 1.0
    assert (arr(u) @ m @ arr(v) == arr(s)).all()
    assert abs(det(u)) == 1 and abs(det(v)) == 1
    assert max(abs(int(x)).bit_length() for x in [*u.flat, *v.flat]) < 1000


def test_rat_inv_against_fraction_oracle():
    rng = random.Random(3)
    tried = 0
    while tried < 80:
        n = rng.randint(1, 8)
        m = random_int_matrix(rng, n, n, -9, 9)
        if det(m) == 0:
            continue
        tried += 1
        d, inv = rat_inv(m)
        assert type(d) is int and abs(d) == abs(det(m))
        assert type(inv) is Matrix and all(type(x) is int for x in inv.flat)
        assert (arr(inv) @ m == d * np.identity(n, dtype=object)).all()
        assert [[Fraction(x, d) for x in row] for row in inv] == fraction_inv(m.tolist())


def test_kernels_refuse_a_fraction_matrix():
    # a Matrix holds ints; one built by hand around Fractions is refused by
    # every kernel, not floor-divided
    half = Matrix(((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))), 2)
    for kernel in (det, hnf, snf, kernel_basis, rat_inv, intmat):
        with pytest.raises(TypeError):
            kernel(half)
    with pytest.raises(TypeError):
        IntegralLattice(half)
    # an integral Fraction is a Fraction: refused too
    with pytest.raises(TypeError):
        intmat(Matrix(((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(1))), 2))


def test_rat_inv_refusals():
    assert rat_inv([]) == (1, Matrix((), 0))  # D = det of the empty matrix
    with pytest.raises(ZeroDivisionError):
        rat_inv([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="square"):
        rat_inv([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeError):
        rat_inv([[Fraction(1, 2)]])


def test_non_integer_entries_are_refused_not_truncated():
    with pytest.raises(TypeError):
        det([[Fraction(3, 2)]])
    with pytest.raises(TypeError):
        intmat([[2.7, -0.5]])
    with pytest.raises(TypeError):
        LatticeEmbedding(builtin("U"), [[0.5, 1.9]])
    with pytest.raises(TypeError):
        diag_lattice([2, 1.5])
    # integral Fractions are refused like any other non-integer
    with pytest.raises(TypeError):
        intmat([[Fraction(4, 2), -3]])
    with pytest.raises(TypeError):
        det([[Fraction(-6, 3)]])
    # numpy integers are integers
    m = intmat([[2, np.int64(-3)]])
    assert m.tolist() == [[2, -3]] and all(type(x) is int for x in m.flat)


@st.composite
def _int_matrices(draw):
    """(0..10) x (0..10) integer matrices; half of them are products through
    an inner dimension below min(r, c), so rank-deficient."""
    r, c = draw(st.integers(0, 10)), draw(st.integers(0, 10))

    def block(rows, cols, lo, hi):
        row = st.lists(st.integers(lo, hi), min_size=cols, max_size=cols)
        return Matrix(tuple(map(tuple, draw(st.lists(row, min_size=rows, max_size=rows)))), cols)

    if draw(st.booleans()) or min(r, c) == 0:
        return block(r, c, -9, 9)
    k = draw(st.integers(0, min(r, c) - 1))
    return block(r, k, -3, 3) @ block(k, c, -3, 3)


def _exact(*mats):
    return all(type(m) is Matrix and all(type(x) is int for x in m.flat) for m in mats)


@settings(max_examples=150, deadline=None)
@given(_int_matrices())
def test_int_row_kernels_against_oracles(m):
    r, c = m.shape
    rows = m.tolist()
    h, u = hnf(m)
    s, su, sv = snf(m)
    k = kernel_basis(m)
    assert _exact(h, u, s, su, sv, k)
    shapes = (h.shape, u.shape, s.shape, su.shape, sv.shape)
    assert shapes == ((r, c), (r, r), (r, c), (r, r), (c, c))
    assert h.tolist() == naive_hnf(rows)
    assert (u @ m).tolist() == h.tolist() and (su @ m @ sv).tolist() == s.tolist()
    assert all(abs(det(x)) == 1 for x in (u, su, sv))
    diag = [s[i, i] for i in range(min(r, c))]
    assert _snf_diagonal(m) == diag and _snf_diagonal(rows) == diag
    assert s.tolist() == [[diag[i] if i == j else 0 for j in range(c)] for i in range(r)]
    rank = sum(1 for x in diag if x)
    assert all(b % a == 0 for a, b in zip(diag[:rank], diag[1:]))
    # the minors and cofactor oracles are exponential: run them on small sides
    if min(r, c) <= 4:
        assert diag[:rank] == minors_invariant_factors(rows)
    if r == c and r <= 6:
        assert det(m) == naive_det(rows)
    # kernel: annihilates m, has dimension r - rank, and is saturated
    assert k.shape == (r - rank, r)
    assert not any((k @ m).flat)
    assert all(x == 1 for x in snf(k)[0].diagonal())


@settings(max_examples=150, deadline=None)
@given(_int_matrices())
def test_snf_diagonal_of_transpose(m):
    assert _snf_diagonal(m) == _snf_diagonal(m.T)


def test_diagonal_hermite_form_takes_one_pass(monkeypatch):
    # unimodular Gram matrices have the identity as row Hermite form, and a
    # diagonal matrix one with its signs dropped: no column pass follows
    intmat_module = importlib.import_module("k3enriques.intmat")
    passes, hermite = [], intmat_module._hnf
    monkeypatch.setattr(intmat_module, "_hnf", lambda a, u: passes.append(a) or hermite(a, u))
    diagonal = intmat([[-3, 0, 0], [0, 5, 0], [0, 0, 0]])
    for m in (builtin("E8").gram, builtin("LambdaK3").gram, diagonal):
        for kernel in (snf, _snf_diagonal):
            passes.clear()
            kernel(m)
            assert len(passes) == 1
    assert snf(diagonal)[0].diagonal() == (1, 15, 0)


def _snf_digest(m) -> str:
    s, u, v = snf(m)
    return hashlib.sha256(json.dumps([s.tolist(), u.tolist(), v.tolist()]).encode()).hexdigest()


def test_snf_transforms_pinned():
    # S, U and V as snf returned them when the diagonal check ran only after
    # a row and a column pass: checking after every pass changes no transform
    gamma2_basis = [[0] * 22 for _ in range(10)]
    gamma2_basis[0][0] = gamma2_basis[0][2] = gamma2_basis[1][1] = gamma2_basis[1][3] = 1
    for i in range(8):
        gamma2_basis[2 + i][6 + i] = gamma2_basis[2 + i][14 + i] = 1
    rng = random.Random(20)
    digests = {
        "E8": _snf_digest(builtin("E8").gram),
        "N": _snf_digest(build_case(2, 999999937).complement_gram),
        "gamma2_basis": _snf_digest(gamma2_basis),
        "random_6x9": _snf_digest([[rng.randint(-9, 9) for _ in range(9)] for _ in range(6)]),
    }
    assert digests == {
        "E8": "af89290a1ff686bed973818f8b84919c2330d8cdf9bd9fdcde8917e23e6bb007",
        "N": "e795dde604f1cb2e11ba9821766e6fb0a0e56287ead2cf30a0473afa5090414f",
        "gamma2_basis": "43b5dd8b6326d0c7bcc0e23086a8a5cd98eaa352c6d278c38bd4188202170ff2",
        "random_6x9": "e227039cd808daa52ec31c54f55654052828e15e4108da9955fd340e3af3ead4",
    }
