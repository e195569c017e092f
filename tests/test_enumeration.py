import random
import time
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3enriques import enumeration
from k3enriques.enumeration import count_norm, short_vectors
from k3enriques.intmat import det
from k3enriques.lattice import IntegralLattice, builtin, diag_lattice, signature, twist

from oracles import (
    arr,
    box_short_vectors,
    full_ball_short_vectors,
    random_even_symmetric,
    random_unimodular,
)


def test_e8_roots():
    report = short_vectors(builtin("E8"), 2)
    assert len(report.vectors) == 240
    assert all(nm == -2 for _, nm in report.vectors)
    assert report.counts == {-2: 240}


def test_single_diagonal():
    report = short_vectors(diag_lattice([-4]), 4)
    assert sorted(v for v, _ in report.vectors) == [(-1,), (1,)]
    assert report.min_norm == -4


def test_all_norms_multiple_of_four():
    n21 = diag_lattice([-4, -4])
    assert short_vectors(n21, 2).vectors == ()


def test_indefinite_rejected():
    text = "^short-vector enumeration requires a definite lattice$"
    for gram in (
        [[0, 1], [1, 0]],  # U: indefinite, zero diagonal
        [[-2, 0], [0, 2]],
        [[2, 1], [1, -2]],
        [[-2, 2], [2, -2]],  # degenerate, negative semidefinite
        [[2, 0], [0, 0]],
        [[0, 0], [0, -2]],
        [[0]],
    ):
        L = IntegralLattice(gram)
        with pytest.raises(ValueError, match=text):
            short_vectors(L, 2)
        # the same text once signature has read the cached elimination
        if det(gram):
            assert 0 not in signature(L)
        else:
            with pytest.raises(ValueError, match="^degenerate form has no signature$"):
                signature(L)
        with pytest.raises(ValueError, match=text):
            short_vectors(L, 2)


def _min_norm(L):
    # a basis vector has norm within the bound, so the report is never empty
    return short_vectors(L, min(map(abs, L.gram.diagonal()))).min_norm


def test_min_norm():
    assert _min_norm(builtin("E8")) == -2
    assert _min_norm(diag_lattice([-4, -4])) == -4


def test_count_norm():
    assert count_norm(builtin("E8"), -2) == 240
    assert count_norm(diag_lattice([-2]), -2) == 2
    assert count_norm(diag_lattice([-4, -4]), -2) == 0
    assert count_norm(diag_lattice([1, 1, 3]), 1) == 4  # an odd norm: only 0 is refused


def test_symmetry_and_order():
    report = short_vectors(diag_lattice([-2, -2]), 4)
    vecs = [v for v, _ in report.vectors]
    assert len(vecs) == len(set(vecs))
    for v in vecs:
        assert tuple(-x for x in v) in set(vecs)
    # representative with positive leading entry comes first in each pair
    for a, b in zip(vecs[::2], vecs[1::2]):
        assert next(x for x in a if x) > 0
        assert b == tuple(-x for x in a)
    assert all(c % 2 == 0 for c in report.counts.values())


def _random_negdef(rng, n):
    while True:
        g = random_even_symmetric(rng, n, -3, 3) - 12 * n * np.identity(n, dtype=object)
        L = IntegralLattice(g)
        if det(g) != 0 and signature(L) == (0, n):
            return L


def _skewed(L, u):
    return IntegralLattice(u @ arr(L.gram) @ u.T)


def test_completeness_against_box_oracle():
    rng = random.Random(2024)
    for _ in range(12):
        n = rng.randint(1, 4)
        L = _random_negdef(rng, n)
        for bound in (2, 5, 9):
            got = sorted(short_vectors(L, bound).vectors)
            want = sorted(box_short_vectors(L.gram.tolist(), bound))
            assert got == want


def test_min_norm_scales_with_twist():
    rng = random.Random(77)
    for _ in range(6):
        L = _random_negdef(rng, rng.randint(1, 3))
        for m in (2, 3):
            assert _min_norm(twist(L, m)) == m * _min_norm(L)


def test_twist_mod4_shortcut():
    # Gram in 2Z with diagonal in 4Z cannot represent -2
    L = twist(builtin("E8"), 2)
    # restrict to a definite sublattice: E8(2) itself is negative definite
    assert count_norm(L, -2) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.integers(0, 20))
def test_count_norm_invariant_under_unimodular(seed, e8, steps):
    # a basis vector's norm, so every count is at least 2
    rng = random.Random(seed)
    L = builtin("E8") if e8 else _random_negdef(rng, rng.randint(1, 4))
    t = int(L.gram[0, 0])
    u = random_unimodular(rng, L.rank, steps)
    assert count_norm(_skewed(L, u), t) == count_norm(L, t)


def test_skewed_e8_roots_are_fast():
    L = _skewed(builtin("E8"), random_unimodular(random.Random(1), 8, 30))
    t0 = time.perf_counter()
    assert count_norm(L, -2) == 240
    assert time.perf_counter() - t0 < 1.0


def _random_definite(rng, n):
    """B B^T for a random nonsingular B with entries in {-1, 0, 1}: small
    norms, so bounds up to 8 reach many vectors."""
    while True:
        b = np.array([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)], dtype=object)
        if det(b) != 0:
            return b @ b.T


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32), st.integers(1, 6), st.booleans(), st.integers(0, 12), st.integers(1, 8)
)
def test_half_ball_matches_full_ball(seed, n, positive, steps, bound):
    rng = random.Random(seed)
    g = _random_definite(rng, n)
    L = _skewed(IntegralLattice(g if positive else -g), random_unimodular(rng, n, steps))
    # whole reports: vector order, norms, counts and min_norm
    assert short_vectors(L, bound) == full_ball_short_vectors(L, bound)
    # signature reads the elimination short_vectors left on L
    assert signature(L) == ((n, 0) if positive else (0, n))


def _skewed_e8_nodes(monkeypatch, steps):
    # one isqrt per search node, counting the roots of E8 under `steps`
    # elementary row operations
    nodes = [0]

    def counting_isqrt(v):
        nodes[0] += 1
        return isqrt(v)

    monkeypatch.setattr(enumeration, "isqrt", counting_isqrt)
    L = _skewed(builtin("E8"), random_unimodular(random.Random(1), 8, steps))
    assert count_norm(L, -2) == 240
    return nodes[0]


def test_half_ball_node_count(monkeypatch):
    # searching in the basis order as given took 125,403 nodes here
    assert _skewed_e8_nodes(monkeypatch, 30) == 3_917


@pytest.mark.parametrize("steps, nodes", [(5, 295), (20, 4_053), (40, 45_027)])
def test_skewed_e8_node_ladder(monkeypatch, steps, nodes):
    # with 30 steps above: the smallest-pivot-first search order keeps the
    # count from growing with the skew as the basis order did (15,070 nodes
    # at 20 steps, 1,696,837 at 40)
    assert _skewed_e8_nodes(monkeypatch, steps) == nodes
