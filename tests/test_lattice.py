import math
import random
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3enriques.arith import _prime_powers
from k3enriques.intmat import det
from k3enriques.lattice import (
    DiscriminantGroup,
    IntegralLattice,
    _divisors,
    _ldl,
    builtin,
    diag_lattice,
    direct_sum,
    discriminant,
    discriminant_group,
    fixture_path,
    is_even,
    load_lattice,
    save_lattice,
    signature,
    twist,
)

from oracles import (
    arr,
    fraction_signature,
    minors_invariant_factors,
    random_even_symmetric,
    random_unimodular,
)


def test_builtin_u():
    assert builtin("U").gram.tolist() == [[0, 1], [1, 0]]
    assert signature(builtin("U")) == (1, 1)


def test_builtin_gamma():
    g = builtin("Gamma")
    assert g.rank == 10
    assert discriminant(g) == -1


def test_builtin_lambda():
    lam = builtin("LambdaK3")
    assert lam.rank == 22
    assert signature(lam) == (3, 19)
    assert discriminant(lam) == -1


def test_builtin_unknown():
    with pytest.raises(ValueError):
        builtin("D4")


def test_diag_lattice():
    m21 = diag_lattice([4, -4])
    assert m21.gram.tolist() == [[4, 0], [0, -4]]
    assert diag_lattice([-4, -4, -4, -4]).rank == 4
    with pytest.raises(ValueError):
        diag_lattice([4, 0])


def test_twist():
    assert twist(builtin("U"), 2).gram.tolist() == [[0, 2], [2, 0]]
    e8_2 = twist(builtin("E8"), 2)
    assert all(e8_2.gram[i, i] == -4 for i in range(8))
    assert all(x in (0, 2, -4) for row in e8_2.gram for x in row)
    assert twist(builtin("E8"), 1) == builtin("E8")


def test_direct_sum():
    g = direct_sum(builtin("U"), builtin("E8"))
    assert g.rank == 10 and discriminant(g) == -1
    g2 = direct_sum(twist(builtin("U"), 2), twist(builtin("E8"), 2))
    assert discriminant(g2) == -(2**10)
    empty = IntegralLattice([])
    assert direct_sum(builtin("U"), empty) == builtin("U")


def test_direct_sum_is_variadic():
    assert direct_sum().rank == 0
    e8 = builtin("E8")
    assert direct_sum(e8).gram == e8.gram
    a, b, c = builtin("U"), twist(e8, 2), diag_lattice([3, -5])
    assert direct_sum(a, b, c) == direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


def test_signature_examples():
    assert signature(builtin("E8")) == (0, 8)
    gamma2 = twist(direct_sum(builtin("U"), builtin("E8")), 2)
    assert signature(gamma2) == (1, 9)
    with pytest.raises(ValueError):
        signature(IntegralLattice([[1, 1], [1, 1]]))


def test_signature_congruence_invariant():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 6)
        g = random_even_symmetric(rng, n, -3, 3)
        if det(g) == 0:
            continue
        L = IntegralLattice(g)
        u = random_unimodular(rng, n)
        assert signature(IntegralLattice(u @ g @ u.T)) == signature(L)


@st.composite
def _sparse_symmetric(draw):
    # mostly-zero diagonals force the hyperbolic step; sparse rows make many
    # of the forms degenerate
    n = draw(st.integers(0, 7))
    small = st.one_of(st.just(0), st.integers(-3, 3))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(st.one_of(st.just(0), small))
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(small)
    return a


def _signature_or_error(f, gram):
    try:
        return f(gram)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(_sparse_symmetric())
def test_signature_matches_fraction_oracle(a):
    got = _signature_or_error(lambda g: signature(IntegralLattice(g)), a)
    assert got == _signature_or_error(fraction_signature, a)


@st.composite
def _forms_with_hyperbolic_blocks(draw):
    # sparse symmetric entries with zero diagonals, a few U blocks laid over
    # them, and maybe one row and column repeated, which makes the form singular
    n = draw(st.integers(0, 8))
    small = st.one_of(st.just(0), st.integers(-4, 4))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(small)
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = draw(small)
    for k in range(draw(st.integers(0, n // 2))):
        a[2 * k][2 * k] = a[2 * k + 1][2 * k + 1] = 0
        a[2 * k][2 * k + 1] = a[2 * k + 1][2 * k] = 1
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        for k in range(n):
            a[i][k] = a[j][k]
        for k in range(n):
            a[k][i] = a[k][j]
    return a


@settings(max_examples=300, deadline=None)
@given(_forms_with_hyperbolic_blocks())
def test_ldl_last_minor_is_det(a):
    # the pivot order and hyperbolic steps of _ldl are unimodular congruences
    L = IntegralLattice(a)
    d = _ldl(L.gram)[0]
    assert d[-1] == det(a)
    assert discriminant(L) == det(a)  # degenerate forms too


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 7), st.sampled_from([1, -1, 0]))
def test_ldl_rows_sum_the_form_in_squares(seed, n, kind):
    # the documented identity x^T G x = sum_k (r[k] . x)^2 / (d[k] d[k+1]) in
    # the caller's coordinates, on definite forms (kind +-1) and on random
    # symmetric ones (kind 0) whose elimination takes no hyperbolic step;
    # r[k] is 0 at order[:k] and d[k+1] at order[k]
    rng = random.Random(seed)
    if kind:
        b = [[0]]
        while det(b) == 0:
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [[kind * sum(map(mul, u, v)) for v in b] for u in b]
    else:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
    d, rows, order = _ldl(g)
    assume(order is not None)
    assert len(order) == len(rows) and len(set(order)) == len(order)
    for k, r in enumerate(rows):
        assert [r[i] for i in order[: k + 1]] == [0] * k + [d[k + 1]]
    for _ in range(5):
        x = [rng.randint(-9, 9) for _ in range(n)]
        form = sum(xi * gij * xj for xi, row in zip(x, g) for gij, xj in zip(row, x))
        squares = sum(
            Fraction(sum(map(mul, r, x)) ** 2, d[k] * d[k + 1]) for k, r in enumerate(rows)
        )
        assert form == squares


def test_ldl_pivots_smallest_first():
    # on a diagonal form each step only rescales the remaining diagonal, so
    # order sorts it by absolute value, ties by coordinate; a hyperbolic step
    # leaves no order
    assert _ldl([[5, 0, 0, 0], [0, -3, 0, 0], [0, 0, 7, 0], [0, 0, 0, 1]])[2] == [3, 1, 0, 2]
    assert _ldl([[2, 0, 0], [0, -2, 0], [0, 0, 2]])[2] == [0, 1, 2]
    assert _ldl([[0, 1], [1, 0]])[2] is None


def test_is_even():
    assert is_even(builtin("U"))
    assert not is_even(IntegralLattice([[1]]))
    assert is_even(twist(builtin("E8"), 2))


def test_discriminant_examples():
    gamma2 = twist(direct_sum(builtin("U"), builtin("E8")), 2)
    assert discriminant(gamma2) == -1024
    assert discriminant(builtin("LambdaK3")) == -1
    assert discriminant(diag_lattice([4 * 3, -4])) == -48
    assert discriminant(IntegralLattice([])) == 1


def test_discriminant_group_unimodular_trivial():
    for L in (builtin("Gamma"), IntegralLattice([])):  # rank 0 is unimodular too
        dg = discriminant_group(L)
        assert dg.divisors == () and dg.order == 1
        assert dg == DiscriminantGroup((), (), (), ())


def test_discriminant_group_u2():
    dg = discriminant_group(twist(builtin("U"), 2))
    assert dg.divisors == (2, 2)
    assert set(dg.generators) == {
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
    }
    assert dg.qvals == (Fraction(0), Fraction(0))
    assert dg.bform[0][1] == Fraction(1, 2)


def test_discriminant_group_gamma2():
    gamma2 = twist(direct_sum(builtin("U"), builtin("E8")), 2)
    dg = discriminant_group(gamma2)
    assert dg.divisors == (2,) * 10
    assert dg.order == 1024


def test_discriminant_group_degenerate_rejected():
    with pytest.raises(ValueError):
        discriminant_group(IntegralLattice([[2, 2], [2, 2]]))


def test_generator_orders_and_forms():
    L = diag_lattice([4, -4])
    dg = discriminant_group(L)
    assert dg.divisors == (4, 4)
    for d, g, q in zip(dg.divisors, dg.generators, dg.qvals):
        assert all((d * x).denominator == 1 for x in g)
        assert 0 <= q < 2
    for i, row in enumerate(dg.bform):
        for j, b in enumerate(row):
            assert 0 <= b < 1
            assert b == dg.bform[j][i]
            if i == j:
                # q(g) reduces to b(g, g) mod 1
                assert (dg.qvals[i] - b) % 1 == 0


def test_order_equals_det_random():
    rng = random.Random(13)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        g = random_even_symmetric(rng, n, -3, 3)
        d = det(g)
        if d == 0:
            continue
        dg = discriminant_group(IntegralLattice(g))
        assert dg.order == abs(d)
        done += 1


def test_divisors_match_discriminant_group_and_minors():
    rng = random.Random(31)
    done = 0
    while done < 40:
        n = rng.randint(1, 4)
        g = random_even_symmetric(rng, n, -4, 4)
        if det(g) == 0:
            continue
        L = IntegralLattice(g)
        want = [f for f in minors_invariant_factors(g.tolist()) if f > 1]
        assert _divisors(L) == list(discriminant_group(L).divisors) == want
        assert all(type(f) is int for f in _divisors(L))
        done += 1
    assert _divisors(IntegralLattice([])) == []


def test_twist_scales_discriminant():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 4)
        g = random_even_symmetric(rng, n, -3, 3)
        if det(g) == 0:
            continue
        L = IntegralLattice(g)
        for m in (2, 3):
            Lm = twist(L, m)
            assert discriminant(Lm) == m**n * discriminant(L)
            assert signature(Lm) == signature(L)


def _structure(dg):
    # the prime-power multiset of a discriminant group
    return sorted(q for d in dg.divisors for q in _prime_powers(d))


def test_direct_sum_divisor_structure():
    a = diag_lattice([4, -4])
    b = diag_lattice([-2, 6])
    dg = discriminant_group(direct_sum(a, b))
    combined = _structure(discriminant_group(a)) + _structure(discriminant_group(b))
    assert _structure(dg) == sorted(combined)


def test_file_roundtrip(tmp_path):
    L = twist(builtin("U"), 2)
    path = tmp_path / "u2.json"
    save_lattice(L, path)
    back = load_lattice(path)
    assert back == L


def test_fixtures_match_builtins():
    assert load_lattice(fixture_path("U")) == builtin("U")
    assert load_lattice(fixture_path("E8")) == builtin("E8")
    assert load_lattice(fixture_path("E8_2")) == twist(builtin("E8"), 2)
    assert load_lattice(fixture_path("Gamma")) == builtin("Gamma")
    gamma2 = direct_sum(twist(builtin("U"), 2), twist(builtin("E8"), 2))
    assert load_lattice(fixture_path("Gamma_2")) == gamma2
    assert load_lattice(fixture_path("LambdaK3")) == builtin("LambdaK3")


def test_load_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rank": 2, "gram": [1, 2, 3]}')
    with pytest.raises(ValueError):
        load_lattice(path)


def _mod(x: Fraction, m: int) -> Fraction:
    return x - m * (x.numerator // (m * x.denominator))


def _assert_discriminant_form(gram):
    n = gram.shape[0]
    dg = discriminant_group(IntegralLattice(gram))
    assert dg.order == abs(det(gram))
    assert all(b % a == 0 for a, b in zip(dg.divisors, dg.divisors[1:]))
    G = [[Fraction(int(x)) for x in row] for row in gram]

    def form(x, y):
        return sum(x[i] * G[i][j] * y[j] for i in range(n) for j in range(n))

    for d, g in zip(dg.divisors, dg.generators):
        assert d > 1 and all(0 <= x < 1 for x in g)
        assert math.lcm(*(x.denominator for x in g)) == d  # g has order d mod Z^n
        # g lies in the dual lattice: g G is integral
        assert all(sum(g[i] * G[i][j] for i in range(n)).denominator == 1 for j in range(n))
    for i, gi in enumerate(dg.generators):
        assert dg.qvals[i] == _mod(form(gi, gi), 2)
        for j, gj in enumerate(dg.generators):
            assert dg.bform[i][j] == _mod(form(gi, gj), 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**32))
def test_discriminant_forms_match_triple_products(n, seed):
    gram = random_even_symmetric(random.Random(seed), n, -3, 3)
    assume(det(gram) != 0)
    _assert_discriminant_form(gram)


@pytest.mark.parametrize("n, seed", [(12, 1), (22, 2)])
def test_discriminant_group_generic_gram_is_fast(n, seed):
    # generic Grams once made the Smith form's transforms explode
    gram = random_even_symmetric(random.Random(seed), n, -6, 6)
    t0 = time.perf_counter()
    _assert_discriminant_form(gram)
    assert time.perf_counter() - t0 < 1.0


def test_discriminant_group_skewed_basis_of_u_u2_e8_2():
    amb = direct_sum(direct_sum(builtin("U"), twist(builtin("U"), 2)), twist(builtin("E8"), 2))
    for seed in range(30):
        p = random_unimodular(random.Random(seed), 12, 20)
        t0 = time.perf_counter()
        dg = discriminant_group(IntegralLattice(p @ arr(amb.gram) @ p.T))
        assert time.perf_counter() - t0 < 1.0
        assert dg.divisors == (2,) * 10
