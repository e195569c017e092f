import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3enriques.embeddings import (
    LatticeEmbedding,
    extends_to,
    glue_data,
    identity_map,
    is_primitive,
    negation_map,
    orthogonal_complement,
    overlattice,
)
from k3enriques.lattice import (
    builtin,
    diag_lattice,
    direct_sum,
    discriminant,
    signature,
    twist,
)

from oracles import (
    arr,
    fraction_extends_to,
    fraction_glue,
    fraction_glue_isotropic,
    random_int_matrix,
    saturation,
)

U2 = twist(builtin("U"), 2)


def gamma2():
    return direct_sum(U2, twist(builtin("E8"), 2))


def test_is_primitive():
    assert is_primitive(LatticeEmbedding(U2, [[1, 1]]))
    assert not is_primitive(LatticeEmbedding(U2, [[2, 0]]))
    amb = gamma2()
    nu = LatticeEmbedding(amb, [[1, 1] + [0] * 8, [0, 0, 1] + [0] * 7])
    assert is_primitive(nu)


def test_embedding_rejects_dependent_rows():
    with pytest.raises(ValueError, match="linearly independent"):
        LatticeEmbedding(builtin("U"), [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError, match="linearly independent"):
        LatticeEmbedding(gamma2(), [[1, 2] + [0] * 8, [2, 4] + [0] * 8])


def test_embedding_gram_is_the_triple_product_computed_once():
    rng = random.Random(8)
    amb = gamma2()
    for _ in range(20):
        e = LatticeEmbedding(amb, random_int_matrix(rng, rng.randint(1, 4), 10, -9, 9))
        g = e.gram()
        b = arr(e.basis)
        assert g.tolist() == (b @ arr(amb.gram) @ b.T).tolist()
        # the basis is immutable, so the product is shared, not recomputed
        assert e.gram() is g and e.sublattice().gram == g


def test_orthogonal_complement_case21():
    amb = gamma2()
    nu = LatticeEmbedding(amb, [[1, 1] + [0] * 8, [0, 0, 1] + [0] * 7])
    comp = orthogonal_complement(nu)
    sub = comp.sublattice()
    assert comp.rank == 8
    assert signature(sub) == (0, 8)
    assert abs(discriminant(sub)) == 1024


def test_orthogonal_complement_isotropic_vector():
    e = LatticeEmbedding(U2, [[1, 0]])
    with pytest.warns(UserWarning) as caught:
        comp = orthogonal_complement(e)
    assert caught[0].filename == __file__  # the warning names the caller's line
    assert comp.rank == 1
    assert comp.basis.tolist() in ([[1, 0]], [[-1, 0]])


def test_orthogonal_complement_block_split():
    gamma = builtin("Gamma")  # U + E8, U coordinates first
    rows = [[0] * 2 + [1 if j == i else 0 for j in range(8)] for i in range(8)]
    comp = orthogonal_complement(LatticeEmbedding(gamma, rows))
    assert comp.sublattice() == builtin("U")


def test_double_complement_is_saturation():
    amb = gamma2()
    e = LatticeEmbedding(amb, [[2, 2] + [0] * 8])  # imprimitive rank 1
    cc = orthogonal_complement(orthogonal_complement(e))
    sat = saturation(e.basis).tolist()
    assert cc.rank == len(sat) == 1
    assert cc.basis.tolist()[0] in (sat[0], [-x for x in sat[0]])


def test_overlattice_u_from_diag():
    M = diag_lattice([4, -4])
    ov = overlattice(M, [(F(1, 4), F(1, 4))])
    assert discriminant(ov) == -1
    assert signature(ov) == (1, 1)
    assert all(ov.gram[i, i] % 2 == 0 for i in range(2))
    assert ov.index == 4
    assert ov.index**2 * abs(discriminant(ov)) == abs(discriminant(M))


def test_overlattice_empty_glue():
    g2 = gamma2()
    ov = overlattice(g2, [])
    assert ov == g2 and ov.index == 1
    assert ov.label is None and overlattice(U2, []).label == "overlattice of U(2)"


def test_overlattice_rejects_nonisotropic():
    with pytest.raises(ValueError, match="q = 1"):
        overlattice(U2, [(F(1, 2), F(1, 2))])


def test_glue_data_z4():
    M = diag_lattice([4, -4])
    ov = overlattice(M, [(F(1, 4), F(1, 4))])
    g = glue_data(diag_lattice([4]), diag_lattice([-4]), ov.basis_in_base)
    assert g.order == 4
    # the order-4 generator of l(diag(4)) maps to an order-4 element
    quarter = (F(1, 4),)
    gamma = dict(g.elements)
    assert quarter in gamma or (F(3, 4),) in gamma
    s2 = gamma.get(quarter, gamma.get((F(3, 4),)))
    assert min(x.denominator for x in s2) == 4


def test_glue_data_trivial():
    M = diag_lattice([4])
    N = diag_lattice([-4])
    g = glue_data(M, N, [[1, 0], [0, 1]])
    assert g.order == 1
    assert extends_to(identity_map, negation_map, g)
    assert extends_to(negation_map, negation_map, g)


def test_glue_data_rejects_non_primitive_pair():
    # 1/2 of diag(4) glued to nothing: the projection to l(N) is not injective
    with pytest.raises(ValueError, match="not injective"):
        glue_data(diag_lattice([4]), diag_lattice([-4]), [[F(1, 2), 0], [0, 1]])
    # isotropic of order 6, but twice it is (0, 0, 1/3), which l(M) does not
    # see; rows den (J - I) in place of den I would span less here, list a
    # group of order 2 and return it, while no accepted input tells them apart
    over = [[F(1, 2), 0, F(1, 6)], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ValueError, match="not injective"):
        glue_data(diag_lattice([4]), diag_lattice([-4, 36]), over)


def test_glue_data_rejects_non_isotropic_glue():
    # q(1/2, 1/2) = 4/4 + 8/4 = 3, not 0 mod 2
    with pytest.raises(ValueError, match="not isotropic"):
        glue_data(diag_lattice([4]), diag_lattice([8]), [[F(1, 2), F(1, 2)], [1, 0], [0, 1]])


def test_glue_data_rejects_glue_outside_dual():
    # l(diag(4)) is Z/4, and (1/8, 1/8) pairs to 1/2 with e1
    with pytest.raises(ValueError, match="not in the dual lattice"):
        glue_data(diag_lattice([4]), diag_lattice([-4]), [[F(1, 8), F(1, 8)], [1, 0], [0, 1]])


def test_glue_data_rejects_odd_lattice():
    with pytest.raises(ValueError, match="odd"):
        glue_data(diag_lattice([1]), diag_lattice([-4]), [[1, 0], [0, 1]])


def test_extends_to_two_torsion():
    # index-2 glue: 2-torsion, where -id acts as id
    M = diag_lattice([4, -4])
    ov = overlattice(M, [(F(1, 2), F(1, 2))])
    g = glue_data(diag_lattice([4]), diag_lattice([-4]), ov.basis_in_base)
    assert g.order == 2
    assert extends_to(identity_map, negation_map, g)


def test_extends_to_z4_fails():
    M = diag_lattice([4, -4])
    ov = overlattice(M, [(F(1, 4), F(1, 4))])
    g = glue_data(diag_lattice([4]), diag_lattice([-4]), ov.basis_in_base)
    assert not extends_to(identity_map, negation_map, g)
    assert extends_to(identity_map, identity_map, g)
    assert extends_to(negation_map, negation_map, g)


def _compose(f, h):
    return lambda v: f(h(v))


def test_extends_to_composition():
    M = diag_lattice([4, -4])
    ov = overlattice(M, [(F(1, 4), F(1, 4))])
    g = glue_data(diag_lattice([4]), diag_lattice([-4]), ov.basis_in_base)
    for f1, p1 in [(identity_map, identity_map), (negation_map, negation_map)]:
        for f2, p2 in [(identity_map, identity_map), (negation_map, negation_map)]:
            assert extends_to(_compose(f1, f2), _compose(p1, p2), g)


def _shift(den):
    # + den: the identity mod den
    return lambda v: tuple(x + den for x in v)


def _negate_upper(den):
    # not a homomorphism: it moves only numerators with 2x >= den, so only the
    # glue elements late in sorted order can expose it
    return lambda v: tuple(-x if 2 * x >= den else x for x in v)


def _third(den):
    # a non-integer numerator is no glue coordinate
    return lambda v: (F(1, 3),) + tuple(v[1:])


def _as_list(den):
    # the identity as a list: never a glue key as returned
    return lambda v: list(v)


def _den_minus(den):
    # -v mod den, but den in place of 0: reduced, so a key as returned,
    # exactly when no numerator is 0
    return lambda v: tuple(den - x for x in v)


# each entry builds a numerator map for the glue denominator den
GLUE_MAPS = [
    lambda den: identity_map,
    lambda den: negation_map,
    lambda den: _compose(negation_map, negation_map),
    _shift,
    lambda den: _compose(_shift(den), negation_map),
    _negate_upper,
    _third,
    _as_list,
    _den_minus,
]


def _over_den(f, den):
    """The numerator map f conjugated by division by den: a map of Fraction
    tuples mod 1, as the Fraction oracle takes them."""
    return lambda s: tuple(F(x) / den for x in f(tuple(int(y * den) for y in s)))


@st.composite
def diagonal_glue(draw):
    """diag(2k_i) (+) diag(-2k_i), glued by (e_i/t, +-e_i/t) with t | 2k_i."""
    ks = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    r = len(ks)
    gens = []
    for i, k in enumerate(ks):
        t = draw(st.sampled_from([t for t in range(1, 2 * k + 1) if 2 * k % t == 0]))
        g = [F(0)] * (2 * r)
        g[i], g[r + i] = F(1, t), F(draw(st.sampled_from([1, -1])), t)
        gens.append(g)
    M, N = diag_lattice([2 * k for k in ks]), diag_lattice([-2 * k for k in ks])
    return M, N, overlattice(direct_sum(M, N), gens).basis_in_base


def _units(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def skewed_glue(draw):
    """diag(2k_i) (+) diag(2l_i), glued by (e_i/t_i, y_i) with
    y_i = (a_i e_i + sum_{j > i} c_ij e_j)/t_i and gcd(a_i, t_i) = 1.
    Both projections are injective; the glue may leave the dual lattice or
    fail to be isotropic, also on a pair of generators only."""
    r = draw(st.integers(1, 2))
    gens = []
    for i in range(r):
        t = draw(st.integers(1, 4))
        g = [F(0)] * (2 * r)
        g[i] = F(1, t)
        g[r + i] = F(draw(st.sampled_from([a for a in range(1, t + 1) if gcd(a, t) == 1])), t)
        for j in range(i + 1, r):
            g[r + j] = F(draw(st.integers(0, t - 1)), t)
        gens.append(g)
    ks = draw(st.lists(st.integers(1, 4), min_size=r, max_size=r))
    ls = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=r, max_size=r))
    return diag_lattice([2 * k for k in ks]), diag_lattice([2 * l for l in ls]), gens + _units(2 * r)


def _over_int(over, den: int):
    """The rational rows of over as integer numerators over den, which every
    denominator of over divides."""
    return [[int(F(x) * den) for x in row] for row in over]


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(diagonal_glue(), skewed_glue()),
    st.sampled_from([1, 2, 3, -1, -6]),
    st.sampled_from(GLUE_MAPS),
    st.sampled_from(GLUE_MAPS),
)
def test_glue_matches_fraction_oracle(glue, scale, phi_at, psi_at):
    M, N, over = glue
    # the integer entry: numerators over a multiple of the least denominator
    den = scale * lcm(*(F(x).denominator for row in over for x in row))
    if not fraction_glue_isotropic(direct_sum(M, N).gram, over):
        with pytest.raises(ValueError, match="dual lattice|not isotropic") as refused:
            glue_data(M, N, over)
        with pytest.raises(ValueError, match="dual lattice|not isotropic") as refused_int:
            glue_data(M, N, _over_int(over, den), den)
        assert str(refused.value) == str(refused_int.value)
        return
    g = glue_data(M, N, over)
    assert glue_data(M, N, _over_int(over, den), den) == g
    elements = fraction_glue(M.rank, over)
    # the Fraction views are the eager construction of the Fraction glue
    assert g.order == len(elements)
    assert g.elements == elements
    assert all(type(x) is F for s1, s2 in g.elements for x in s1 + s2)
    phibar, psibar = phi_at(g.den), psi_at(g.den)
    assert extends_to(phibar, psibar, g) == fraction_extends_to(
        _over_den(phibar, g.den), _over_den(psibar, g.den), elements
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(diagonal_glue(), skewed_glue()))
# q = 0 on the generator, but it is outside the dual lattice
@example((diag_lattice([2]), diag_lattice([-2]), [[F(1, 4), F(1, 4)]] + _units(2)))
# q = 0 mod 2 on each generator, but the two pair to 1/2
@example(
    (
        diag_lattice([2, 6]),
        diag_lattice([4, 2]),
        [[F(1, 2), 0, F(1, 2), F(1, 2)], [0, F(1, 2), 0, F(1, 2)]] + _units(4),
    )
)
def test_glue_generator_check_matches_all_elements(glue):
    M, N, over = glue
    if fraction_glue_isotropic(direct_sum(M, N).gram, over):
        glue_data(M, N, over)
    else:
        with pytest.raises(ValueError, match="dual lattice|not isotropic"):
            glue_data(M, N, over)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.lists(st.integers(-200, 200), max_size=6))
def test_negation_map_is_minus_x_mod_den(den, a):
    out = negation_map(tuple(a))
    assert all(type(y) is int for y in out)
    assert [y % den for y in out] == [-x % den for x in a]


def test_index_discriminant_identity():
    amb = gamma2()
    nu = LatticeEmbedding(amb, [[1, 2] + [0] * 8, [0, 0, 1] + [0] * 7])
    comp = orthogonal_complement(nu)
    d_m = discriminant(nu.sublattice())
    d_c = discriminant(comp.sublattice())
    d_l = discriminant(amb)
    ratio = abs(d_m * d_c) // abs(d_l)
    assert abs(d_m * d_c) % abs(d_l) == 0
    # ratio is the squared index of M + M-perp in the ambient lattice
    assert int(ratio**0.5) ** 2 == ratio


def test_overlattice_glue_roundtrip():
    M = diag_lattice([4, -4])
    ov = overlattice(M, [(F(1, 4), F(1, 4))])
    g = glue_data(diag_lattice([4]), diag_lattice([-4]), ov.basis_in_base)
    assert g.order == ov.index
