import math
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3enriques import arith
from k3enriques.arith import (
    HODGE_SLOPES,
    NewtonPolygon,
    _MR_BASES,
    _MR_TABLE,
    _heights,
    _jacobi,
    _miller_rabin,
    _pollard_brent,
    _prime_powers,
    _strong_lucas,
    arth,
    find_d,
    frobenius_bounds_enriques,
    is_odd_prime,
    legendre,
    newton_slopes,
    polygon_lies_above,
    verify_norm_bound,
)
from k3enriques.checker import build_case, decide_enriques

from oracles import proth_is_prime, trial_is_prime, trial_prime_powers

ODD_PRIMES_200 = [p for p in range(3, 201) if trial_is_prime(p)]

PSI12 = 318665857834031151167461
PSI13 = 3317044064679887385961981


@contextmanager
def _within(seconds):
    # a call that does not end fails here, well before the conftest watchdog
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_is_odd_prime_exhaustive_small():
    # the first test, so that a loop in Miller-Rabin (on n = 1, say) fails here
    with _within(5):
        found = [n for n in range(-10, 20000) if is_odd_prime(n)]
    assert found == [n for n in range(3, 20000, 2) if trial_is_prime(n)]


def test_jacobi_is_the_product_of_legendre_symbols():
    # (a/n) over the prime factors q of n with multiplicity, each by Euler's
    # criterion: 0 exactly when gcd(a, n) > 1.  Before the Lucas step needs
    # it, so that a loop in _jacobi fails here
    with _within(10):
        for n in range(1, 300, 2):
            qs, m = [], n
            for q in range(3, n + 1, 2):
                while m % q == 0:
                    qs.append(q)
                    m //= q
            for a in range(-n, 2 * n):
                assert _jacobi(a, n) == math.prod((pow(a, (q - 1) // 2, q) + 1) % q - 1 for q in qs)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=2**64), st.integers(min_value=-(2**80), max_value=2**80))
def test_jacobi_is_eulers_criterion(n, a):
    # for a prime p, (a/p) by reciprocity is a^((p - 1)/2) mod p, read as -1, 0, 1
    for p in (next(q for q in count(n | 1, 2) if is_odd_prime(q)), 2**127 - 1):
        for x in (a, -a, a * p, -p, 0, p - 1, a % p - p):
            r = pow(x, (p - 1) // 2, p)
            assert _jacobi(x, p) == (-1 if r == p - 1 else r), (x, p)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-10, max_value=10**6))
def test_is_odd_prime_matches_trial_division(n):
    assert is_odd_prime(n) == (n % 2 == 1 and trial_is_prime(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10**12 - 1))
def test_is_odd_prime_matches_trial_division_large(n):
    assert is_odd_prime(n) == (n % 2 == 1 and trial_is_prime(n))


@pytest.mark.parametrize(
    "n",
    [
        561,
        1105,
        3825123056546413051,  # passes Miller-Rabin to the bases 2..31
        PSI12,  # passes Miller-Rabin to the bases 2..37
        PSI13,  # passes Miller-Rabin to the bases 2..41; the Lucas step rejects it
    ],
)
def test_is_odd_prime_rejects_strong_pseudoprimes(n):
    assert not is_odd_prime(n)


def test_psi_table():
    # each row's bound is a strong pseudoprime to the row's bases, which
    # is_odd_prime must refuse on a later row (or by the Lucas step past the
    # last); the rows serve increasing ranges, and every base is below the
    # least n its row serves (43 is the least that trial division to 41
    # leaves), so no base is 0 mod n
    least = 43
    for bound, bases in _MR_TABLE:
        assert _miller_rabin(bound, bases), bound
        assert not is_odd_prime(bound), bound
        assert max(bases) < least < bound
        least = bound
    assert [b for b, _ in _MR_TABLE][3:5] == [4759123141, 1122004669633]
    assert least == PSI13


# the n that each row of _MR_TABLE serves, then the range of the Lucas step
ROWS = [(43, _MR_TABLE[0][0])] + [
    (lo, hi) for (lo, _), (hi, _) in zip(_MR_TABLE, _MR_TABLE[1:])
] + [(PSI13, 2**128)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_odd_prime_in_each_row(data):
    # trial division settles every n below 2^41; above that, n is drawn as a
    # Proth number r * 2^k + 1 (r odd, r < 2^k), which Proth's theorem settles
    lo, hi = data.draw(st.sampled_from(ROWS))
    if hi <= 2**41:
        n = data.draw(st.integers(lo, hi - 1))
        assert is_odd_prime(n) == (n % 2 == 1 and trial_is_prime(n))
    else:
        k = (hi.bit_length() + 1) // 2
        r_min, r_max = ((lo - 2) >> k) + 1, (hi - 2) >> k  # lo <= r * 2^k + 1 < hi
        r = 2 * data.draw(st.integers(r_min // 2, (r_max - 1) // 2)) + 1
        n = (r << k) + 1
        assert lo <= n < hi and r < 2**k
        assert is_odd_prime(n) == proth_is_prime(n)


def test_is_odd_prime_takes_its_rows_bases(monkeypatch):
    # the least and the greatest prime of each row's range are tested on that
    # row's bases alone, and past psi_13 on the bases 2..41 and the Lucas step
    ends = [
        (next(filter(is_odd_prime, count(lo))), next(filter(is_odd_prime, count(hi - 1, -1))))
        for lo, hi in ROWS[:-1]
    ] + [(next(filter(is_odd_prime, count(PSI13))),) * 2]
    calls = []
    mr, lucas = arith._miller_rabin, arith._strong_lucas
    monkeypatch.setattr(arith, "_miller_rabin", lambda n, bases: calls.append(bases) or mr(n, bases))
    monkeypatch.setattr(arith, "_strong_lucas", lambda n: calls.append("lucas") or lucas(n))
    for ps, want in zip(ends, [[b] for _, b in _MR_TABLE] + [[_MR_BASES, "lucas"]]):
        for p in ps:
            calls.clear()
            assert is_odd_prime(p)
            assert calls == want, p


@pytest.mark.parametrize("n", [b + e for b, _ in _MR_TABLE for e in (-2, 2)])
def test_is_odd_prime_beside_each_bound(n):
    assert is_odd_prime(n) == trial_is_prime(n)


@pytest.mark.parametrize("e", [61, 89, 127])
def test_is_odd_prime_accepts_mersenne_primes(e):
    assert is_odd_prime(2**e - 1)


def test_strong_lucas_pseudoprimes_below_1e5():
    # the odd composites below 10^5 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255), restricted to those coprime to 2..41
    small = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    tested = [n for n in range(43, 100000, 2) if all(n % b for b in small)]
    passing = [n for n in tested if _strong_lucas(n)]
    assert [n for n in passing if not trial_is_prime(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
    ]
    assert all(_strong_lucas(n) for n in tested if trial_is_prime(n))


def test_strong_lucas_stops_on_a_factor_of_n(monkeypatch):
    # the Selfridge search for D meets a factor of 43 * 135277 (D = -43)
    # before any D with (D/n) = -1
    assert not _strong_lucas(43 * 135277)
    # on a square, (D/n) is never -1 and the search would walk up to the least
    # prime factor of its root: the square is refused before the search
    monkeypatch.setattr(arith, "_jacobi", None)
    assert not _strong_lucas((2**61 - 1) ** 2)


# before the tests of _prime_powers, so that a walk that does not end fails here
@pytest.mark.parametrize("n", [-9, 0, 1, 2, 3, 4, 7, 10**21, 2**61 - 1])
def test_pollard_brent_refuses_what_is_not_an_odd_composite(n):
    with _within(2), pytest.raises(ValueError, match="not an odd composite"):
        _pollard_brent(n)


@pytest.mark.parametrize("n", [9, 15, 25, 1009**2, 999983 * 1000003, PSI12])
def test_pollard_brent_splits_odd_composites(n):
    with _within(2):
        f = _pollard_brent(n)
    assert 1 < f < n and n % f == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
# the last small prime is what is left of the gcd once p * p exceeds it
@example(4 * 997)
@example(2 * 991**2)
def test_prime_powers_matches_trial_division(n):
    out = _prime_powers(n)
    assert out == trial_prime_powers(n)
    assert math.prod(out) == n
    assert all(math.gcd(a, b) == 1 for i, a in enumerate(out) for b in out[i + 1 :])


def test_prime_powers_large_factors():
    p, q = 2**31 - 1, 2**61 - 1
    assert _prime_powers(4 * 1000003**2 * 999983**3) == [4, 999983**3, 1000003**2]
    assert _prime_powers(q * p) == [p, q]
    assert _prime_powers(PSI12) == [399165290221, 798330580441]
    assert _prime_powers(3825123056546413051) == [149491, 747451, 34233211]
    assert _prime_powers(2**89 - 1) == [2**89 - 1]


@pytest.mark.parametrize(
    "n",
    [1009, 999983, 1000003, 997 * 1009, 1009**2, 2 * 3 * 997 * 1009, 999983 * 1000003, 10**4296],
)
def test_prime_powers_beside_the_prime_shortcut(n):
    # a cofactor free of the primes below 1000 is taken as prime below 10^6
    # and split by Pollard-Brent from 10^6 on
    assert _prime_powers(n) == trial_prime_powers(n)


def test_prime_powers_trial_division_first():
    # split by Pollard-Brent alone, 5^4296 (the odd part) recurses past
    # Python's recursion limit; trial division takes the power off in one loop
    t0 = time.perf_counter()
    assert _prime_powers(10**4296) == [2**4296, 5**4296]
    assert time.perf_counter() - t0 < 1


def test_decide_near_2_64_is_fast():
    p = 2**64 - 59
    for sigma in range(1, 11):
        t0 = time.perf_counter()
        decide_enriques(p, sigma)
        assert time.perf_counter() - t0 < 1.0, sigma


def test_build_case_large_d_is_fast():
    build_case.cache_clear()
    t0 = time.perf_counter()
    assert build_case(2, 10**14 + 31).passed
    assert time.perf_counter() - t0 < 1.0


def test_legendre_examples():
    assert legendre(1, 13) == 1
    assert legendre(-1, 19) == -1
    assert legendre(-1, 13) == 1
    assert legendre(13, 13) == 0


def test_legendre_rejects_composite():
    with pytest.raises(ValueError):
        legendre(2, 15)


def test_legendre_against_square_tables():
    for p in [q for q in ODD_PRIMES_200 if q <= 100]:
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expected = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expected


def test_legendre_multiplicative():
    rng = random.Random(17)
    for p in [q for q in ODD_PRIMES_200 if q <= 100]:
        for _ in range(5):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            assert legendre(a, p) * legendre(b, p) == legendre(a * b, p)


def test_arth_sigma6_always_fails():
    # (-1)^7 * (-2^10) = 2^10 is a perfect square
    for p in ODD_PRIMES_200:
        assert arth(p, 6, -(2**10)) is False


def test_arth_examples():
    assert arth(19, 3, -(4**4) * 1) is True
    assert arth(13, 3, -(4**4) * 1) is False


def test_arth_rejects_bad_input():
    with pytest.raises(ValueError):
        arth(3, 2, 6)  # p divides 2d
    with pytest.raises(ValueError):
        arth(13, 2, 0)


def test_find_d_examples():
    assert find_d(19, 3) == 1
    assert find_d(13, 2) == 1
    assert find_d(23, 2) is None
    assert find_d(23, 4) is None


def test_find_d_minimal():
    for p in ODD_PRIMES_200:
        for sigma in (2, 3, 4, 5):
            want = 1 if sigma in (2, 4) else -1
            valid = [d for d in range(1, (p - 1) // 8 + 1) if 8 * d < p and legendre(-d, p) == want]
            assert find_d(p, sigma) == (valid[0] if valid else None)


def test_find_d_existence_table():
    for p in ODD_PRIMES_200:
        if p == 11 or p >= 19:
            assert find_d(p, 3) is not None
            assert find_d(p, 5) is not None
        if p >= 13 and p != 23:
            assert find_d(p, 2) is not None
            assert find_d(p, 4) is not None


def test_find_d_implies_norm_bound():
    for p in ODD_PRIMES_200:
        for sigma in (2, 3, 4, 5):
            d = find_d(p, sigma)
            if d is not None:
                assert verify_norm_bound(p, d)


def test_verify_norm_bound():
    assert verify_norm_bound(19, 1)
    assert verify_norm_bound(17, 2)
    for d in (1, 2, 3):
        assert not verify_norm_bound(8 * d, d)


def test_frobenius_bounds():
    b = frobenius_bounds_enriques()
    assert b.max_height == 6
    assert b.max_artin == 5
    assert 22 - 2 * 6 == 10 and 22 - 2 * 7 < 10


def test_newton_slopes_ordinary():
    np1 = newton_slopes(1)
    assert np1.slopes == ((Fraction(0), 1), (Fraction(1), 20), (Fraction(2), 1))
    assert polygon_lies_above(np1)


def test_newton_slopes_supersingular():
    assert newton_slopes(math.inf).slopes == ((Fraction(1), 22),)


def test_newton_slopes_h10():
    np10 = newton_slopes(10)
    assert np10.slopes == (
        (Fraction(9, 10), 10),
        (Fraction(1), 2),
        (Fraction(11, 10), 10),
    )


def test_newton_slopes_rejects_h11():
    with pytest.raises(ValueError, match="22 - 2h"):
        newton_slopes(11)
    with pytest.raises(ValueError):
        newton_slopes(0)


def test_all_heights_lie_above():
    for h in list(range(1, 11)) + [math.inf]:
        np_ = newton_slopes(h)
        assert polygon_lies_above(np_)
        assert sum(m for _, m in np_.slopes) == 22


def test_strictly_above_for_h5():
    newton = _heights(newton_slopes(5).slopes)
    hodge = _heights(HODGE_SLOPES)
    assert newton[0] == hodge[0] and newton[22] == hodge[22]
    # strictly above where the slopes differ, touching on the shared
    # slope-1 stretch from abscissa 5 through 17
    for x in list(range(1, 5)) + list(range(18, 22)):
        assert newton[x] > hodge[x], x
    for x in range(5, 18):
        assert newton[x] == hodge[x], x


def test_polygon_symmetry_enforced():
    with pytest.raises(ValueError):
        NewtonPolygon(((Fraction(0), 2), (Fraction(1), 20)))


def test_hand_built_polygon_below():
    bad = NewtonPolygon(((Fraction(0), 2), (Fraction(1), 18), (Fraction(2), 2)))
    assert not polygon_lies_above(bad)
