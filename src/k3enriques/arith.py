"""Primes, quadratic residues, the embedding obstruction, and slope polygons.

The residue side drives the existence criterion: the obstruction condition
asks a twisted discriminant to be a non-square mod p, and the d-search looks
for the smallest twist parameter below p/8 with the prescribed residue class.
Every Legendre symbol is the Jacobi symbol, computed by quadratic
reciprocity (Cohen, Alg. 1.4.10), not by Euler's criterion.

Primality: after trial division by the primes up to 41, an odd p is tested
by Miller-Rabin to the bases of the first row of _MR_TABLE with p < bound.
Each bound is the least odd composite that passes its row's bases:

    bound                        bases                    source
    2047 .. 25326001 (psi_1..3)  the first 1..3 primes    Sorenson-Webster 2015
    4759123141                   2, 7, 61                 Jaeschke 1993
    1122004669633                2, 13, 23, 1662803       Jaeschke 1993
    psi_5, 6, 7, 9, 12, 13       the first 5..13 primes   Sorenson-Webster 2015

So the answer is exact below psi_13 = 3317044064679887385961981.  From there
on, the bases 2..41 and a strong Lucas test make a Baillie-PSW test.
Integers are split into prime powers by one gcd with the product of the
primes below 1000, which names the small primes, then Pollard-Brent on the
cofactor, which refuses any n that is not an odd composite.  No step divides
by every number up to a square root.
The polygon side records the Newton/Hodge slope constraints for the second
cohomology of a K3 surface (rank 22, slopes symmetric about 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

K3_RANK = 22
HODGE_SLOPES = ((Fraction(0), 1), (Fraction(1), 20), (Fraction(2), 1))
_SIGMAS = range(1, 11)  # the Artin invariants of supersingular K3 surfaces
_MAX_ARTIN = 5  # the largest Artin invariant of a K3 surface covering an Enriques surface


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# (bound, bases), the table of the module docstring: no odd composite below
# bound is a strong probable prime to every base, and bound is one.  psi_t is
# the least that passes the first t prime bases (OEIS A014233); psi_4 is left
# out, as Jaeschke's {2, 7, 61} covers it, and so are psi_8 = psi_7 and
# psi_10 = psi_11 = psi_9, whose rows would serve no n.
_MR_TABLE = (
    (2047, _MR_BASES[:1]),  # psi_1
    (1373653, _MR_BASES[:2]),  # psi_2
    (25326001, _MR_BASES[:3]),  # psi_3
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, _MR_BASES[:5]),  # psi_5
    (3474749660383, _MR_BASES[:6]),  # psi_6
    (341550071728321, _MR_BASES[:7]),  # psi_7
    (3825123056546413051, _MR_BASES[:9]),  # psi_9
    (318665857834031151167461, _MR_BASES[:12]),  # psi_12
    (3317044064679887385961981, _MR_BASES),  # psi_13
)


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime.

    Deterministic Miller-Rabin to the bases of the first row of _MR_TABLE
    with p < bound, so the answer is exact for p < psi_13 and a 10-digit p
    costs three or four bases.  From psi_13 on, the bases 2..41 and a strong
    Lucas test make a Baillie-PSW test: no composite is known to pass it, but
    none is proven not to.
    """
    if p < 3 or p % 2 == 0:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    bound, bases = next((row for row in _MR_TABLE if p < row[0]), _MR_TABLE[-1])
    return _miller_rabin(p, bases) and (p < bound or _strong_lucas(p))


def _miller_rabin(n: int, bases) -> bool:
    """Whether the odd n > 2 is a strong probable prime to every base."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, by quadratic reciprocity.

    For a prime n it is the Legendre symbol, which is how every Legendre
    symbol here is computed.
    """
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge's parameters (P = 1).

    n is odd, above 41 and free of prime factors up to 41.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x % 2 else x) // 2

    # U_k, V_k and Q^k mod n for k running through the leading bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_brent(n: int) -> int:
    """A proper factor of the odd composite n, by Brent's variant of Pollard rho.

    The walk x -> x^2 + c starts at 2 with c = 1, 2, ... in turn, so the
    factor returned is the same on every run.  Any n that is not an odd
    composite, on which the walk would never end, raises ValueError.
    """
    if n % 2 == 0 or n < 9 or is_odd_prime(n):
        raise ValueError(f"{n} is not an odd composite")
    m = 128
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


_TRIAL_LIMIT = 1000

# the primes below _TRIAL_LIMIT, by the sieve of Eratosthenes, and their product
_SMALL_PRIMES = sorted(
    set(range(2, _TRIAL_LIMIT)).difference(
        *(range(p * p, _TRIAL_LIMIT, p) for p in range(2, math.isqrt(_TRIAL_LIMIT) + 1))
    )
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def _prime_powers(n: int) -> list[int]:
    """Prime-power factorization of n >= 1 as a list [p^e, ...], p ascending.

    One gcd with the product of the primes below 1000 names the small primes
    of n: they are split off g in turn until p * p > g, when what is left of
    g is 1 or one prime.  Then Pollard-Brent splits the cofactor, each piece
    of which is tested by is_odd_prime.
    """
    out, small = [], []
    g = math.gcd(n, _SMALL_PRODUCT)
    for p in _SMALL_PRIMES:
        if p * p > g:
            break
        if g % p == 0:
            g //= p
            small.append(p)
    if g != 1:
        small.append(g)
    for p in small:
        q = 1
        while n % p == 0:
            q *= p
            n //= p
        out.append(q)
    if n >= _TRIAL_LIMIT**2:
        primes = sorted(_prime_factors(n))
        out += [p ** primes.count(p) for p in sorted(set(primes))]
    elif n != 1:  # no prime factor below 1000: prime
        out.append(n)
    return out


def _prime_factors(n: int) -> list[int]:
    """Primes of the odd n > 1, with multiplicity, in no particular order."""
    if is_odd_prime(n):
        return [n]
    f = _pollard_brent(n)
    return _prime_factors(f) + _prime_factors(n // f)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p), by quadratic reciprocity; p an odd prime."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return _jacobi(a, p)


def arth(p: int, sigma: int, d: int) -> bool:
    """The non-square obstruction: ((-1)^(sigma+1) d / p) = -1."""
    if sigma not in _SIGMAS:
        raise ValueError("sigma must be in 1..10")
    if d == 0:
        raise ValueError("d must be nonzero")
    if not is_odd_prime(p) or (2 * d) % p == 0:
        raise ValueError(f"p = {p} must be an odd prime not dividing 2d")
    return _arth(p, sigma, d)


def _arth(p: int, sigma: int, d: int) -> bool:
    """arth for arguments already checked, p an odd prime."""
    return _jacobi((-1) ** (sigma + 1) * d, p) == -1


def find_d(p: int, sigma: int) -> int | None:
    """Smallest d with 0 < 8d < p and the residue class required for sigma.

    -d must be a square mod p for even sigma and a non-square for odd sigma;
    returns None when no d below p/8 qualifies.
    """
    if sigma not in range(2, _MAX_ARTIN + 1):
        raise ValueError("sigma must be in 2..5")
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return _find_d(p, sigma)


def _find_d(p: int, sigma: int) -> int | None:
    """find_d for a p already known to be an odd prime."""
    want = _minus_d_class(sigma)  # d < p / 8, so p never divides d
    d = 1
    while 8 * d < p:
        if _jacobi(-d, p) == want:
            return d
        d += 1
    return None


def _minus_d_class(sigma: int) -> int:
    """The Legendre symbol (-d/p) that the d-search asks for: 1 iff sigma is even."""
    return (-1) ** sigma


def verify_norm_bound(p: int, d: int) -> bool:
    """p > 8d: a norm divisible by 4dp, scaled by 1/(4d)^2, is below -2."""
    if d < 1:
        raise ValueError("d must be positive")
    return p > 8 * d


@dataclass(frozen=True)
class FrobeniusBounds:
    """Bounds on the Frobenius invariants of a K3 covering an Enriques surface."""

    max_height: int
    max_artin: int
    height_reason: str
    artin_reason: str


def frobenius_bounds_enriques() -> FrobeniusBounds:
    """Height <= 6 and Artin invariant <= 5, with their derivations.

    The slope-1 multiplicity 22 - 2h must accommodate a Picard number of at
    least 10, so h <= 6; the rank bound 22 - 2*sigma >= 10 gives sigma <= 6,
    and sigma = 6 is excluded because the twisted discriminant 2^10 is a
    perfect square, so the non-square obstruction fails for every p.
    """
    assert K3_RANK - 2 * 6 >= 10 > K3_RANK - 2 * 7
    return FrobeniusBounds(
        max_height=6,
        max_artin=_MAX_ARTIN,
        height_reason="slope-1 multiplicity 22 - 2h >= 10 forces h <= 6",
        artin_reason="rank 22 - 2*sigma >= 10 plus the sigma = 6 square obstruction",
    )


@dataclass(frozen=True)
class NewtonPolygon:
    """Slope/multiplicity data for the 22-dimensional second cohomology."""

    slopes: tuple  # ((slope, multiplicity), ...) ascending by slope

    def __post_init__(self):
        mults = [m for _, m in self.slopes]
        if any(m < 1 for m in mults) or sum(mults) != K3_RANK:
            raise ValueError("multiplicities must be positive and sum to 22")
        s = [x for x, _ in self.slopes]
        if s != sorted(s):
            raise ValueError("slopes must be ascending")
        by_slope = {x: m for x, m in self.slopes}
        for x, m in self.slopes:
            if by_slope.get(2 - x) != m:
                raise ValueError("slopes must be symmetric about 1")


def newton_slopes(h) -> NewtonPolygon:
    """Newton polygon of a K3 surface of height h (finite or infinity).

    For finite h: slopes 1 - 1/h and 1 + 1/h each with multiplicity h, and
    slope 1 with multiplicity 22 - 2h.  Heights above 10 are rejected since
    the slope-1 multiplicity 22 - 2h would be nonpositive.
    """
    if h == math.inf:
        return NewtonPolygon(((Fraction(1), K3_RANK),))
    h = int(h)
    if h < 1:
        raise ValueError("height must be positive")
    if h >= 11:
        raise ValueError(
            f"height {h} rejected: slope-1 multiplicity 22 - 2h = {K3_RANK - 2 * h} <= 0"
        )
    return NewtonPolygon(
        (
            (Fraction(h - 1, h), h),
            (Fraction(1), K3_RANK - 2 * h),
            (Fraction(h + 1, h), h),
        )
    )


def _heights(slopes) -> list[Fraction]:
    """Polygon heights at integer abscissas 0..22 (sum of the x smallest slopes)."""
    ys = [Fraction(0)]
    for s, m in slopes:
        for _ in range(m):
            ys.append(ys[-1] + s)
    return ys


def polygon_lies_above(np_: NewtonPolygon) -> bool:
    """Whether the polygon lies weakly above the K3 Hodge polygon."""
    newton = _heights(np_.slopes)
    hodge = _heights(HODGE_SLOPES)
    return all(a >= b for a, b in zip(newton, hodge))
