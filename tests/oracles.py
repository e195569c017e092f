"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's algorithms: determinants by cofactor
expansion, invariant factors from gcds of minors, Hermite forms by plain
column-at-a-time reduction, signatures by Fraction diagonalization, short
vectors by exhaustive box enumeration, inverses by Gauss-Jordan in
Fractions, glue groups by closure in Fractions mod 1, and primality and
factorization by trial division.  There are two exceptions.
full_ball_short_vectors keeps the whole-ball search that short_vectors ran
before it searched half the ball, so that whole reports can be compared,
over its own frozen copy of the elimination as it was before smallest-pivot
ordering (unpivoted_ldl), so that it does not share the library's pivot rule.
saturation is the double integer kernel of the library's kernel_basis, the
construction the package used to export as embeddings.saturate.
"""
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt
from operator import mul

import numpy as np

from k3enriques.enumeration import ShortVectorReport
from k3enriques.intmat import kernel_basis


def trial_is_prime(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def proth_is_prime(n):
    """Primality of a Proth number n = r * 2^k + 1 (r odd, r < 2^k), by Proth's theorem.

    n is prime iff a^((n - 1)/2) = -1 mod n for some a, which every quadratic
    non-residue a gives when n is prime; an a with a^((n - 1)/2) other than
    +-1 mod n proves n composite by Euler's criterion.
    """
    for a in range(2, n):
        x = pow(a, (n - 1) // 2, n)
        if x != 1:
            return x == n - 1
    return False


def trial_prime_powers(n):
    """Prime-power factorization [p^e, ...] of n > 0, p ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            q = 1
            while n % f == 0:
                q *= f
                n //= f
            out.append(q)
        f += 1
    if n > 1:
        out.append(n)
    return out


def naive_det(m):
    """Cofactor expansion along the first row."""
    m = [list(r) for r in m]
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * naive_det(minor)
    return total


def minors_invariant_factors(m):
    """Invariant factors d_k / d_{k-1} with d_k = gcd of all k x k minors."""
    m = [list(r) for r in m]
    r, c = len(m), len(m[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(r, c) + 1):
        g = 0
        for rows in combinations(range(r), k):
            for cols in combinations(range(c), k):
                sub = [[m[i][j] for j in cols] for i in rows]
                g = gcd(g, naive_det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def naive_hnf(m):
    """Row Hermite form by repeated gcd column reduction, no transform."""
    a = [list(map(int, r)) for r in m]
    rows, cols = len(a), len(a[0]) if a else 0
    row = 0
    for col in range(cols):
        if row == rows:
            break
        while True:
            nz = [i for i in range(row, rows) if a[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][col]))
            a[row], a[piv] = a[piv], a[row]
            again = False
            for i in range(row + 1, rows):
                if a[i][col]:
                    q = a[i][col] // a[row][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[row])]
                    if a[i][col]:
                        again = True
            if not again:
                break
        if a[row][col] == 0:
            continue
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
        for i in range(row):
            q = a[i][col] // a[row][col]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[row])]
        row += 1
    return a


def fraction_signature(gram):
    """Sylvester signature (plus, minus) by congruence diagonalization over
    Fractions.

    Pivots on nonzero diagonal entries; when the remaining block has an
    all-zero diagonal, a row/column addition creates one (this handles
    hyperbolic blocks such as U exactly).
    """
    a = [[Fraction(int(x)) for x in row] for row in gram]
    n = len(a)
    plus = minus = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                None,
            )
            if off is None:
                raise ValueError("degenerate form has no signature")
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            continue
        a[k], a[piv] = a[piv], a[k]
        for row in a:
            row[k], row[piv] = row[piv], row[k]
        p = a[k][k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / p
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
                for row in a:
                    row[i] -= f * row[k]
        k += 1
    return plus, minus


def fraction_inv(m):
    """Inverse of a nonsingular square matrix (list of rows) by Gauss-Jordan
    elimination in Fractions."""
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                a[i] = [x - a[i][col] * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def saturation(basis):
    """Basis rows of the primitive lattice with the rational span of `basis`:
    the integer vectors orthogonal to every x with basis @ x = 0."""
    return kernel_basis(kernel_basis(basis.T).T)


def fraction_glue(m, over_basis):
    """Sorted (s1, s2) glue elements of an over-basis of M (+) N, rank(M) = m:
    the group its rows generate in Fractions mod 1, closed by search."""
    gens = [tuple(Fraction(x) % 1 for x in row) for row in over_basis]
    zero = tuple(Fraction(0) for _ in gens[0])
    seen, todo = {zero}, [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = tuple((a + b) % 1 for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return tuple((e[:m], e[m:]) for e in sorted(seen))


def fraction_glue_isotropic(gram, over_basis):
    """Whether every element x of the glue group that the rows of over_basis
    generate mod 1 lies in the dual lattice (G x integral) and has
    q(x) = x.G.x in 2Z: checked element by element, in Fractions."""
    g = [[Fraction(int(a)) for a in row] for row in gram]
    for _, x in fraction_glue(0, over_basis):  # rank(M) = 0: x is the whole vector
        gx = [sum(a * b for a, b in zip(row, x)) for row in g]
        if any(y.denominator != 1 for y in gx) or sum(a * b for a, b in zip(x, gx)) % 2:
            return False
    return True


def fraction_extends_to(phibar, psibar, elements):
    """Whether phi (+) psi extends across glue `elements` (from fraction_glue):
    phibar(s1) mod 1 is looked up in the glue map as a Fraction tuple."""
    gamma = dict(elements)
    for s1, s2 in elements:
        t1 = tuple(x % 1 for x in phibar(s1))
        if t1 not in gamma or gamma[t1] != tuple(x % 1 for x in psibar(s2)):
            return False
    return True


def box_short_vectors(gram, bound):
    """All nonzero v with |v^T G v| <= bound in a definite lattice.

    The coordinate box is exact: |x_i| <= sqrt(bound * (Q^-1)_ii) for the
    positive form Q = +-G.
    """
    n = len(gram)
    sign = 1 if gram[0][0] > 0 else -1
    q = [[sign * int(x) for x in row] for row in gram]
    qinv = fraction_inv(q)
    radii = []
    for i in range(n):
        t = Fraction(bound) * qinv[i][i]
        radii.append(isqrt(t.numerator * t.denominator) // t.denominator + 1)
    out = []
    for x in product(*(range(-r, r + 1) for r in radii)):
        if not any(x):
            continue
        norm = sum(q[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if norm <= bound:
            out.append((x, sign * norm))
    return out


def unpivoted_ldl(gram):
    """Symmetric fraction-free (Bareiss) elimination in the basis order as
    given: leading minors d, d[0] = 1, and rows r with
    x^T G x = sum_k (r[k] . x)^2 / (d[k] d[k+1]) while every d is positive.
    A zero pivot is replaced by a symmetric swap or, when the remaining
    diagonal is all zero, by adding one basis vector to another; either step
    changes coordinates.  A degenerate form ends d with 0."""
    a = [list(row) for row in gram]
    n = len(a)
    d, rows = [1], []
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if off is None:
                return d + [0], rows
            i, j = off
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        p, prev = a[k][k], d[-1]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (p * a[i][j] - a[i][k] * a[k][j]) // prev
        rows.append([0] * k + a[k][k:])
        d.append(p)
        k += 1
    return d, rows


def full_ball_short_vectors(L, bound):
    """short_vectors as it was before the half-ball search: Fincke-Pohst over
    the whole ball, which finds v and -v separately and keeps one of each."""
    if bound < 1:
        raise ValueError("bound must be positive")
    n = L.rank
    if n == 0:
        return ShortVectorReport(bound, (), None, {})
    # a definite form has the sign of its diagonal
    sign = 1 if L.gram[0, 0] > 0 else -1
    d, r = unpivoted_ldl([[sign * x for x in row] for row in L.gram])
    # all leading minors positive: definite, and no swap changed the basis
    if min(d) <= 0:
        raise ValueError("short-vector enumeration requires a definite lattice")
    found = []
    x = [0] * n

    def rec(k, t):
        # t = d[k+1] * (bound - sum of the squares fixed above k); the k-th
        # square is y^2 / (d[k] d[k+1]) with y = r[k] . x = d[k+1] x_k + c,
        # and c = r[k] . x while x_k is still 0
        c = sum(map(mul, r[k], x))
        s = isqrt(d[k] * t)
        for xk in range(-((s + c) // d[k + 1]), (s - c) // d[k + 1] + 1):
            y = d[k + 1] * xk + c
            rest = (d[k] * t - y * y) // d[k + 1]
            x[k] = xk
            if k:
                rec(k - 1, rest)
            elif any(x):
                found.append((tuple(x), sign * (bound - rest)))
        x[k] = 0

    rec(n - 1, d[n] * bound)

    # v and -v are both found; keep the positive-leading one of each pair
    ordered = []
    for v, norm in sorted(f for f in found if next(e for e in f[0] if e) > 0):
        ordered += [(v, norm), (tuple(-e for e in v), norm)]
    counts: dict = {}
    for _, norm in ordered:
        counts[norm] = counts.get(norm, 0) + 1
    min_norm = min((nm for _, nm in ordered), key=abs, default=None)
    return ShortVectorReport(bound, tuple(ordered), min_norm, counts)


def e8_root_count_euclidean():
    """Count norm-2 vectors of the rank-8 even unimodular lattice in its
    Euclidean model: integer or all-half-integer vectors with even coordinate
    sum.  Box enumeration; for norm 2 the box is {-1, 0, 1}^8 plus the
    half-integer corners.
    """
    count = 0
    for x in product((-1, 0, 1), repeat=8):
        if any(x) and sum(v * v for v in x) == 2 and sum(x) % 2 == 0:
            count += 1
    for s in product((-1, 1), repeat=8):
        x = [Fraction(v, 2) for v in s]
        if sum(v * v for v in x) == 2 and sum(x) % 2 == 0:
            count += 1
    return count


def arr(m):
    """A Matrix as a numpy object array of the same shape, for numpy arithmetic
    in tests: Matrix has no arithmetic but @."""
    return np.array(m.tolist(), dtype=object).reshape(m.shape)


def random_int_matrix(rng, rows, cols, lo, hi):
    return np.array(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], dtype=object
    )


def random_even_symmetric(rng, n, lo, hi):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2 * rng.randint(lo, hi)
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = rng.randint(lo, hi)
    return np.array(a, dtype=object)


def random_unimodular(rng, n, steps=12):
    """Product of random elementary row operations applied to the identity."""
    u = np.array([[1 if i == j else 0 for j in range(n)] for i in range(n)], dtype=object)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        u[i] += rng.randint(-3, 3) * u[j]
    return u
