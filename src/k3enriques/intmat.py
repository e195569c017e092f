"""Exact integer matrix routines: HNF, SNF, kernels and determinants.

Matrices are numpy arrays with ``dtype=object`` holding Python ints, so every
operation is arbitrary precision.  Only ``rat_inv`` returns ``fractions.Fraction``.
No floating point is used anywhere in this module.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

import numpy as np


def intmat(rows) -> np.ndarray:
    """Build an exact integer matrix (dtype=object) from nested sequences."""
    rows = [list(r) for r in rows]
    if rows:
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("matrix must be rectangular")
    else:
        ncols = 0
    a = np.zeros((len(rows), ncols), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            a[i, j] = int(x)
    return a


def eye(n: int) -> np.ndarray:
    a = np.zeros((n, n), dtype=object)
    for i in range(n):
        a[i, i] = 1
    return a


def zeros(r: int, c: int) -> np.ndarray:
    return np.zeros((r, c), dtype=object)


def hnf(m) -> tuple[np.ndarray, np.ndarray]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U @ m = H.  H is in row echelon
    form with positive pivots; entries above each pivot are reduced into
    [0, pivot).
    """
    a = intmat(m)
    r, c = a.shape
    u = eye(r)
    row = 0
    for col in range(c):
        if row == r:
            break
        # gcd-reduce the entries of this column below `row` onto one pivot
        while True:
            nz = [i for i in range(row, r) if a[i, col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i, col]))
            if piv != row:
                a[[row, piv]] = a[[piv, row]]
                u[[row, piv]] = u[[piv, row]]
            done = True
            for i in range(row + 1, r):
                if a[i, col] != 0:
                    q = a[i, col] // a[row, col]
                    a[i] -= q * a[row]
                    u[i] -= q * u[row]
                    if a[i, col] != 0:
                        done = False
            if done:
                break
        if a[row, col] == 0:
            continue
        if a[row, col] < 0:
            a[row] = -a[row]
            u[row] = -u[row]
        for i in range(row):
            q = a[i, col] // a[row, col]
            if q != 0:
                a[i] -= q * a[row]
                u[i] -= q * u[row]
        row += 1
    return a, u


def snf(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form.

    Returns (S, U, V) with U, V unimodular, U @ m @ V = S diagonal with
    nonnegative entries satisfying the divisor chain d1 | d2 | ...

    Row and column Hermite forms alternate until the matrix is diagonal
    (Kannan-Bachem), which keeps entries and transforms small; a gcd/lcm
    pass over the diagonal then restores the chain.
    """
    a = intmat(m)
    r, c = a.shape
    u, v = eye(r), eye(c)
    while True:
        h, x = hnf(a)
        h, y = hnf(h.T)
        a, u, v = h.T, x @ u, v @ y.T
        if not any(a[i, j] for i in range(r) for j in range(c) if i != j):
            break
    # Hermite forms put zero rows last, so a zero p is followed by zeros only
    k = min(r, c)
    for i in range(k):
        for j in range(i + 1, k):
            p, q = a[i, i], a[j, j]
            if p == 0 or q % p == 0:
                continue
            # [s t; -q/g p/g] diag(p, q) [1 -t*q/g; 1 s*p/g] = diag(g, p*q/g)
            g = gcd(p, q)
            s = pow(p // g, -1, q // g)
            t = (g - s * p) // q
            u[i], u[j] = s * u[i] + t * u[j], p // g * u[j] - q // g * u[i]
            v[:, i], v[:, j] = v[:, i] + v[:, j], s * p // g * v[:, j] - t * q // g * v[:, i]
            a[i, i], a[j, j] = g, p // g * q
    return a, u, v


def kernel_basis(m) -> np.ndarray:
    """Basis of the saturated left integer kernel {x : x @ m = 0} (rows)."""
    a = intmat(m)
    h, u = hnf(a)
    rows = [i for i in range(a.shape[0]) if all(x == 0 for x in h[i])]
    out = zeros(len(rows), a.shape[0])
    for k, i in enumerate(rows):
        out[k] = u[i]
    return out


def det(m):
    """Exact determinant via fraction-free (Bareiss) elimination."""
    a = intmat(m)
    n, c = a.shape
    if n != c:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rat_inv(m) -> np.ndarray:
    """Exact inverse of a square integer matrix, entries as Fractions.

    Fraction-free (Bareiss) Gauss-Jordan elimination of [m | I] on Python
    ints: every division is exact, and it ends at [d*I | d*m^-1] with
    d = +-det(m).  Entries must be integers; singular m raises ZeroDivisionError.
    """
    a = [[index(x) for x in row] for row in m]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse requires a square matrix")
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        p = a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
        prev = p
    return np.array([[Fraction(x, prev) for x in row[n:]] for row in a], dtype=object).reshape(n, n)
