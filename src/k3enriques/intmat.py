"""Exact integer matrix routines: HNF, SNF, kernels and determinants.

The kernels compute on lists of Python int rows (arbitrary precision, no
floating point): any nested sequence of rows is converted once on entry, and
results are immutable ``Matrix`` objects of Python ints; a rational matrix is
an integer ``Matrix`` over one denominator, as ``rat_inv`` returns it.
Entries must be integers (``__index__``); any other entry, a rational one
included, raises TypeError.
"""
from __future__ import annotations

from math import gcd
from operator import index


class Matrix:
    """An immutable exact integer matrix: a tuple of row tuples and its column count.

    Matrix(rows, c) trusts its arguments (rows a tuple of c-tuples); intmat
    and the kernels check the entries of any input, a Matrix included, as
    one can be built by hand around other entries.  m[i, j] is an entry,
    m[i] a row tuple and m[i:j] a Matrix of rows; m @ m2 is the exact product.
    There is no other arithmetic: n * m and m + m raise TypeError (they are
    not the entrywise numpy operations).
    """

    __slots__ = ("rows", "shape")

    def __init__(self, rows: tuple, c: int):
        self.rows, self.shape = rows, (len(rows), c)

    def __getitem__(self, key):
        if type(key) is tuple:
            i, j = key
            return self.rows[i][j]
        if type(key) is slice:
            return Matrix(self.rows[key], self.shape[1])
        return self.rows[key]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other) -> bool:
        return type(other) is Matrix and self.shape == other.shape and self.rows == other.rows

    @property
    def T(self) -> Matrix:
        r, c = self.shape
        return Matrix(tuple(zip(*self.rows)) if r else ((),) * c, r)

    @property
    def flat(self):
        """Iterator over the entries, row by row."""
        return (x for row in self.rows for x in row)

    def tolist(self) -> list[list]:
        return [list(row) for row in self.rows]

    def diagonal(self) -> tuple:
        return tuple(row[i] for i, row in zip(range(self.shape[1]), self.rows))

    def __matmul__(self, other: Matrix) -> Matrix:
        """The exact product: each row a combination of the rows of other,
        skipping zero coefficients (the matrices here are sparse)."""
        if type(other) is not Matrix:
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"cannot multiply shapes {self.shape} and {other.shape}")
        c = other.shape[1]
        out = []
        for a in self.rows:
            acc = None
            for x, row in zip(a, other.rows):
                if x:
                    acc = [x * y for y in row] if acc is None else [
                        s + x * y for s, y in zip(acc, row)
                    ]
            out.append((0,) * c if acc is None else tuple(acc))
        return Matrix(tuple(out), c)


def _rows(m) -> tuple[list[list[int]], int]:
    """The entries of the matrix m as lists of Python ints, and its column count."""
    if type(m) is Matrix:
        rows, c = m.rows, m.shape[1]
    else:
        rows = [list(r) for r in m]
        c = len(rows[0]) if rows else 0
        if any(len(r) != c for r in rows):
            raise ValueError("matrix must be rectangular")
    return [list(map(index, r)) for r in rows], c


def _matrix(rows: list[list], c: int) -> Matrix:
    """The rows as a Matrix with c columns."""
    return Matrix(tuple(map(tuple, rows)), c)


def _eye(n: int) -> list[list[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def intmat(rows) -> Matrix:
    """Build an exact integer Matrix from nested sequences."""
    return _matrix(*_rows(rows))


def _hnf(a: list[list[int]], u: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of the int rows a, in place; every row operation
    is applied to the rows u (of any width, zero too), which are returned."""
    r, c = len(a), len(a[0]) if a else 0

    def sub(i, q):
        # row i -= q * row `row`; left of col that row is zero
        ai, ap, ui, up = a[i], a[row], u[i], u[row]
        for j in range(col, c):
            ai[j] -= q * ap[j]
        for j in range(len(ui)):
            ui[j] -= q * up[j]

    row = 0
    for col in range(c):
        if row == r:
            break
        # gcd-reduce the entries of this column below `row` onto one pivot
        while True:
            nz = [i for i in range(row, r) if a[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(a[i][col]))
            if piv != row:
                a[row], a[piv] = a[piv], a[row]
                u[row], u[piv] = u[piv], u[row]
            done = True
            for i in range(row + 1, r):
                if a[i][col] != 0:
                    sub(i, a[i][col] // a[row][col])
                    if a[i][col] != 0:
                        done = False
            if done:
                break
        if a[row][col] == 0:
            continue
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
            u[row] = [-x for x in u[row]]
        for i in range(row):
            q = a[i][col] // a[row][col]
            if q != 0:
                sub(i, q)
        row += 1
    return u


def hnf(m) -> tuple[Matrix, Matrix]:
    """Row Hermite normal form.

    Returns (H, U) with U unimodular and U @ m = H.  H is in row echelon
    form with positive pivots; entries above each pivot are reduced into
    [0, pivot).
    """
    a, c = _rows(m)
    u = _hnf(a, _eye(len(a)))
    return _matrix(a, c), _matrix(u, len(a))


def _is_diagonal(a: list[list[int]]) -> bool:
    return not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(a))


def _snf(a: list[list[int]], c: int, eye=_eye) -> tuple:
    """The int rows a with c columns, made snf's S in place; returns a, c
    and the rows of U and V^T, started as eye(r) and eye(c).  Row and column
    Hermite forms alternate, acting on U and (as row passes on the
    transpose) V^T, until a pass leaves a diagonal (Kannan-Bachem), which
    keeps entries and transforms small; a gcd/lcm pass restores the chain."""
    r = len(a)
    u, vt = eye(r), eye(c)
    while True:
        _hnf(a, u)
        if _is_diagonal(a):
            break
        a = list(map(list, zip(*a)))
        _hnf(a, vt)
        a = list(map(list, zip(*a)))
        if _is_diagonal(a):
            break
    # Hermite forms put zero rows last, so a zero p is followed by zeros only
    k = min(r, c)
    for i in range(k):
        for j in range(i + 1, k):
            p, q = a[i][i], a[j][j]
            if p == 0 or q % p == 0:
                continue
            g = gcd(p, q)
            if u[i]:  # the zero-width rows of _snf_diagonal have no Bezout step
                # [s t; -q/g p/g] diag(p, q) [1 -t*q/g; 1 s*p/g] = diag(g, p*q/g)
                s = pow(p // g, -1, q // g)
                t = (g - s * p) // q
                ui, uj, vi, vj = u[i], u[j], vt[i], vt[j]
                u[i] = [s * x + t * y for x, y in zip(ui, uj)]
                u[j] = [p // g * y - q // g * x for x, y in zip(ui, uj)]
                vt[i] = [x + y for x, y in zip(vi, vj)]
                vt[j] = [s * p // g * y - t * q // g * x for x, y in zip(vi, vj)]
            a[i][i], a[j][j] = g, p // g * q
    return a, c, u, vt


def snf(m) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: (S, U, V) with U, V unimodular and U @ m @ V = S
    diagonal, its entries nonnegative and in the divisor chain d1 | d2 | ..."""
    a, c, u, vt = _snf(*_rows(m))
    return _matrix(a, c), _matrix(u, len(a)), _matrix(list(map(list, zip(*vt))), c)


def _snf_diagonal(m) -> list[int]:
    """The diagonal of snf(m)[0], from snf's passes on zero-width U and V^T."""
    a, c = _rows(m)
    if len(a) < c:  # m^T has the same Smith diagonal: start on the longer side
        a, c = list(map(list, zip(*a))), len(a)
    a, c, _, _ = _snf(a, c, lambda n: [[] for _ in range(n)])
    return [row[i] for i, row in zip(range(c), a)]


def kernel_basis(m) -> Matrix:
    """Basis (rows) of the left integer kernel {x : x @ m = 0}, a primitive sublattice."""
    a, _ = _rows(m)
    u = _hnf(a, _eye(len(a)))
    return _matrix([x for h, x in zip(a, u) if not any(h)], len(a))


def _bareiss(a: list[list[int]], u: list[list[int]]) -> int:
    """Bareiss's fraction-free Gauss-Jordan of the square int rows a, in place,
    to D*I, D = +-det(a) the last pivot; every row operation (its divisions
    exact) is applied to the rows u of any width, zero too.  Returns det(a),
    or 0 at the first column with no pivot."""
    n, sign, prev = len(a), 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], u[k], u[piv] = a[piv], a[k], u[piv], u[k]
            sign = -sign
        p = a[k][k]
        for i in range(n):
            if i == k:
                continue
            f = a[i][k]
            if f:
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[k])]
                u[i] = [(p * x - f * y) // prev for x, y in zip(u[i], u[k])]
            elif p != prev:  # f = 0: the update only rescales the row by p / prev
                a[i] = [p * x // prev for x in a[i]]
                u[i] = [p * x // prev for x in u[i]]
        prev = p
    return sign * prev


def det(m):
    """Exact determinant, by _bareiss on zero-width rows."""
    a, c = _rows(m)
    if len(a) != c:
        raise ValueError("determinant requires a square matrix")
    return _bareiss(a, [[] for _ in a])


def rat_inv(m) -> tuple[int, Matrix]:
    """(D, M) with m^-1 = M / D, D = +-det(m) and M an integer Matrix:
    _bareiss turns m into D*I and the identity into D*m^-1.  Singular m
    raises ZeroDivisionError."""
    a, n = _rows(m)
    if len(a) != n:
        raise ValueError("inverse requires a square matrix")
    u = _eye(n)
    if not _bareiss(a, u):
        raise ZeroDivisionError("matrix is singular")
    return (a[0][0] if n else 1), _matrix(u, n)
