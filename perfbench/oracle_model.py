"""An independent rational model of the HNN-extension, for checking outputs.

The benchmark must not trust the code it measures, so it carries its own
faithful image of the group: t^p v t^-q maps to (v M^-p, p - q) in
Q^m x Z, with product (a, i)(b, j) = (a + b M^-i, i + j).  Nothing here
imports subsetkex; the matrix inverse is a plain Gauss-Jordan elimination
over Fractions, and matrix powers are cached per model.
"""

from __future__ import annotations

from fractions import Fraction


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _vec_mat(v, rows):
    n = len(rows)
    return tuple(sum(v[i] * rows[i][j] for i in range(n)) for j in range(n))


def _inverse(rows):
    n = len(rows)
    aug = [
        [Fraction(e) for e in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        lead = aug[col][col]
        aug[col] = [e / lead for e in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def det(rows) -> Fraction:
    """Determinant by Fraction elimination (0 for a singular matrix)."""
    a = [[Fraction(e) for e in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


class RationalModel:
    """Exact image of one group in Q^m x Z; points are (a, d) tuples."""

    def __init__(self, rows):
        self.rows = tuple(tuple(int(e) for e in r) for r in rows)
        self.m = len(self.rows)
        self._inv = _inverse(self.rows)
        self._powers = {0: tuple(
            tuple(Fraction(int(i == j)) for j in range(self.m))
            for i in range(self.m))}

    def _shift_matrix(self, k: int):
        """M^-k as a Fraction matrix, for any integer k."""
        mat = self._powers.get(k)
        if mat is None:
            step, factor = (1, self._inv) if k > 0 else (-1, self.rows)
            j = k
            while j not in self._powers:
                j -= step
            mat = self._powers[j]
            while j != k:
                mat = _mat_mul(mat, factor)
                j += step
                self._powers[j] = mat
        return mat

    def identity(self):
        return (Fraction(0),) * self.m, 0

    def mul(self, x, y):
        (a, i), (b, j) = x, y
        shifted = _vec_mat(b, self._shift_matrix(i))
        return tuple(s + t for s, t in zip(a, shifted)), i + j

    def product(self, *points):
        out = self.identity()
        for pt in points:
            out = self.mul(out, pt)
        return out

    def triple(self, p: int, v, q: int):
        """Image of t^p v t^-q; reduced or not, the image is the same."""
        return _vec_mat(tuple(Fraction(e) for e in v), self._shift_matrix(p)), p - q

    def element(self, g):
        """Image of a normal form read through its public p, v, q fields."""
        return self.triple(g.p, g.v, g.q)
