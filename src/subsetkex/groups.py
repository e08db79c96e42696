"""Exact arithmetic in ascending HNN-extensions of free-abelian groups.

The ambient group G is generated by a free-abelian base Z^m together with a
stable letter t.  An integer m-by-m matrix M with nonzero determinant acts on
row vectors by v -> v M, and the defining relations are t^-1 x t = x M for
base elements x.  Every element of G has a unique Britton-reduced normal form

    t^p v t^-q    with p, q >= 0 and v in Z^m,

where reduced means p = 0, or q = 0, or v is not in the row image of M.
All arithmetic is exact: entries are plain Python integers (they grow like
``norm(M)**k`` and must never be truncated), and the companion "oracle"
representation uses exact rationals.

The oracle maps t^p v t^-q to (v M^-p, p - q) in Q^m x Z, the semidirect
product of the M-divisible hull of Z^m with an infinite cyclic group.  It is
an injective homomorphism on normal forms and serves throughout the test
suite as an independent cross-check of the group arithmetic.

Words over the generator tokens ``x1, x1^-1, ..., xm, xm^-1, t, t^-1`` are
plain tuples of strings; ``GroupParams.evaluate`` folds them into normal
forms and ``GroupElement.to_word`` is a (capped) unary section of that map.

Validation happens once, at the public boundary: ``IntMatrix``, direct
``GroupElement`` construction, ``GroupParams.element``, ``phi_power`` and
``preimage_under_phi`` coerce and check their inputs, then call trusted
kernels that check nothing: ``_vec_mat``, ``_vec_add``,
``GroupParams._preimage``, the one Britton reduction ``_reduce``, and the
constructors ``_reduced`` and ``_trusted_matrix``.  ``_preimage`` divides
by the adjugate, whose certificate M adj(M) = det I is checked once.
``evaluate`` folds one token at a time over the state t^p v t^-q without a
reduction test for x-tokens or t: appending x_i^(+-1) adds +-(row i of
M^q) to v, and for q >= 1 that row lies in Im M, so v stays outside Im M
exactly when it was; t either cancels a t^-1 or (q = 0) moves v to v M.
Only t^-1 with q = 0 < p can cancel, and it costs one preimage test.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from operator import add, mul
from typing import Iterable, Optional, Sequence

__all__ = [
    "IntMatrix", "GroupParams", "GroupElement", "OracleElement",
    "WordCapExceeded", "default_length", "make_token", "invert_token",
    "is_valid_token", "token_dimension",
]

Vec = tuple  # length-m tuple of int entries

TOKEN_STABLE = "t"
TOKEN_STABLE_INV = "t^-1"
_GEN_TOKEN = re.compile(r"^x([1-9][0-9]*)(\^-1)?$")

DEFAULT_WORD_CAP = 10_000

# signed powers with |k| up to this bound are memoised per group; larger
# ones (orbit-dh exponents reach 2^20) are recomputed rather than retained
POWER_MEMO_BOUND = 64


class WordCapExceeded(ValueError):
    """Unary expansion of a normal form would emit more tokens than allowed."""


# ---------------------------------------------------------------------------
# tokens


def make_token(i: int, inverse: bool = False) -> str:
    """Generator token for the i-th base coordinate (1-indexed)."""
    if i < 1:
        raise ValueError("generator index is 1-indexed")
    return f"x{i}^-1" if inverse else f"x{i}"


def is_valid_token(token: str, m: Optional[int] = None) -> bool:
    """Syntactic token check; with ``m`` also bounds the generator index."""
    if token in (TOKEN_STABLE, TOKEN_STABLE_INV):
        return True
    match = _GEN_TOKEN.match(token)
    if not match:
        return False
    return m is None or int(match.group(1)) <= m


def token_dimension(token: str) -> int:
    """Smallest base dimension in which the token is a generator (0 for t)."""
    if token in (TOKEN_STABLE, TOKEN_STABLE_INV):
        return 0
    match = _GEN_TOKEN.match(token)
    if not match:
        raise ValueError(f"invalid token {token!r}")
    return int(match.group(1))


def invert_token(token: str) -> str:
    if token == TOKEN_STABLE:
        return TOKEN_STABLE_INV
    if token == TOKEN_STABLE_INV:
        return TOKEN_STABLE
    match = _GEN_TOKEN.match(token)
    if not match:
        raise ValueError(f"invalid token {token!r}")
    i = int(match.group(1))
    return make_token(i, inverse=match.group(2) is None)


# ---------------------------------------------------------------------------
# integer matrices


def _det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant; exact for integer matrices."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _bareiss_adjugate(rows: Sequence[Sequence[int]]) -> tuple:
    """(det, adj) of a nonsingular matrix by one fraction-free pass.

    Bareiss-style Gauss-Jordan elimination over [M | I]: every row but the
    pivot row is updated at each step and every division is exact.  The
    left block ends as d I and the right block as d M^-1, where d is the
    last pivot, the determinant of the row-swapped M; swaps flip the sign.
    Columns left of the pivot are already eliminated and are not touched.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(rows)]
    sign = prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next(i for i in range(k + 1, n) if a[i][k])
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot_row = a[k][k:]
        piv = pivot_row[0]
        for i in range(n):
            if i != k:
                row = a[i]
                f = row[k]
                row[k:] = [(piv * x - f * y) // prev
                           for x, y in zip(row[k:], pivot_row)]
        prev = piv
    return sign * prev, tuple(tuple(sign * e for e in row[n:]) for row in a)


class _Value:
    """Base of the immutable value classes, which generate no code.

    A subclass lists its fields in ``_fields`` and stores them in its own
    ``__init__`` through ``__dict__``.  Instances compare, hash and print
    as frozen dataclasses do: equal when of one class with equal fields,
    hashed as the tuple of field values, shown as ``Name(field=...)``.
    Attributes cannot be set or deleted; ``cached_property`` still caches,
    since it writes ``__dict__`` directly.
    """

    _fields: tuple  # set by every subclass: its field names, in order

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        d = self.__dict__
        fields = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _mat_mul_rows(a, b) -> tuple:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a)


def _identity_rows(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class IntMatrix(_Value):
    """Square integer matrix with nonzero determinant (checked on build)."""

    _fields = ("rows",)

    def __init__(self, rows: tuple):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        self.__dict__["rows"] = rows
        n = len(rows)
        if n == 0:
            raise ValueError("matrix must have positive dimension")
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        if self.det == 0:
            raise ValueError("matrix determinant must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def det(self) -> int:
        return _det_bareiss(self.rows)

    @cached_property
    def cols(self) -> tuple:
        """The columns, transposed once so vector products need not."""
        return tuple(zip(*self.rows))

    @cached_property
    def adjugate(self) -> "IntMatrix":
        """adj(M) with M * adj(M) = det(M) * I; used for exact division by M."""
        det, adj_rows = _bareiss_adjugate(self.rows)
        scaled = tuple(
            tuple(det * e for e in row) for row in _identity_rows(self.dim)
        )
        if det != self.det or _mat_mul_rows(self.rows, adj_rows) != scaled:
            raise ArithmeticError("adjugate certificate M adj(M) = det I failed")
        return _trusted_matrix(adj_rows)


def matrix_power(mat: IntMatrix, k: int) -> IntMatrix:
    """M**k for k >= 0 by square-and-multiply, from the lowest set bit."""
    if k < 0:
        raise ValueError("matrix power requires a nonnegative exponent")
    rows = None
    base = mat.rows
    while k:
        if k & 1:
            rows = base if rows is None else _mat_mul_rows(rows, base)
        k >>= 1
        if k:
            base = _mat_mul_rows(base, base)
    return _trusted_matrix(_identity_rows(mat.dim) if rows is None else rows)


def _trusted_matrix(rows: tuple) -> IntMatrix:
    """Trusted constructor: wraps integer rows known to be nonsingular.

    Adjugates and powers of a nonsingular matrix are nonsingular, so their
    determinant is not computed up front (a Bareiss pass over the large
    entries of an adjugate costs far more than the adjugate itself); it is
    still computed on first use.
    """
    mat = object.__new__(IntMatrix)
    mat.__dict__["rows"] = rows  # skips __init__ and its checks
    return mat


def _vec_mat(v: Vec, mat: IntMatrix) -> Vec:
    return tuple([sum(map(mul, v, col)) for col in mat.cols])


def _vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(map(add, a, b))


def _vec_neg(a: Vec) -> Vec:
    return tuple(-x for x in a)


# ---------------------------------------------------------------------------
# the group


class GroupParams(_Value):
    """Ambient group data: the base dimension and the matrix action.

    The dimension, determinant and adjugate are resolved once per group and
    shared; the adjugate makes the image test exact integer arithmetic
    (division by det) rather than rational matrix inversion.
    """

    _fields = ("matrix",)

    def __init__(self, matrix: IntMatrix):
        self.__dict__["matrix"] = matrix

    # written out here and in GroupElement, with the values the generic
    # methods give, since element comparisons and hashes reach both
    def __eq__(self, other):
        if other.__class__ is not GroupParams:
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash((self.matrix,))

    @cached_property
    def m(self) -> int:
        return self.matrix.dim

    @cached_property
    def det(self) -> int:
        return self.matrix.det

    @cached_property
    def adjugate(self) -> IntMatrix:
        return self.matrix.adjugate

    @cached_property
    def _alphabet(self) -> tuple:
        toks = []
        for i in range(1, self.m + 1):
            toks.append(make_token(i))
            toks.append(make_token(i, inverse=True))
        toks.append(TOKEN_STABLE)
        toks.append(TOKEN_STABLE_INV)
        return tuple(toks)

    def tokens(self) -> tuple:
        """The full generator-token alphabet, x-generators first."""
        return self._alphabet

    def zero(self) -> Vec:
        return (0,) * self.m

    def identity(self) -> "GroupElement":
        return _reduced(self, 0, self.zero(), 0)

    def base(self, v: Iterable[int]) -> "GroupElement":
        """The base element with coordinate vector v."""
        return self.element(0, v, 0)

    def generator(self, i: int) -> "GroupElement":
        if not 1 <= i <= self.m:
            raise ValueError(f"generator index {i} out of range 1..{self.m}")
        v = tuple(1 if j == i - 1 else 0 for j in range(self.m))
        return GroupElement(self, 0, v, 0)

    def stable_power(self, k: int) -> "GroupElement":
        """t**k as a reduced element (negative k gives t^-|k|)."""
        if k >= 0:
            return GroupElement(self, k, self.zero(), 0)
        return GroupElement(self, 0, self.zero(), -k)

    def preimage_under_phi(self, v: Iterable[int]) -> Optional[Vec]:
        """Return w with w M = v, or None when v is outside the image of M.

        Exact: w = v adj(M) / det(M), accepted only when the division has no
        remainder in every coordinate.
        """
        v = tuple(map(int, v))
        if len(v) != self.m:
            raise ValueError("vector dimension mismatch")
        return self._preimage(v)

    def _preimage(self, v: Sequence[int]) -> Optional[Vec]:
        """Trusted kernel of ``preimage_under_phi`` for m integers.

        Stops at the first column of v adj(M) that det(M) does not divide.
        """
        det = self.det
        out = []
        for col in self.adjugate.cols:
            q, r = divmod(sum(map(mul, v, col)), det)
            if r:
                return None
            out.append(q)
        return tuple(out)

    @cached_property
    def _powers(self) -> dict:
        return {}

    @cached_property
    def _lattices(self) -> dict:
        """(gen, window) -> window lattice, kept by ``attacks``."""
        return {}

    def _power(self, k: int) -> IntMatrix:
        """M**k for k >= 0, adj(M)**-k = det**-k M**k for k < 0 (memoised)."""
        mat = self._powers.get(k)
        if mat is None:
            mat = matrix_power(self.matrix if k >= 0 else self.adjugate, abs(k))
            if abs(k) <= POWER_MEMO_BOUND:
                self._powers[k] = mat
        return mat

    def phi_power(self, v: Iterable[int], k: int) -> Vec:
        """v M**k for k >= 0 (square-and-multiply on M)."""
        if k < 0:
            raise ValueError("phi_power requires a nonnegative exponent")
        v = tuple(int(e) for e in v)
        if len(v) != self.m:
            raise ValueError("vector dimension mismatch")
        if k == 0:
            return v
        return _vec_mat(v, self._power(k))

    def rational_phi_power(self, v: Sequence[Fraction], k: int) -> tuple:
        """v M**k over the rationals, for any integer k."""
        if len(v) != self.m:
            raise ValueError("vector dimension mismatch")
        if k == 0:
            return tuple(Fraction(e) for e in v)
        rows = self._power(k).rows
        scale = 1 if k > 0 else self.det ** (-k)
        n = self.m
        return tuple(
            Fraction(sum(v[i] * rows[i][j] for i in range(n)), scale)
            for j in range(n)
        )

    def element(self, p: int, v: Iterable[int], q: int) -> "GroupElement":
        """Britton-reduce the triple t^p v t^-q into a normal form."""
        p = int(p)
        q = int(q)
        v = tuple(int(e) for e in v)
        if p < 0 or q < 0:
            raise ValueError("stable exponents must be nonnegative")
        if len(v) != self.m:
            raise ValueError("vector dimension mismatch")
        return self._reduce(p, v, q)

    def _reduce(self, p: int, v: Vec, q: int) -> "GroupElement":
        """Britton reduction of an already validated triple.

        While p > 0, q > 0 and v lies in the image of M, one t on each side
        is cancelled against the preimage; this terminates within
        min(p, q) steps.  v = 0 cancels them all at once, and so does
        |det M| = 1, where v M^-k = det^k v adj(M)^k is always integral.
        """
        k = min(p, q)
        if not k:
            return _reduced(self, p, v, q)
        det = self.det
        if det in (1, -1):
            sign = det ** k
            v = tuple([sign * e for e in _vec_mat(v, self._power(-k))])
            p, q = p - k, q - k
        elif not any(v):
            p, q = p - k, q - k
        while p > 0 and q > 0:
            w = self._preimage(v)
            if w is None:
                break
            p -= 1
            q -= 1
            v = w
        return _reduced(self, p, v, q)

    @cached_property
    def _generator_steps(self) -> dict:  # x-token -> (coordinate, sign)
        steps = {}
        for i in range(self.m):
            steps[make_token(i + 1)] = (i, 1)
            steps[make_token(i + 1, inverse=True)] = (i, -1)
        return steps

    def evaluate(self, word: Sequence[str]) -> "GroupElement":
        """Fold a token word into its normal form (empty word is identity).

        t^p v t^-q stays reduced after each token (see the module docstring).
        """
        steps = self._generator_steps
        p = q = 0
        v = [0] * self.m
        for tok in word:
            if tok == TOKEN_STABLE:
                if q:
                    q -= 1
                else:
                    p += 1
                    v = list(_vec_mat(v, self.matrix))
            elif tok == TOKEN_STABLE_INV:
                w = self._preimage(v) if p and not q else None
                if w is None:
                    q += 1
                else:
                    p -= 1
                    v = list(w)
            else:
                try:
                    i, sign = steps[tok]
                except KeyError:
                    raise ValueError(f"unknown token {tok!r}") from None
                if not q:
                    v[i] += sign
                elif sign > 0:
                    v = [a + b for a, b in zip(v, self._power(q).rows[i])]
                else:
                    v = [a - b for a, b in zip(v, self._power(q).rows[i])]
        return _reduced(self, p, tuple(v), q)


def _reduced(group: GroupParams, p: int, v: Vec, q: int) -> "GroupElement":
    """Trusted constructor: wraps a triple already known to be reduced."""
    g = object.__new__(GroupElement)
    d = g.__dict__  # skips __init__ and its reducedness test
    d["group"] = group
    d["p"] = p
    d["v"] = v
    d["q"] = q
    return g


class GroupElement(_Value):
    """Britton-reduced normal form t^p v t^-q.

    Direct construction insists on reducedness; use ``GroupParams.element``
    to normalise arbitrary triples.
    """

    _fields = ("group", "p", "v", "q")

    def __init__(self, group: GroupParams, p: int, v: Vec, q: int):
        v = tuple(int(e) for e in v)
        self.__dict__.update(group=group, p=p, v=v, q=q)
        if p < 0 or q < 0:
            raise ValueError("stable exponents must be nonnegative")
        if len(v) != group.m:
            raise ValueError("vector dimension mismatch")
        if p > 0 and q > 0 and group._preimage(v) is not None:
            raise ValueError(
                "triple is not Britton-reduced; use GroupParams.element"
            )

    def __eq__(self, other):
        if other.__class__ is not GroupElement:
            return NotImplemented
        return ((self.group is other.group or self.group == other.group)
                and self.p == other.p and self.v == other.v
                and self.q == other.q)

    def __hash__(self):
        return hash((self.group, self.p, self.v, self.q))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        g = self.group
        if other.group is not g and other.group != g:
            raise ValueError("elements belong to different groups")
        p1, v1, q1 = self.p, self.v, self.q
        p2, v2, q2 = other.p, other.v, other.q
        if not (p1 or q1 or any(v1)):  # the identity: no Britton test
            return other
        if not (p2 or q2 or any(v2)):
            return self
        if q1 >= p2:
            k = q1 - p2
            if k:
                v2 = _vec_mat(v2, g._power(k))
            return g._reduce(p1, _vec_add(v1, v2), k + q2)
        k = p2 - q1
        return g._reduce(p1 + k, _vec_add(_vec_mat(v1, g._power(k)), v2), q2)

    def inverse(self) -> "GroupElement":
        # (t^p v t^-q)^-1 = t^q (-v) t^-p, reduced by symmetry of the invariant
        return _reduced(self.group, self.q, _vec_neg(self.v), self.p)

    def conj_t(self, k: int) -> "GroupElement":
        """t^-k * self * t^k as a reduced element (k may be negative).

        The conjugate is t^(p-k) v t^-(q-k).  A negative exponent is lifted
        with t^-l v = (v M^l) t^-l: both exponents grow by
        l = -min(p - k, q - k, 0) and v becomes v M^l, and one reduction
        gives the normal form.
        """
        g = self.group
        p, q = self.p - k, self.q - k
        lift = -min(p, q, 0)
        v = _vec_mat(self.v, g._power(lift)) if lift else self.v
        return g._reduce(p + lift, v, q + lift)

    def is_identity(self) -> bool:
        return self.p == 0 and self.q == 0 and not any(self.v)

    def to_word(self, cap: int = DEFAULT_WORD_CAP) -> tuple:
        """Unary token expansion: t^p, then x-tokens, then t^-1 repeated q times.

        Normal forms are the wire format; words are only for grammar-level
        interop, hence the cap on total tokens.
        """
        total = self.p + self.q + sum(abs(e) for e in self.v)
        if total > cap:
            raise WordCapExceeded(
                f"word form needs {total} tokens, cap is {cap}"
            )
        toks = [TOKEN_STABLE] * self.p
        for i, e in enumerate(self.v, start=1):
            if e:
                toks.extend([make_token(i, inverse=e < 0)] * abs(e))
        toks.extend([TOKEN_STABLE_INV] * self.q)
        return tuple(toks)

    def oracle(self) -> "OracleElement":
        """Faithful image (v M^-p, p - q) in the rational semidirect model."""
        g = self.group
        a = g.rational_phi_power(tuple(Fraction(e) for e in self.v), -self.p)
        return OracleElement(g, a, self.p - self.q)

    def __repr__(self) -> str:
        head = f"t^{self.p}·" if self.p else ""
        tail = f"·t^-{self.q}" if self.q else ""
        return f"{head}{self.v}{tail}"


class OracleElement(_Value):
    """Point (a, d) of the rational semidirect model Q^m x Z.

    Multiplication is (a, i)(b, j) = (a + b M^-i, i + j).  Denominators of
    genuine images divide a power of det(M).
    """

    _fields = ("group", "a", "d")

    def __init__(self, group: GroupParams, a: tuple, d: int):
        a = tuple(Fraction(e) for e in a)
        self.__dict__.update(group=group, a=a, d=d)
        if len(a) != group.m:
            raise ValueError("vector dimension mismatch")

    def __mul__(self, other: "OracleElement") -> "OracleElement":
        if not isinstance(other, OracleElement):
            return NotImplemented
        g = self.group
        if other.group != g:
            raise ValueError("oracle elements belong to different groups")
        shifted = g.rational_phi_power(other.a, -self.d)
        a = tuple(x + y for x, y in zip(self.a, shifted))
        return OracleElement(g, a, self.d + other.d)

    def __repr__(self) -> str:
        return f"({self.a}, t-exp {self.d})"


def default_length(g: GroupElement) -> int:
    """Stable exponents plus total bit length of the base entries.

    Zero only on the identity, and invariant under inversion;
    ``derivation_descent`` ranks its candidates by it.
    """
    return g.p + g.q + sum(abs(e).bit_length() for e in g.v)
