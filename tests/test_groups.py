"""Group arithmetic: normal forms, words, and the rational oracle."""

import json
import operator
import random
import time
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from subsetkex import (
    GroupElement,
    GroupParams,
    IntMatrix,
    OracleElement,
    WordCapExceeded,
    default_length,
    invert_token,
)
from subsetkex.groups import (
    _mat_mul_rows,
    _vec_add,
    _vec_mat,
    matrix_power,
    token_dimension,
)
from subsetkex.serialize import MAX_DIM
from subsetkex import groups
from conftest import (
    FOLD_MATRICES,
    random_element,
    random_matrix,
    random_params,
    random_vec,
    random_word,
    word_inverse,
)
from test_startup import python


def naive_vec_power(group, v, k):
    """Independent oracle for phi_power: k plain row-by-matrix products."""
    for _ in range(k):
        v = tuple(
            sum(v[i] * group.matrix.rows[i][j] for i in range(group.m))
            for j in range(group.m)
        )
    return v


def test_matrix_requires_nonzero_det():
    with pytest.raises(ValueError):
        IntMatrix(((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        IntMatrix(((0,),))


def fraction_det(rows):
    """Independent determinant: Gaussian elimination over the rationals."""
    a = [[Fraction(e) for e in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def cofactor_adjugate(rows):
    """Reference adj(M): transposed cofactors, one determinant per entry."""
    n = len(rows)
    return tuple(
        tuple((-1) ** (i + j) * fraction_det(
            [[e for c, e in enumerate(row) if c != i]
             for r, row in enumerate(rows) if r != j])
            for j in range(n))
        for i in range(n))


def test_adjugate_matches_cofactors():
    rng = random.Random(41)
    cases = list(FOLD_MATRICES)
    while len(cases) < len(FOLD_MATRICES) + 300:
        n = rng.randint(1, 6)
        rows = tuple(tuple(rng.choice((0, 0, -3, -2, -1, 1, 2, 3))
                           for _ in range(n)) for _ in range(n))
        try:
            IntMatrix(rows)
        except ValueError:
            continue
        cases.append(rows)
    for rows in cases:
        mat = IntMatrix(rows)
        assert mat.adjugate.rows == cofactor_adjugate(rows), rows
        assert mat.adjugate.det == mat.det ** (len(rows) - 1)


def test_adjugate_m40_in_time():
    rng = random.Random(40)
    rows = tuple(tuple(rng.randint(-3, 3) for _ in range(40))
                 for _ in range(40))
    mat = IntMatrix(rows)
    t0 = time.perf_counter()
    adj = mat.adjugate
    elapsed = time.perf_counter() - t0
    product = _mat_mul_rows(mat.rows, adj.rows)
    assert product == tuple(tuple(mat.det if i == j else 0 for j in range(40))
                            for i in range(40))
    assert elapsed < 2.0  # one cofactor determinant per entry took ~12 s


def test_adjugate_certificate_raises(monkeypatch):
    # a wrong adjugate must be refused even under python -O
    real = groups._bareiss_adjugate

    def off_by_one(rows):
        det, adj = real(rows)
        return det, ((adj[0][0] + 1,) + adj[0][1:],) + adj[1:]

    monkeypatch.setattr(groups, "_bareiss_adjugate", off_by_one)
    with pytest.raises(ArithmeticError, match="adjugate certificate"):
        IntMatrix(((2, 1), (0, 3))).adjugate
    monkeypatch.setattr(groups, "_bareiss_adjugate",
                        lambda rows: (-real(rows)[0], real(rows)[1]))
    with pytest.raises(ArithmeticError, match="adjugate certificate"):
        IntMatrix(((2, 1), (0, 3))).adjugate


# python -O strips every assert: the certificates must raise without them
_UNDER_O = """
import json, sys
from subsetkex import AttackResult, IntMatrix, groups

real = groups._bareiss_adjugate

def off_by_one(rows):
    det, adj = real(rows)
    return det, ((adj[0][0] + 1,) + adj[0][1:],) + adj[1:]

groups._bareiss_adjugate = off_by_one
outcomes = [sys.flags.optimize]
for check in (lambda: IntMatrix(((2, 1), (0, 3))).adjugate,
              lambda: AttackResult(True, None, 0, 0)):
    try:
        check()
        outcomes.append(None)
    except Exception as exc:
        outcomes.append([type(exc).__name__, str(exc)])
print(json.dumps(outcomes))
"""


def test_certificates_raise_under_optimize():
    optimize, adjugate, result = json.loads(python("-O", "-c", _UNDER_O))
    assert optimize == 1
    assert adjugate == ["ArithmeticError",
                        "adjugate certificate M adj(M) = det I failed"]
    assert result == ["ValueError",
                      "a successful attack must carry its recovered pair"]


def naive_mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def identity_rows(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def nonsingular_rows(dim, bound=3):
    return st.lists(
        st.lists(st.integers(-bound, bound), min_size=dim, max_size=dim),
        min_size=dim, max_size=dim,
    ).filter(_det_ok).map(lambda r: tuple(map(tuple, r)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(nonsingular_rows))
def test_matrix_power_matches_repeated_products(rows):
    mat = IntMatrix(rows)
    product = identity_rows(len(rows))
    for k in range(10):
        assert matrix_power(mat, k).rows == product, k
        product = naive_mat_mul(product, rows)


def test_matrix_power_at_max_dim():
    rng = random.Random(24)
    rows = random_matrix(rng, MAX_DIM).rows
    mat = IntMatrix(rows)
    assert matrix_power(mat, 0).rows == identity_rows(MAX_DIM)
    assert matrix_power(mat, 1).rows == rows
    assert matrix_power(mat, 2).rows == naive_mat_mul(rows, rows)


@st.composite
def group_and_vectors(draw):
    dim = draw(st.integers(1, 3))
    group = GroupParams(IntMatrix(draw(nonsingular_rows(dim))))
    vec = st.lists(st.integers(-40, 40), min_size=dim, max_size=dim).map(tuple)
    v, a = draw(vec), draw(vec)
    if draw(st.booleans()):
        v = naive_vec_power(group, v, 1)  # lands in Im M
    return group, v, a


def cramer_solution(rows, v):
    """Independent x with x M = v over Q: Cramer's rule on the rows of M."""
    det = fraction_det(rows)
    return tuple(
        Fraction(fraction_det(rows[:j] + (v,) + rows[j + 1:]), det)
        for j in range(len(rows)))


@settings(max_examples=150, deadline=None)
@given(group_and_vectors())
def test_vector_kernels_match_loops_and_oracle(data):
    group, v, a = data
    assert _vec_mat(v, group.matrix) == naive_vec_power(group, v, 1)
    assert _vec_add(v, a) == tuple(x + y for x, y in zip(v, a))
    w = group._preimage(v)
    assert w == group.preimage_under_phi(v)
    exact = cramer_solution(group.matrix.rows, v)
    if all(e.denominator == 1 for e in exact):
        assert w == tuple(int(e) for e in exact)
        assert naive_vec_power(group, w, 1) == v
    else:
        assert w is None


def test_identity_element(bs2):
    e = bs2.identity()
    assert (e.p, e.v, e.q) == (0, (0,), 0)
    rng = random.Random(1)
    for _ in range(20):
        g = random_element(rng, bs2)
        assert e * g == g
        assert g * e == g
    assert e.inverse() == e


def test_image_test_doubling(bs2):
    assert bs2.preimage_under_phi((4,)) == (2,)
    assert bs2.preimage_under_phi((3,)) is None


def test_image_test_rank2(upper2):
    # frozen from brute force below: (1, 0) is the unique preimage of (2, 1)
    assert upper2.preimage_under_phi((2, 1)) == (1, 0)
    hits = [
        (a, b)
        for a in range(-5, 6)
        for b in range(-5, 6)
        if naive_vec_power(upper2, (a, b), 1) == (2, 1)
    ]
    assert hits == [(1, 0)]


def test_britton_reduction_cases(bs2):
    assert bs2.element(1, (2,), 1) == bs2.base((1,))
    assert bs2.element(0, (5,), 0) == bs2.base((5,))
    g = bs2.element(2, (4,), 1)
    assert (g.p, g.v, g.q) == (1, (2,), 0)
    # same group element: compare raw-triple oracle images
    lhs = OracleElement(bs2, (Fraction(4, 4),), 1)  # 4 * 2^-2, d = 2 - 1
    assert g.oracle() == lhs


def test_britton_zero_vector_short_circuit(upper2):
    # t^p 0 t^-q = t^(p-q) needs no preimage tests, however large p and q
    t0 = time.perf_counter()
    g = upper2.element(10 ** 6, (0, 0), 10 ** 6)
    h = upper2.element(10 ** 6, (0, 0), 10 ** 6 + 3)
    assert time.perf_counter() - t0 < 0.1
    assert g.is_identity()
    assert h == upper2.stable_power(-3)


def test_britton_idempotent(bs2):
    rng = random.Random(7)
    for _ in range(50):
        g = random_element(rng, bs2, pq=6, bound=64)
        again = bs2.element(g.p, g.v, g.q)
        assert again == g


def test_multiply_examples(bs2):
    one = bs2.base((1,))
    assert one * one == bs2.base((2,))
    h = bs2.element(1, (1,), 1)
    assert h * h == bs2.base((1,))
    assert (h * h).oracle() == h.oracle() * h.oracle()


def test_multiply_dimension_mismatch(bs2, upper2):
    with pytest.raises(ValueError):
        bs2.generator(1) * upper2.generator(1)


def test_inverse_law(bs2, upper2):
    assert bs2.base((3,)).inverse() == bs2.base((-3,))
    g = bs2.element(1, (1,), 0)
    assert (g.inverse().p, g.inverse().v, g.inverse().q) == (0, (-1,), 1)
    assert (g * g.inverse()).is_identity()
    rng = random.Random(3)
    for group in (bs2, upper2):
        for _ in range(100):
            g = random_element(rng, group)
            assert (g * g.inverse()).is_identity()
            assert g.inverse().inverse() == g


def test_phi_power(bs2, upper2):
    assert bs2.phi_power((1,), 3) == (8,)
    assert bs2.phi_power((5,), 0) == (5,)
    # frozen from the naive-iteration oracle
    assert naive_vec_power(upper2, (1, 0), 3) == (8, 19)
    assert upper2.phi_power((1, 0), 3) == (8, 19)
    rng = random.Random(11)
    for _ in range(50):
        group = random_params(rng)
        v = random_vec(rng, group.m)
        k = rng.randint(0, 12)
        assert group.phi_power(v, k) == naive_vec_power(group, v, k)


def test_conj_by_stable(bs2):
    x = bs2.base((1,))
    assert x.conj_t(2) == bs2.base((4,))
    assert x.conj_t(0) == x
    g = x.conj_t(-1)
    assert (g.p, g.v, g.q) == (1, (1,), 1)
    assert g.oracle() == OracleElement(bs2, (Fraction(1, 2),), 0)


def test_conj_t_matches_stable_products():
    # conj_t reduces the lifted triple once; the reference is the product
    rng = random.Random(2024)
    for rows in FOLD_MATRICES:
        group = GroupParams(IntMatrix(rows))
        elems = [group.identity()]
        for p in range(5):
            for q in range(5):
                v = random_vec(rng, group.m)
                elems.append(group.element(p, v, q))
                # a vector in Im M exercises the cancelling reduction
                elems.append(group.element(p, group.phi_power(v, 1), q))
        for x in elems:
            for k in range(-5, 6):
                expect = group.stable_power(-k) * x * group.stable_power(k)
                got = x.conj_t(k)
                assert (got.p, got.v, got.q) == (expect.p, expect.v, expect.q)


def test_evaluate_word(bs2):
    assert bs2.evaluate(("t^-1", "x1", "t")) == bs2.base((2,))
    assert bs2.evaluate(()).is_identity()
    assert bs2.evaluate(("x1", "x1^-1")).is_identity()
    with pytest.raises(ValueError):
        bs2.evaluate(("y1",))
    # the trailing t^-1 cancels against (2,) = (1,) M
    assert bs2.evaluate(("t", "x1", "x1", "t^-1")) == bs2.base((1,))
    # x1 appended at p = q = 1 adds row 1 of M^1 = (2,)
    g = bs2.evaluate(("t", "x1", "t^-1", "x1"))
    assert (g.p, g.v, g.q) == (1, (3,), 1)


def test_to_word_round_trip(bs2, upper2):
    assert bs2.base((2,)).to_word() == ("x1", "x1")
    assert bs2.stable_power(1).to_word() == ("t",)
    rng = random.Random(5)
    for group in (bs2, upper2):
        for _ in range(100):
            g = random_element(rng, group, pq=3, bound=12)
            assert group.evaluate(g.to_word()) == g
    with pytest.raises(WordCapExceeded):
        bs2.base((100,)).to_word(cap=10)


def test_defining_relation(bs2, upper2):
    # t^-1 v t equals the base element v M
    rng = random.Random(13)
    for group in (bs2, upper2):
        for _ in range(50):
            v = random_vec(rng, group.m, 20)
            word = ("t^-1",) + group.base(v).to_word() + ("t",)
            assert group.evaluate(word) == group.base(group.phi_power(v, 1))


def test_oracle_examples(bs2):
    neutral = OracleElement(bs2, (0,), 0)
    assert bs2.identity().oracle() == neutral
    assert bs2.element(1, (1,), 1).oracle() == OracleElement(bs2, (Fraction(1, 2),), 0)
    # frozen by applying the product rule by hand: 1 + 1 * 2^-1 = 3/2
    lhs = OracleElement(bs2, (Fraction(1),), 1)
    rhs = OracleElement(bs2, (Fraction(1),), 0)
    assert lhs * rhs == OracleElement(bs2, (Fraction(3, 2),), 1)
    assert neutral * rhs == rhs


def test_oracle_homomorphism_random():
    rng = random.Random(17)
    for _ in range(300):
        group = random_params(rng)
        g = group.evaluate(random_word(rng, group, rng.randint(0, 16)))
        h = group.evaluate(random_word(rng, group, rng.randint(0, 16)))
        assert (g * h).oracle() == g.oracle() * h.oracle()


def test_oracle_associativity_random():
    rng = random.Random(19)
    for _ in range(200):
        group = random_params(rng)
        xs = [
            OracleElement(
                group,
                tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(group.m)),
                rng.randint(-4, 4),
            )
            for _ in range(3)
        ]
        a, b, c = xs
        assert (a * b) * c == a * (b * c)


def test_oracle_faithful_on_equal_values(bs2):
    # words engineered to collide in the group must share one normal form
    rng = random.Random(23)
    for _ in range(100):
        w = random_word(rng, bs2, rng.randint(0, 10))
        padded = w + ("x1", "x1^-1")
        conj = ("t",) + tuple(w) + ("t^-1",)
        g, h = bs2.evaluate(w), bs2.evaluate(padded)
        assert g.oracle() == h.oracle() and g == h
        k = bs2.evaluate(("t^-1",) + conj + ("t",))
        assert k.oracle() == g.oracle() and k == g


def test_oracle_injective_on_reduced_forms():
    # contrapositive of faithfulness: distinct normal forms, distinct images
    rng = random.Random(37)
    for _ in range(300):
        group = random_params(rng)
        g = random_element(rng, group, pq=4, bound=20)
        h = random_element(rng, group, pq=4, bound=20)
        if g != h:
            assert g.oracle() != h.oracle(), (g, h)


def test_oracle_denominators_divide_det_powers():
    rng = random.Random(29)
    for _ in range(100):
        group = random_params(rng)
        g = random_element(rng, group, pq=5, bound=30)
        scale = group.det ** g.p
        for entry in g.oracle().a:
            assert (entry * scale).denominator == 1


def test_length(bs2, upper2):
    assert default_length(bs2.identity()) == 0
    assert default_length(bs2.base((8,))) == 4
    assert default_length(upper2.element(2, (1, 0), 1)) == 4
    rng = random.Random(31)
    for _ in range(50):
        g = random_element(rng, upper2)
        assert default_length(g.inverse()) == default_length(g)


def test_word_inverse_tokens():
    assert invert_token("x3") == "x3^-1"
    assert invert_token("t^-1") == "t"
    assert word_inverse(("x1", "t")) == ("t^-1", "x1^-1")


@st.composite
def group_and_elements(draw):
    dim = draw(st.integers(1, 2))
    rows = draw(
        st.lists(
            st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
            min_size=dim,
            max_size=dim,
        ).filter(lambda r: _det_ok(r))
    )
    group = GroupParams(IntMatrix(tuple(tuple(r) for r in rows)))
    elems = []
    for _ in range(3):
        p = draw(st.integers(0, 3))
        q = draw(st.integers(0, 3))
        v = tuple(draw(st.integers(-8, 8)) for _ in range(dim))
        elems.append(group.element(p, v, q))
    return group, elems


def _det_ok(rows):
    try:
        IntMatrix(tuple(tuple(r) for r in rows))
        return True
    except ValueError:
        return False


@settings(max_examples=60, deadline=None)
@given(group_and_elements())
def test_group_axioms_property(data):
    group, (g, h, k) = data
    assert (g * h) * k == g * (h * k)
    assert g * group.identity() == g
    assert (g * g.inverse()).is_identity()
    assert (g * h).oracle() == g.oracle() * h.oracle()


@st.composite
def group_and_word(draw):
    group = GroupParams(IntMatrix(draw(st.sampled_from(FOLD_MATRICES))))
    toks = group.tokens()
    xs = toks[:-2]
    pieces = draw(st.lists(st.one_of(
        st.lists(st.sampled_from(toks), max_size=6),
        # t^a (x-word) t^-b (x-word): the first t^-1 cancels when the x-word
        # lands in Im M; otherwise the trailing x-tokens arrive at p, q > 0
        st.builds(lambda a, body, b, tail: ["t"] * a + body + ["t^-1"] * b + tail,
                  st.integers(1, 3), st.lists(st.sampled_from(xs), max_size=6),
                  st.integers(1, 3), st.lists(st.sampled_from(xs), max_size=3)),
    ), max_size=4))
    return group, tuple(tok for piece in pieces for tok in piece)


def _token_oracle(group, tok):
    sign = -1 if tok.endswith("^-1") else 1
    i = token_dimension(tok)
    if i == 0:
        return OracleElement(group, (0,) * group.m, sign)
    return OracleElement(
        group, tuple(sign if j == i - 1 else 0 for j in range(group.m)), 0)


def _token_element(group, tok):
    i = token_dimension(tok)
    g = group.generator(i) if i else group.stable_power(1)
    return g.inverse() if tok.endswith("^-1") else g


@settings(max_examples=400, deadline=None)
@given(group_and_word())
def test_evaluate_fold_matches_token_products(data):
    group, word = data
    e = group.evaluate(word)
    assert e.oracle() == reduce(
        operator.mul, (_token_oracle(group, tok) for tok in word),
        OracleElement(group, (0,) * group.m, 0))
    assert GroupElement(group, e.p, e.v, e.q) == e
    assert e == reduce(operator.mul, (_token_element(group, tok) for tok in word),
                       group.identity())
