"""Shared randomized-construction helpers for the test suite."""

import random

import pytest

from subsetkex import (
    GridPoint,
    GroupParams,
    IntMatrix,
    lattice_member,
    subset_distance,
    verify_break,
)
from subsetkex.attacks import _EchelonLattice
from subsetkex.groups import _vec_mat


def pytest_terminal_summary(terminalreporter):
    """Replay the per-criterion acceptance lines after a captured run."""
    try:
        from test_acceptance import REPORT_LINES
    except ImportError:
        return
    if REPORT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORT_LINES:
            terminalreporter.write_line(line)


# m = 1..3; in each dimension one matrix each with det 1, -1, 2, -2 and 6
FOLD_MATRICES = (
    ((1,),), ((-1,),), ((2,),), ((-2,),), ((6,),),
    ((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (0, 1)), ((1, 2), (1, 0)),
    ((2, 1), (0, 3)),
    ((1, 1, 0), (0, 1, 1), (0, 0, 1)), ((0, 1, 0), (1, 0, 0), (0, 1, 1)),
    ((2, 0, 0), (1, 1, 0), (0, 1, 1)), ((1, 0, 1), (0, -2, 0), (0, 0, 1)),
    ((1, 1, 0), (0, 2, 1), (0, 0, 3)),
)


def random_matrix(rng: random.Random, dim: int, bound: int = 3) -> IntMatrix:
    while True:
        rows = tuple(
            tuple(rng.randint(-bound, bound) for _ in range(dim))
            for _ in range(dim)
        )
        try:
            return IntMatrix(rows)
        except ValueError:
            continue


def random_params(rng: random.Random, max_dim: int = 3, bound: int = 3) -> GroupParams:
    return GroupParams(random_matrix(rng, rng.randint(1, max_dim), bound))


def random_vec(rng: random.Random, m: int, bound: int = 9) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(m))


def random_element(rng: random.Random, group: GroupParams,
                   pq: int = 4, bound: int = 50):
    return group.element(
        rng.randint(0, pq), random_vec(rng, group.m, bound), rng.randint(0, pq))


def random_word(rng: random.Random, group: GroupParams, length: int) -> tuple:
    toks = group.tokens()
    return tuple(toks[rng.randrange(len(toks))] for _ in range(length))


def sweep_random_point(rng, i):
    """A random grid point drawn as the benchmark's attack sweep draws it."""
    dim = rng.randint(2, 3)

    def vec():
        while True:
            v = tuple(rng.randint(-2, 2) for _ in range(dim))
            if any(v):
                return v

    rows = random_matrix(rng, dim).rows
    u, v = vec(), vec()
    w = (rng.randint(0, 2), tuple(rng.randint(-3, 3) for _ in range(dim)),
         rng.randint(0, 2))
    return GridPoint(grid_id=f"random-{i}", rows=rows, u=u, v=v, w=w)


def reference_contains(lattice, z):
    """Exact window-lattice membership by divisibility descent.

    At each pivot the coordinate must be a multiple of the pivot; that
    multiple of the row is subtracted, and z is a member when nothing is
    left.  lattice_member instead tests for a zero nearest-rounding
    residual; this is the independent reference it is checked against.
    """
    vec = list(z)
    for row, j in zip(lattice.rows, lattice.pivots):
        if vec[j]:
            q, r = divmod(vec[j], row[j])
            if r:
                return False
            for k in range(j, lattice.dim):
                vec[k] -= q * row[k]
    return not any(vec)


def reference_window_lattice(matrix, gen, window):
    """The window lattice built from all 2K+1 scaled rows.

    Row k is det^K gen M^k for -K <= k <= K, written with the adjugate for
    k < 0.  attacks._window_lattice builds the same lattice from at most m
    rows; this is the construction it is checked against.
    """
    det = matrix.det
    adjugate = matrix.adjugate
    up, down = [gen], [gen]  # gen M^k and gen adj(M)^k = det^k gen M^-k
    for _ in range(window):
        up.append(_vec_mat(up[-1], matrix))
        down.append(_vec_mat(down[-1], adjugate))
    lat = _EchelonLattice(matrix.dim)
    for k in range(-window, window + 1):
        row = up[k] if k >= 0 else down[-k]
        scale = det ** (window + min(k, 0))
        lat.add([e * scale for e in row])
    lat.normalize()
    return lat


def reference_rst_greedy(instance, max_iter, window=None):
    """The three-product walk: a = current s, then b = w^-1 a^-1 target.

    Every candidate is tested for membership before it is scored, as
    rst_greedy did before it factored b and scored first.  The walk has no
    stop at a repeated state: a failing run spends the whole budget.
    Returns (success, iterations, best_score, recovered).
    """
    pub = instance.pub
    group = pub.group
    gen_b = instance.gen_b

    def win(b):
        return window if window is not None else b.p + b.q + 8

    def certified(a, b):
        return (lattice_member(group, b, gen_b, win(b)).is_member
                and verify_break(pub, instance.target, instance.target,
                                 a, b, a, b))

    def induced(a):
        return pub.w.inverse() * a.inverse() * instance.target

    steps = [s for gen in instance.gens_a for s in (gen, gen.inverse())]
    current = group.identity()
    b0 = induced(current)
    if certified(current, b0):
        return True, 0, 0, (current, b0)
    best = subset_distance(group, b0, gen_b, win(b0))
    for it in range(1, max_iter + 1):
        scored = []
        for idx, step in enumerate(steps):
            a = current * step
            b = induced(a)
            if certified(a, b):
                return True, it, 0, (a, b)
            scored.append((subset_distance(group, b, gen_b, win(b)), idx, a))
        d0, _, current = min(scored, key=lambda s: (s[0], s[1]))
        best = min(best, d0)
    return False, max_iter, best, None


@pytest.fixture
def bs2() -> GroupParams:
    """The smallest interesting group: base Z, action by doubling."""
    return GroupParams(IntMatrix(((2,),)))


@pytest.fixture
def upper2() -> GroupParams:
    """Rank-2 base with a non-diagonal action."""
    return GroupParams(IntMatrix(((2, 1), (0, 3))))


@pytest.fixture
def flat2() -> GroupParams:
    """Identity action: the group is the direct product Z^2 x Z."""
    return GroupParams(IntMatrix(((1, 0), (0, 1))))
