"""Shared randomized-construction helpers for the test suite."""

import random

import pytest

from subsetkex import GroupParams, IntMatrix


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
