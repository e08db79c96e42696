"""Shared randomized-construction helpers for the test suite."""

import random

import pytest

from subsetkex import (
    GridPoint,
    GroupParams,
    IntMatrix,
    default_length,
    invert_token,
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
    k < 0.  attacks._window_lattice builds the same lattice, over the group
    of this matrix, from at most m rows and keeps it on that group; this is
    the construction it is checked against.
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


def word_inverse(word):
    """Formal inverse of a word: reversed, with every token inverted."""
    return tuple(invert_token(tok) for tok in reversed(tuple(word)))


def reference_derive_once(grammar, policy, rng):
    """One sampling attempt as the sampler made it with ``random.choice``.

    A stack of (symbol, depth) pairs holds the reversed sentential form;
    past ``depth_cap`` a nonterminal with terminal-only rules picks among
    them with probability ``terminal_bias``.  The sampler now reads a
    per-grammar table and draws with ``getrandbits`` itself; this is the
    construction it is checked against, word for word and draw for draw.
    """
    options_for = grammar._productive_rules_by_lhs
    finishers_for = {}
    for lhs, rhs in grammar.rules:
        if not any(grammar.is_nonterminal(s) for s in rhs):
            finishers_for.setdefault(lhs, []).append(rhs)
    nts = grammar._nt_set
    bias = float(policy.terminal_bias)
    out = []
    stack = [(grammar.start, 0)]
    steps = 0
    budget = 16 * (policy.max_length + policy.depth_cap) + 64
    while stack:
        sym, depth = stack.pop()
        if sym not in nts:
            out.append(sym)
            if len(out) > policy.max_length:
                return None
            continue
        options = options_for.get(sym)
        if not options:
            return None
        steps += 1
        if steps > budget:
            return None
        pool = options
        if depth > policy.depth_cap:
            finishers = finishers_for.get(sym)
            if finishers and rng.random() < bias:
                pool = finishers
        depth += 1
        stack.extend([(s, depth) for s in reversed(rng.choice(pool))])
    return tuple(out)


def reference_rst_greedy(instance, max_iter, window=None):
    """The three-product walk: a = current s, then b = w^-1 a^-1 target.

    Every candidate is tested for membership before it is scored, as
    rst_greedy did before it factored b and scored first.  The walk has no
    stop at a repeated state: a failing run spends the whole budget.
    Returns (success, iterations, best_score, recovered).
    """
    pub = instance.pub
    group = pub.group
    gen_b = instance.plan.gen_b

    def win(b):
        return window if window is not None else b.p + b.q + 8

    def certified(a, b):
        return (lattice_member(group, b, gen_b, win(b)).is_member
                and verify_break(pub, instance.target, instance.target,
                                 a, b, a, b))

    def induced(a):
        return pub.w.inverse() * a.inverse() * instance.target

    steps = [s for gen in instance.plan.gens_a for s in (gen, gen.inverse())]
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


def reference_shortest_word(grammar, nt=None):
    """A shortest word of ``nt`` (default: the start symbol), spelled out
    by walking the picked rules of ``CFGrammar._shortest``.

    shortest_word looks the word up in the grammar's table instead; this
    is the walk it is checked against.
    """
    pick = grammar._shortest[1]
    out = []
    stack = [grammar.start if nt is None else nt]
    while stack:
        sym = stack.pop()
        if grammar.is_nonterminal(sym):
            stack.extend(reversed(pick[sym]))
        else:
            out.append(sym)
    return tuple(out)


def reference_derivation_descent(instance, beam, max_nodes, max_len,
                                 window=None, words=None):
    """The beam descent that evaluates and certifies every child.

    Each partial derivation is completed with shortest yields, its word
    evaluated to a, and b = w^-1 a^-1 target scored and certified, however
    often the same word comes back; nothing is kept between searches.
    derivation_descent keeps scores per search and heads per plan; this
    is the search it is checked against.  Each completed word is appended
    to ``words`` when given.  Returns (success, iterations, best_score,
    recovered).
    """
    plan, target = instance.plan, instance.target
    pub = plan.pub
    grammar, group = pub.spec_a.grammar, pub.group
    w_inverse = pub.w.inverse()

    def assess(form):
        word = tuple(tok for sym in form for tok in (
            reference_shortest_word(grammar, sym)
            if grammar.is_nonterminal(sym)
            else (sym,)))
        if words is not None:
            words.append(word)
        a = group.evaluate(word)
        b = w_inverse * a.inverse() * target
        win = window if window is not None else b.p + b.q + 8
        breaks = (lattice_member(group, b, plan.gen_b, win).is_member
                  and verify_break(pub, target, target, a, b, a, b))
        return default_length(b), (a, b) if breaks else None

    best, pair = assess((grammar.start,))
    if pair is not None:
        return True, 0, 0, pair
    frontier = [(best, 0, (grammar.start,))]
    expanded, tiebreak = 0, 1
    while frontier and expanded < max_nodes:
        children = []
        for _, _, form in frontier:
            left = next((i for i, sym in enumerate(form)
                         if grammar.is_nonterminal(sym)), None)
            if left is None:
                continue
            for rhs in grammar._productive_rules_by_lhs.get(form[left], ()):
                child = form[:left] + rhs + form[left + 1:]
                if sum(not grammar.is_nonterminal(sym)
                       for sym in child) > max_len:
                    continue
                expanded += 1
                score, pair = assess(child)
                if pair is not None:
                    return True, expanded, 0, pair
                best = min(best, score)
                children.append((score, tiebreak, child))
                tiebreak += 1
                if expanded >= max_nodes:
                    break
            if expanded >= max_nodes:
                break
        children.sort(key=lambda node: node[:2])
        frontier = children[:beam]
    return False, expanded, best, None


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
