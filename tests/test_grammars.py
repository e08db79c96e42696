"""Grammar machinery: sampling, Earley membership, closures."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from subsetkex import (
    CFGrammar,
    GroupParams,
    IntMatrix,
    GrammarError,
    RANGE_INTEGERS,
    RANGE_NATURALS,
    SampleBudgetError,
    SamplePolicy,
    SubsetSpec,
    cfg_invert,
    cfg_membership,
    cfg_star,
    cfg_union,
    lattice_member,
    orbit_grammar,
    orbit_spec,
    sample_grammar,
    shortest_nonempty_word,
    shortest_word,
    subgroup_closure,
    word_inverse,
)


def enumerate_language(grammar, max_len, node_budget=200_000, start=None):
    """Independent membership oracle: BFS over sentential forms.

    Returns the exact set of words of length <= max_len derived from
    ``start`` (default: the start symbol), so any membership question
    within that bound is decided by lookup.
    """
    rules_for = {}
    for lhs, rhs in grammar.rules:
        rules_for.setdefault(lhs, []).append(rhs)
    start = grammar.start if start is None else start
    words = set()
    seen = {(start,)}
    queue = [(start,)]
    nodes = 0
    while queue:
        form = queue.pop()
        nodes += 1
        assert nodes < node_budget, "enumeration oracle budget exceeded"
        idx = next(
            (i for i, s in enumerate(form) if grammar.is_nonterminal(s)), None)
        if idx is None:
            if len(form) <= max_len:
                words.add(form)
            continue
        terminal_count = sum(
            1 for s in form if not grammar.is_nonterminal(s))
        if terminal_count > max_len:
            continue
        for rhs in rules_for.get(form[idx], ()):
            child = form[:idx] + rhs + form[idx + 1:]
            if len(child) <= max_len + 6 and child not in seen:
                seen.add(child)
                queue.append(child)
    return words


def orbit_x1(bs2, krange=RANGE_NATURALS):
    return orbit_grammar(bs2, ("x1",), krange)


# ---------------------------------------------------------------------------
# construction and productivity


def test_productive_simple():
    g = CFGrammar(("S",), "S", (("S", ("x1",)),))
    assert g.productive == frozenset({"S"})


def test_unproductive_start_rejected():
    with pytest.raises(GrammarError):
        CFGrammar(("S",), "S", (("S", ("S",)),))


def test_productive_orbit_shape(bs2):
    g = orbit_x1(bs2)
    assert g.productive == frozenset({"S"})


def test_bad_symbols_rejected():
    with pytest.raises(GrammarError):
        CFGrammar(("S",), "S", (("S", ("y1",)),))
    with pytest.raises(GrammarError):
        CFGrammar(("S",), "Q", (("S", ("x1",)),))


def test_spec_alphabet_bound(bs2):
    g = CFGrammar(("S",), "S", (("S", ("x2",)),))
    with pytest.raises(ValueError):
        SubsetSpec(g, bs2)


# ---------------------------------------------------------------------------
# sampling


def test_single_rule_sampling(bs2):
    spec = SubsetSpec(CFGrammar(("S",), "S", (("S", ("x1",)),)), bs2)
    for seed in range(10):
        assert spec.sample(SamplePolicy(seed=seed)) == ("x1",)


def test_orbit_sample_shape(bs2):
    spec = orbit_spec(bs2, ("x1",), RANGE_NATURALS)
    for seed in range(20):
        w = spec.sample(SamplePolicy(max_length=21, depth_cap=4, seed=seed))
        k = w.index("x1")
        assert w == ("t^-1",) * k + ("x1",) + ("t",) * k


def test_sampling_deterministic(bs2):
    spec = subgroup_closure(orbit_spec(bs2, ("x1",), RANGE_INTEGERS))
    pol = SamplePolicy(max_length=24, depth_cap=4, seed=99)
    assert spec.sample(pol) == spec.sample(pol)


def test_sampling_soundness_via_cyk(bs2, upper2):
    grammars = [
        orbit_x1(bs2, RANGE_NATURALS),
        orbit_grammar(upper2, ("x1", "x2^-1"), RANGE_INTEGERS),
        subgroup_closure(orbit_spec(bs2, ("x1",), RANGE_INTEGERS)).grammar,
    ]
    for gi, grammar in enumerate(grammars):
        for seed in range(40):
            w = sample_grammar(
                grammar, SamplePolicy(max_length=18, depth_cap=3, seed=seed))
            assert cfg_membership(w, grammar), (gi, seed, w)


def test_sample_budget_error():
    # every word has at least 40 tokens, the policy allows 4
    g = CFGrammar(("S",), "S", (("S", tuple(["x1"] * 40)),))
    with pytest.raises(SampleBudgetError):
        sample_grammar(g, SamplePolicy(max_length=4, seed=0))


# ---------------------------------------------------------------------------
# membership


def test_membership_examples(bs2):
    g = orbit_x1(bs2)
    assert cfg_membership(("t^-1", "x1", "t"), g)
    assert not cfg_membership(("x1", "t"), g)
    assert not cfg_membership((), CFGrammar(("S",), "S", (("S", ("x1",)),)))
    assert cfg_membership((), cfg_star(g))


def test_membership_agrees_with_enumeration(bs2):
    grammars = [
        orbit_x1(bs2, RANGE_NATURALS),
        orbit_x1(bs2, RANGE_INTEGERS),
        cfg_star(CFGrammar(("S",), "S", (("S", ("x1", "t")),))),
    ]
    rng = random.Random(4)
    alphabet = ("x1", "x1^-1", "t", "t^-1")
    for grammar in grammars:
        language = enumerate_language(grammar, 8)
        # every enumerated word is accepted
        for w in language:
            assert cfg_membership(w, grammar), w
        # random words agree with the lookup oracle
        for _ in range(300):
            w = tuple(
                alphabet[rng.randrange(4)] for _ in range(rng.randint(0, 8)))
            assert cfg_membership(w, grammar) == (w in language), w


def test_cnf_mutants_rejected(bs2):
    grammar = orbit_x1(bs2, RANGE_NATURALS)
    language = enumerate_language(grammar, 11)
    rng = random.Random(8)
    mutants = 0
    for w in sorted(language):
        for _ in range(25):
            if not w:
                continue
            m = list(w)
            op = rng.randrange(3)
            if op == 0:
                m.pop(rng.randrange(len(m)))
            elif op == 1:
                m[rng.randrange(len(m))] = ("x1", "t", "t^-1")[rng.randrange(3)]
            else:
                m.insert(rng.randrange(len(m) + 1), "x1")
            mt = tuple(m)
            if len(mt) <= 11:
                assert cfg_membership(mt, grammar) == (mt in language), mt
                mutants += 1
    assert mutants >= 100


# grammars whose shapes the recognizer must handle: (nonterminals, rules)
EDGE_GRAMMARS = [
    # a nullable prefix before a terminal, through the unit cycle A -> B -> A
    (("S", "A", "B"), (("S", ("A", "A", "x1")), ("A", ()), ("A", ("B",)),
                       ("B", ("A",)))),
    # a unit cycle through the start symbol
    (("S", "A"), (("S", ("A",)), ("A", ("S",)), ("A", ("t^-1", "S", "t")),
                  ("S", ("x1",)))),
    # nonterminals named like tokens are never scanned as tokens
    (("S", "x1", "t"), (("S", ("x1", "t")), ("S", ("t^-1",)),
                        ("x1", ("x1^-1",)), ("x1", ()),
                        ("t", ("t", "x1")), ("t", ("t^-1",)))),
]


SMALL_ALPHABET = ("x1", "x1^-1", "t", "t^-1")


def random_grammar(rng):
    """A random grammar over S, A, B with start S, or None if it is invalid."""
    nts = ("S", "A", "B")
    rules = []
    for _ in range(rng.randint(2, 6)):
        lhs = nts[rng.randrange(3)]
        rhs = tuple(
            (nts + SMALL_ALPHABET)[rng.randrange(7)]
            for _ in range(rng.randint(0, 3))
        )
        rules.append((lhs, rhs))
    try:
        return CFGrammar(nts, "S", tuple(rules))
    except GrammarError:
        return None


def test_cyk_fuzz_against_enumeration():
    # random small grammars, then fixed edge cases: membership must agree
    # with brute-force enumeration
    rng = random.Random(99)

    def agrees(grammar, language):
        for w in language:
            assert cfg_membership(w, grammar), (grammar.rules, w)
        for _ in range(60):
            w = tuple(SMALL_ALPHABET[rng.randrange(4)]
                      for _ in range(rng.randint(0, 6)))
            assert cfg_membership(w, grammar) == (w in language), (
                grammar.rules, w)

    checked = 0
    while checked < 25:
        grammar = random_grammar(rng)
        if grammar is None:
            continue
        try:
            language = enumerate_language(grammar, 6, node_budget=60_000)
        except AssertionError:
            continue  # language too bushy to enumerate; skip this sample
        agrees(grammar, language)
        checked += 1
    for nts, rules in EDGE_GRAMMARS:
        grammar = CFGrammar(nts, "S", rules)
        language = enumerate_language(grammar, 6, node_budget=60_000)
        assert language
        agrees(grammar, language)


def test_yield_facts_against_enumeration():
    # from every nonterminal: nullable iff the empty word is enumerated,
    # productive iff some word is (when its shortest word is within the
    # bound), and the shortest word is an enumerated word of least length
    bound = 6

    def check(grammar, languages):
        for n, language in languages.items():
            assert (n in grammar._nullable) == (() in language), (grammar, n)
            if n not in grammar.productive:
                assert not language, (grammar, n)
                continue
            word = shortest_word(grammar, n)
            if len(word) > bound:
                assert not language, (grammar, n)
                continue
            assert word in language, (grammar, n)
            assert len(word) == min(map(len, language)), (grammar, n)

    def languages(grammar):
        return {n: enumerate_language(grammar, bound, node_budget=60_000,
                                      start=n)
                for n in grammar.nonterminals}

    rng = random.Random(17)
    checked = 0
    while checked < 60:
        grammar = random_grammar(rng)
        if grammar is None:
            continue
        try:
            found = languages(grammar)
        except AssertionError:
            continue  # language too bushy to enumerate; skip this sample
        check(grammar, found)
        checked += 1
    for nts, rules in EDGE_GRAMMARS:
        grammar = CFGrammar(nts, "S", rules)
        check(grammar, languages(grammar))


# ---------------------------------------------------------------------------
# inverse, union, star, closure


def test_invert_singleton():
    g = CFGrammar(("S",), "S", (("S", ("x1", "t")),))
    gi = cfg_invert(g)
    assert enumerate_language(gi, 4) == {("t^-1", "x1^-1")}


def test_invert_involution(bs2):
    g = subgroup_closure(orbit_spec(bs2, ("x1",), RANGE_INTEGERS)).grammar
    gii = cfg_invert(cfg_invert(g))
    for seed in range(30):
        w = sample_grammar(g, SamplePolicy(max_length=16, depth_cap=3, seed=seed))
        assert cfg_membership(w, gii)


def test_invert_evaluates_to_inverse(bs2):
    g = orbit_x1(bs2, RANGE_INTEGERS)
    gi = cfg_invert(g)
    for seed in range(30):
        w = sample_grammar(g, SamplePolicy(max_length=15, depth_cap=3, seed=seed))
        wi = word_inverse(w)
        assert cfg_membership(wi, gi)
        assert bs2.evaluate(wi) == bs2.evaluate(w).inverse()
        assert bs2.evaluate(wi).oracle() == bs2.evaluate(w).oracle().__class__(
            bs2, tuple(-e for e in bs2.evaluate(w).oracle().a), 0)


def test_union_and_star(bs2):
    g1 = orbit_x1(bs2)
    g2 = CFGrammar(("S",), "S", (("S", ("t",)),))
    gu = cfg_union(g1, g2)
    for seed in range(10):
        w = sample_grammar(g1, SamplePolicy(max_length=13, depth_cap=3, seed=seed))
        assert cfg_membership(w, gu)
    assert cfg_membership(("t",), gu)
    gs = cfg_star(g1)
    assert cfg_membership((), gs)
    w1 = sample_grammar(g1, SamplePolicy(max_length=13, seed=1))
    w2 = sample_grammar(g1, SamplePolicy(max_length=13, seed=2))
    assert cfg_membership(w1 + w2, gs)


def test_closure_contains_mixed_products(bs2):
    spec = orbit_spec(bs2, ("x1",), RANGE_NATURALS)
    closed = subgroup_closure(spec)
    w1 = sample_grammar(spec.grammar, SamplePolicy(max_length=13, seed=3))
    w2 = word_inverse(sample_grammar(spec.grammar, SamplePolicy(max_length=13, seed=4)))
    assert cfg_membership(w1 + w2, closed.grammar)


def test_closure_identity_sample(bs2):
    closed = subgroup_closure(orbit_spec(bs2, ("x1",), RANGE_INTEGERS))
    hits = [
        seed
        for seed in range(40)
        if closed.sample_element(
            SamplePolicy(max_length=16, depth_cap=3, seed=seed)).is_identity()
    ]
    assert hits, "no zero-factor derivation in 40 seeds"


def test_closure_samples_in_base_hull(bs2):
    closed = subgroup_closure(orbit_spec(bs2, ("x1",), RANGE_INTEGERS))
    for seed in range(60):
        g = closed.sample_element(
            SamplePolicy(max_length=18, depth_cap=3, seed=seed))
        assert g.oracle().d == 0


# ---------------------------------------------------------------------------
# t-balance certificate


def t_sum(word):
    return word.count("t") - word.count("t^-1")


@st.composite
def balance_grammar(draw):
    """A small grammar over t, t^-1, x1, x2 and up to three nonterminals.

    Each nonterminal gets a target balance; each rule is either left as
    drawn or padded with t / t^-1 so that its balance meets its lhs target.
    A grammar whose rules are all padded is consistent by construction.
    """
    nts = tuple(f"N{i}" for i in range(draw(st.integers(1, 3))))
    target = {n: draw(st.integers(-1, 1)) for n in nts}
    symbols = nts + ("t", "t^-1", "x1", "x1^-1", "x2")
    rules = []
    all_padded = True
    for _ in range(draw(st.integers(1, 6))):
        lhs = draw(st.sampled_from(nts))
        rhs = draw(st.lists(st.sampled_from(symbols), max_size=4))
        if draw(st.integers(0, 3)):  # pad three rules in four
            gap = target[lhs] - t_sum(rhs) - sum(target.get(s, 0) for s in rhs)
            rhs += ["t" if gap > 0 else "t^-1"] * abs(gap)
        else:
            all_padded = False
        rules.append((lhs, tuple(rhs)))
    try:
        grammar = CFGrammar(nts, "N0", tuple(rules))
    except GrammarError:
        assume(False)
    return grammar, all_padded, target["N0"]


@settings(max_examples=300, deadline=None)
@given(balance_grammar())
def test_t_balanced_certifies_sampled_words(data):
    grammar, all_padded, start_target = data
    if all_padded:
        assert grammar.t_balanced == (start_target == 0)
    if not grammar.t_balanced:
        return
    group = GroupParams(IntMatrix(((2, 1), (0, 3))))
    for seed in range(8):
        try:
            word = sample_grammar(
                grammar, SamplePolicy(max_length=24, depth_cap=3, seed=seed))
        except SampleBudgetError:
            continue
        assert t_sum(word) == 0
        g = group.evaluate(word)
        assert g.p == g.q


def test_t_balanced_closures(bs2):
    for krange in (RANGE_NATURALS, RANGE_INTEGERS):
        orbit = orbit_x1(bs2, krange)
        assert orbit.t_balanced
        assert subgroup_closure(SubsetSpec(orbit, bs2)).grammar.t_balanced
        assert cfg_invert(orbit).t_balanced
        assert cfg_star(orbit).t_balanced
        assert cfg_union(orbit, cfg_invert(orbit)).t_balanced
        skew = orbit_grammar(bs2, ("t", "x1"), krange)
        assert not skew.t_balanced
        assert not subgroup_closure(SubsetSpec(skew, bs2)).grammar.t_balanced
        assert not cfg_union(orbit, skew).t_balanced
    # consistent nonzero balances below a balanced start are certified
    nested = CFGrammar(("S", "A"), "S", (("S", ("A", "t^-1")),
                                         ("A", ("t", "x1")), ("A", ("x1", "t"))))
    assert nested.t_balanced
    # a nonterminal named like a token is still a nonterminal
    named_t = CFGrammar(("S", "t"), "S", (("S", ("t", "t^-1")), ("t", ("t^-1",))))
    assert not named_t.t_balanced


# ---------------------------------------------------------------------------
# orbit grammars


def test_orbit_naturals_examples(bs2):
    g = orbit_x1(bs2, RANGE_NATURALS)
    assert cfg_membership(("x1",), g)
    assert cfg_membership(("t^-1", "x1", "t"), g)
    assert not cfg_membership(("t", "x1", "t^-1"), g)


def test_orbit_integers_examples(bs2):
    g = orbit_x1(bs2, RANGE_INTEGERS)
    assert cfg_membership(("t", "x1", "t^-1"), g)
    assert cfg_membership(("t^-1", "x1", "t"), g)


def test_orbit_matches_conjugation(bs2):
    x = bs2.base((1,))
    for k in range(0, 6):
        w = ("t^-1",) * k + ("x1",) + ("t",) * k
        assert bs2.evaluate(w) == x.conj_t(k)
    for k in range(1, 6):
        w = ("t",) * k + ("x1",) + ("t^-1",) * k
        assert bs2.evaluate(w) == x.conj_t(-k)


def test_orbit_requires_nonempty_word(bs2):
    with pytest.raises(ValueError):
        orbit_grammar(bs2, (), RANGE_NATURALS)
    with pytest.raises(ValueError):
        orbit_grammar(bs2, ("x1",), "reals")


# ---------------------------------------------------------------------------
# shortest yields


def test_shortest_words(bs2):
    g = orbit_x1(bs2, RANGE_INTEGERS)
    assert shortest_word(g) == ("x1",)
    closed = subgroup_closure(orbit_spec(bs2, ("x1",), RANGE_INTEGERS))
    assert shortest_word(closed.grammar) == ()
    assert shortest_nonempty_word(closed.grammar) == ("x1",)
    only_empty = CFGrammar(("S",), "S", (("S", ()),))
    assert shortest_nonempty_word(only_empty) is None


# ---------------------------------------------------------------------------
# closures of finite generator sets: the finitely generated baseline


def finite_closure(group, gens):
    """(L u L^-1)* for the finite language L = gens: the generated subgroup."""
    grammar = CFGrammar(("S",), "S", tuple(("S", tuple(g)) for g in gens))
    return subgroup_closure(SubsetSpec(grammar, group))


def test_finite_closure_powers(bs2):
    closed = finite_closure(bs2, [("x1",)])
    for seed in range(20):
        w = closed.sample(SamplePolicy(max_length=10, depth_cap=2, seed=seed))
        assert all(tok in ("x1", "x1^-1") for tok in w)


def test_finite_closure_accepts_identity(bs2):
    closed = finite_closure(bs2, [("x1",)])
    assert cfg_membership((), closed.grammar)
    hits = [
        seed
        for seed in range(40)
        if closed.sample_element(
            SamplePolicy(max_length=8, depth_cap=2, seed=seed)).is_identity()
    ]
    assert hits


def test_finite_closure_samples_in_generated_subgroup(flat2):
    # abelian case: the subgroup generated by (2, 0) and (0, 3) is a lattice,
    # so the window-lattice membership oracle can certify every sample
    gens = [flat2.base((2, 0)).to_word(), flat2.base((0, 3)).to_word()]
    closed = finite_closure(flat2, gens)
    for seed in range(25):
        g = closed.sample_element(
            SamplePolicy(max_length=12, depth_cap=3, seed=seed))
        assert g.oracle().d == 0
        ok = any(
            lattice_member(flat2, tuple(a - b for a, b in zip(g.v, mult)),
                           (2, 0), 0).is_member
            for mult in [(0, 3 * k) for k in range(-4, 5)]
        )
        assert ok


def test_finite_closure_rejects_empty_gens(bs2):
    with pytest.raises(GrammarError):
        finite_closure(bs2, [])
    # an empty generator word generates the trivial subgroup only
    trivial = finite_closure(bs2, [()])
    assert shortest_nonempty_word(trivial.grammar) is None
