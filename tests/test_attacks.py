"""Attack harness: lattice certificates, greedy walks, beam descent, sweeps."""

import gc
import itertools
import random
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subsetkex import (
    AttackInstance,
    AttackPlan,
    AttackResult,
    CFGrammar,
    CommutationError,
    GridPoint,
    GroupParams,
    IntMatrix,
    MEMBER,
    NON_MEMBER_IN_WINDOW,
    OracleElement,
    PublicParams1,
    PublicParams2,
    SamplePolicy,
    SubsetSpec,
    UNKNOWN,
    build_p1_instance,
    cfg_membership,
    default_length,
    derivation_descent,
    lattice_member,
    orbit_spec,
    p1_round,
    p1_setup,
    p2_party_setup,
    rst_greedy,
    run_experiments,
    sample_grammar,
    shortest_word,
    subgroup_closure,
    subset_distance,
    verify_break,
)
from subsetkex import attacks, cli, grammars, protocols
from subsetkex.seeding import derive_seed
from subsetkex.serialize import MAX_WINDOW
from conftest import (
    FOLD_MATRICES,
    reference_contains,
    reference_derivation_descent,
    reference_rst_greedy,
    reference_window_lattice,
    sweep_random_point,
)


def brute_force_window_member(group, target, gen, window, coeff_bound=4):
    """Enumeration oracle for tiny windows: try all small coefficient mixes."""
    vecs = []
    for k in range(-window, window + 1):
        a = tuple(Fraction(e) for e in gen)
        vecs.append(group.rational_phi_power(a, k))
    target = tuple(Fraction(e) for e in target)
    rng = range(-coeff_bound, coeff_bound + 1)
    for coeffs in itertools.product(rng, repeat=len(vecs)):
        total = tuple(
            sum(c * v[i] for c, v in zip(coeffs, vecs))
            for i in range(group.m)
        )
        if total == target:
            return True
    return False


# ---------------------------------------------------------------------------
# lattice membership


def test_member_generator_power(upper2):
    v = upper2.phi_power((1, 0), 3)
    assert lattice_member(upper2, v, (1, 0), 3).value == MEMBER
    assert lattice_member(upper2, v, (1, 0), 5).value == MEMBER


def test_member_halving(bs2):
    oe = OracleElement(bs2, (Fraction(1, 2),), 0)
    assert lattice_member(bs2, oe, (1,), 1).value == MEMBER


def test_nonzero_t_component_is_non_member(bs2):
    oe = OracleElement(bs2, (Fraction(1),), 3)
    assert lattice_member(bs2, oe, (1,), 6).value == NON_MEMBER_IN_WINDOW


def test_fine_denominator_is_unknown(bs2):
    oe = OracleElement(bs2, (Fraction(1, 8),), 0)
    assert lattice_member(bs2, oe, (1,), 1).value == UNKNOWN
    assert lattice_member(bs2, oe, (1,), 3).value == MEMBER


def test_odd_vector_not_in_even_span():
    group = GroupParams(IntMatrix(((2,),)))
    # window 0 spans 2Z only; wider windows pull in 2 * 2^-k and flip this
    assert lattice_member(group, (3,), (2,), 0).value == NON_MEMBER_IN_WINDOW
    assert lattice_member(group, (3,), (2,), 1).value == MEMBER


def test_member_monotone_window(upper2):
    rng = random.Random(14)
    for _ in range(60):
        gen = tuple(rng.randint(-3, 3) for _ in range(2))
        if not any(gen):
            continue
        ks = [rng.randint(-2, 2) for _ in range(3)]
        cs = [rng.randint(-3, 3) for _ in range(3)]
        a = tuple(
            sum(
                c * e
                for c, e in zip(
                    cs,
                    [upper2.rational_phi_power(tuple(map(Fraction, gen)), k)[i]
                     for k in ks],
                )
            )
            for i in range(2)
        )
        oe = OracleElement(upper2, a, 0)
        base = lattice_member(upper2, oe, gen, 2)
        assert base.value == MEMBER
        assert lattice_member(upper2, oe, gen, 3).value == MEMBER


def test_member_agrees_with_enumeration(bs2, upper2):
    rng = random.Random(21)
    for group in (bs2, upper2):
        for _ in range(25):
            gen = tuple(rng.randint(-2, 2) for _ in range(group.m))
            if not any(gen):
                continue
            v = tuple(rng.randint(-6, 6) for _ in range(group.m))
            verdict = lattice_member(group, v, gen, 1)
            brute = brute_force_window_member(group, v, gen, 1)
            if verdict.value == MEMBER:
                assert brute or not brute_is_conclusive(gen)
            if brute:
                assert verdict.value == MEMBER


def brute_is_conclusive(gen):
    # the coefficient box can miss members needing large coefficients;
    # enumeration only certifies the positive direction
    return False


def test_negative_window_raises(bs2):
    for v in ((1,), bs2.base((1,)), OracleElement(bs2, (Fraction(1),), 0)):
        with pytest.raises(ValueError, match="window must be nonnegative"):
            lattice_member(bs2, v, (1,), -1)
        with pytest.raises(ValueError, match="window must be nonnegative"):
            subset_distance(bs2, v, (1,), -1)


def test_lattice_dimension_mismatch_raises(bs2, upper2):
    # the vector kernels do not check lengths; the public calls do
    for check in (lattice_member, subset_distance):
        with pytest.raises(ValueError, match="dimension mismatch"):
            check(upper2, bs2.base((4,)), (1, 0), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            check(upper2, (4, 0), (1, 0, 0), 0)


def verdict_queries(group, gen, rng, count):
    """Group elements at their own window and below it, each with d = 0 and
    with a nonzero d on the same (p, v); their oracle points and, where
    p = q = 0, their base vectors."""
    for _ in range(count):
        g = group.element(rng.randint(0, 3), tuple(
            rng.randint(-6, 6) * e for e in gen), rng.randint(0, 3))
        for elem in (g, group.element(g.p, g.v, g.p)):
            for window in (elem.p + elem.q + 8, max(elem.p - 1, 0)):
                yield elem, window
                yield elem.oracle(), window
                if elem.p == elem.q == 0:
                    yield elem.v, window


def test_verdict_table_matches_fresh_lattice(upper2):
    rng = random.Random(59)
    gen = (0, 1)
    queries = list(verdict_queries(upper2, gen, rng, 60))
    fresh = []
    for v, window in queries:
        attacks._window_lattice.cache_clear()
        fresh.append((lattice_member(upper2, v, gen, window),
                      subset_distance(upper2, v, gen, window)))
    for _ in range(2):  # the second pass reads what the first one kept
        warm = [(lattice_member(upper2, v, gen, window),
                 subset_distance(upper2, v, gen, window))
                for v, window in queries]
        assert warm == fresh
    assert {verdict.value for verdict, _ in fresh} == {
        MEMBER, NON_MEMBER_IN_WINDOW, UNKNOWN}
    # the three verdicts are shared values
    assert len({id(verdict) for verdict, _ in warm}) == 3
    # only group elements are kept, each under its (p, v)
    elements = {(v.p, v.v) for v, _ in queries if hasattr(v, "q")}
    kept = set()
    for v, window in queries:
        kept |= set(attacks._window_lattice(upper2.matrix, gen,
                                            window).verdicts)
    assert kept == elements


def test_verdict_table_raises_every_time(bs2, upper2):
    elem = upper2.element(1, (2, 3), 1)
    assert lattice_member(upper2, elem, (0, 1), 10).value  # a kept entry
    for _ in range(2):
        for check in (lattice_member, subset_distance):
            with pytest.raises(ValueError, match="window must be nonnegative"):
                check(upper2, elem, (0, 1), -1)
            with pytest.raises(ValueError, match="dimension mismatch"):
                check(upper2, bs2.base((4,)), (0, 1), 10)
            with pytest.raises(ValueError, match="dimension mismatch"):
                check(upper2, elem, (0, 1, 0), 10)


def lattice_queries(rng, lat, count=8):
    """Half random points, half lattice points moved by +-1 in one entry."""
    bound = max((abs(e) for row in lat.rows for e in row), default=1) * 2
    for i in range(count):
        if i % 2 == 0:
            yield [rng.randint(-bound, bound) for _ in range(lat.dim)]
            continue
        point = [0] * lat.dim
        for row in lat.rows:
            c = rng.randint(-3, 3)
            point = [e + c * f for e, f in zip(point, row)]
        point[rng.randrange(lat.dim)] += rng.choice((-1, 1))
        yield point


def test_window_lattice_echelon_guarantees():
    # echelon form and positive pivots in every dimension; the residual is
    # centred at every pivot and differs from the query by a lattice point;
    # every generator row a member
    rng = random.Random(8)
    cases = [(rows, (1,) + (0,) * (len(rows) - 1)) for rows in FOLD_MATRICES]
    cases += [(p.rows, p.u) for p in
              (sweep_random_point(rng, i) for i in range(150))]
    for rows, gen in cases:
        group = GroupParams(IntMatrix(rows))
        for window in (0, 1, 8):
            lat = attacks._window_lattice(group.matrix, gen, window)
            assert lat.pivots == sorted(set(lat.pivots))
            for row, j in zip(lat.rows, lat.pivots):
                assert not any(row[:j]) and row[j] > 0
            for z in lattice_queries(rng, lat, 4):
                r = lat.reduce_nearest(z)
                for row, j in zip(lat.rows, lat.pivots):
                    assert -row[j] <= 2 * r[j] < row[j]
                assert reference_contains(lat, [a - b for a, b in zip(z, r)])
            scale = group.det ** window
            for k in range(-window, window + 1):
                point = group.rational_phi_power(tuple(map(Fraction, gen)), k)
                scaled = [e * scale for e in point]
                assert all(e.denominator == 1 for e in scaled)
                assert reference_contains(lat, [e.numerator for e in scaled])


def test_window_lattice_matches_all_rows_reference():
    # at most m rows span the same lattice as all 2K+1: equal pivot columns,
    # equal pivot values and equal residuals, in both directions
    rng = random.Random(16)
    cases = [(rows, (1,) + (0,) * (len(rows) - 1)) for rows in FOLD_MATRICES]
    cases += [(p.rows, p.u) for p in
              (sweep_random_point(rng, i) for i in range(40))]
    cases += [(((2, 1), (1, 1)), (1, -1)),  # |det| = 1, entries grow
              (((2, 0), (0, 3)), (1, 0))]  # generator of rank 1
    windows = (0, 1, 2, 8, 12, MAX_WINDOW)
    rank_seen = set()
    for rows, gen in cases:
        matrix = IntMatrix(rows)
        for window in windows:
            lat = attacks._window_lattice(matrix, gen, window)
            ref = reference_window_lattice(matrix, gen, window)
            assert len(lat.rows) <= matrix.dim
            assert lat.pivots == ref.pivots
            assert ([row[j] for row, j in zip(lat.rows, lat.pivots)]
                    == [row[j] for row, j in zip(ref.rows, ref.pivots)])
            for z in lattice_queries(rng, ref):
                assert lat.reduce_nearest(z) == ref.reduce_nearest(z)
            rank_seen.add((matrix.dim, len(lat.rows)))
    assert {(2, 1), (3, 1), (3, 3)} <= rank_seen


def test_distance_zero_on_members(bs2):
    v = bs2.phi_power((1,), 2)
    assert subset_distance(bs2, v, (1,), 2) == 0
    off = OracleElement(bs2, (Fraction(1),), 2)
    assert subset_distance(bs2, off, (1,), 2) >= 1 << 20


@st.composite
def membership_case(draw):
    """A group element, an orbit generator and a window around its p.

    Half the elements are products of conjugates t^-k gen t^k (members once
    the window covers every |k|), half are arbitrary triples.
    """
    group = GroupParams(IntMatrix(draw(st.sampled_from(FOLD_MATRICES))))
    gen = tuple(draw(st.integers(-2, 2)) for _ in range(group.m))
    if not any(gen):
        gen = (1,) + gen[1:]
    if draw(st.booleans()):
        elem = group.identity()
        for _ in range(draw(st.integers(1, 3))):
            conj = group.base(gen).conj_t(draw(st.integers(-3, 2)))
            elem = elem * (conj if draw(st.booleans()) else conj.inverse())
    else:
        elem = group.element(
            draw(st.integers(0, 4)),
            tuple(draw(st.integers(-9, 9)) for _ in range(group.m)),
            draw(st.integers(0, 4)))
    window = max(0, elem.p + draw(st.integers(-2, 2)))
    return group, elem, gen, window


def test_integer_membership_matches_oracle():
    seen = set()
    referenced = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(membership_case())
    def check(case):
        group, elem, gen, window = case
        verdict = lattice_member(group, elem, gen, window)
        assert verdict == lattice_member(group, elem.oracle(), gen, window)
        dist = subset_distance(group, elem, gen, window)
        assert dist == subset_distance(group, elem.oracle(), gen, window)
        # rst_greedy certifies only distance-0 candidates
        assert verdict.is_member == (dist == 0)
        # a zero residual is membership: check it against divisibility
        # descent wherever the oracle point scales to an integral z, d = 0
        point = elem.oracle()
        scaled = [f * group.det ** window for f in point.a]
        if point.d == 0 and all(f.denominator == 1 for f in scaled):
            lat = attacks._window_lattice(group.matrix, gen, window)
            member = reference_contains(lat, [f.numerator for f in scaled])
            assert verdict.is_member == member
            referenced.add(member)
        if elem.p == elem.q == 0:
            assert verdict == lattice_member(group, elem.v, gen, window)
        seen.add((verdict.value, (window > elem.p) - (window < elem.p)))

    check()
    assert {value for value, _ in seen} == {MEMBER, NON_MEMBER_IN_WINDOW, UNKNOWN}
    assert {side for _, side in seen} == {-1, 0, 1}
    assert referenced == {True, False}


# ---------------------------------------------------------------------------
# instance plumbing


def abelian_instance(seed, max_length=4, gens_window=0):
    point = GridPoint(
        grid_id="abelian",
        rows=((1, 0), (0, 1)),
        u=(1, 0), v=(0, 1), w=(1, (1, 1), 0),
        max_length=max_length, gens_window=gens_window,
    )
    return build_p1_instance(point, seed)


def test_build_p1_instance_cold_or_warm(monkeypatch):
    monkeypatch.setattr(protocols, "_closure_grammars", {})

    def point():
        return GridPoint(grid_id="m2-upper", rows=((2, 1), (0, 3)), u=(1, 0),
                         v=(0, 1), w=(1, (1, -1), 1), max_length=12)

    shared = point()
    cold = build_p1_instance(shared, 4)
    warm = build_p1_instance(shared, 4)
    assert warm == cold == build_p1_instance(point(), 4)
    assert cold.target != cold.pub.w  # the secrets are not the identity
    assert warm.plan is cold.plan is shared.plan  # built once per point
    assert cold.pub.group is shared.group
    assert build_p1_instance(shared, 0) != cold  # the draws are per trial
    # the walk and the head table are built by the first search that reads
    # them, then kept for the point's later trials
    plan = shared.plan
    kept = []
    for trial in (0, 9):
        searched = rst_greedy(build_p1_instance(shared, trial), max_iter=8)
        assert searched.iterations > 0  # the walk was read
        derivation_descent(build_p1_instance(shared, trial), max_nodes=16)
        kept.append((plan.walk, plan.heads))
    assert all(now is then for now, then in zip(*kept))
    # the descent's first word, the grammar's shortest, is in the table
    word = shortest_word(plan.pub.spec_a.grammar)
    a, head = plan.heads[word]
    assert a == shared.group.evaluate(word)
    assert head == plan.w_inverse * a.inverse()


def full_round_instance(point, seed):
    """The instance assembled from scratch out of a whole p1 round."""
    group = GroupParams(IntMatrix(point.rows))
    pub = p1_setup(group, point.u, point.v, group.element(*point.w),
                   point.krange)

    def policy(party):
        return SamplePolicy(max_length=point.max_length,
                            depth_cap=point.depth_cap,
                            seed=derive_seed(seed, party))

    _, msg_a, _, _ = p1_round(pub, policy("alice"), policy("bob"))
    u_word = group.base(point.u).to_word()
    gens = tuple(group.evaluate(("t^-1",) * k + u_word + ("t",) * k)
                 if k >= 0 else
                 group.evaluate(("t",) * -k + u_word + ("t^-1",) * -k)
                 for k in range(-point.gens_window, point.gens_window + 1))
    return AttackInstance(AttackPlan(pub, gens, point.v), msg_a)


def test_build_p1_instance_is_alices_round_message():
    rng = random.Random(9)
    points = list(cli._default_grid())
    points += [sweep_random_point(rng, i) for i in range(8)]
    for point in points:
        for trial in range(4):
            seed = derive_seed(23, point.grid_id, trial)
            expect = full_round_instance(point, seed)
            got = build_p1_instance(point, seed)
            assert got.target == expect.target, point
            assert got == expect, point


def test_build_p1_instance_draws_two_secrets(monkeypatch):
    draws = []
    sample_element = SubsetSpec.sample_element

    def counting(spec, policy):
        draws.append(policy.seed)
        return sample_element(spec, policy)

    monkeypatch.setattr(SubsetSpec, "sample_element", counting)
    for point in cli._default_grid():
        for seed in (7, 8):  # the first build also builds the shared data
            draws.clear()
            build_p1_instance(point, seed)
            alice = derive_seed(seed, "alice")
            assert draws == [derive_seed(alice, "p1.a1"),
                             derive_seed(alice, "p1.b1")]


def test_sample_element_table_matches_evaluate(monkeypatch):
    rng = random.Random(61)
    points = list(cli._default_grid())
    points += [sweep_random_point(rng, i) for i in range(40)]
    evaluated = []
    real_evaluate = GroupParams.evaluate

    def evaluate(group, word):
        evaluated.append(tuple(word))
        return real_evaluate(group, word)

    monkeypatch.setattr(GroupParams, "evaluate", evaluate)
    hits = 0
    for n, point in enumerate(points):
        pub = point.plan.pub
        for spec in (pub.spec_a, pub.spec_b):
            spec = SubsetSpec(spec.grammar, spec.group)  # a cold table
            for trial in range(6):
                policy = point.policy.with_seed(derive_seed(67, n, trial))
                word = sample_grammar(spec.grammar, policy)
                expect = real_evaluate(spec.group, word)
                kept = word in spec._elements
                evaluated.clear()
                cold = spec.sample_element(policy)
                assert evaluated == ([] if kept else [word])
                evaluated.clear()
                warm = spec.sample_element(policy)
                assert evaluated == []  # a kept word is not evaluated again
                assert cold == warm == spec._elements[word] == expect
                hits += kept
    assert hits > 100


def test_value_tables_stop_at_bound(monkeypatch, upper2):
    for module in (grammars, attacks):
        monkeypatch.setattr(module, "VALUE_TABLE_BOUND", 3)
    closure = subgroup_closure(orbit_spec(upper2, ("x1",), "integers"))
    words = set()
    for seed in range(40):
        policy = SamplePolicy(max_length=12, depth_cap=3, seed=seed)
        words.add(sample_grammar(closure.grammar, policy))
        assert closure.sample_element(policy) == upper2.evaluate(
            sample_grammar(closure.grammar, policy))
        assert len(closure._elements) <= 3
    assert len(words) > 3 and len(closure._elements) == 3
    gen, window = (0, 1), 12
    lat = attacks._window_lattice(upper2.matrix, gen, window)
    lat.verdicts.clear()
    for k in range(10):
        v = upper2.element(1, (k, 1), 1)
        expect = subset_distance(upper2, v.oracle(), gen, window)
        assert subset_distance(upper2, v, gen, window) == expect
        assert len(lat.verdicts) <= 3
    assert len(lat.verdicts) == 3


def test_uncertified_pair_refused(monkeypatch):
    monkeypatch.setattr(protocols, "_closure_grammars", {})
    monkeypatch.setattr(CFGrammar, "t_balanced", False)
    checks = []
    monkeypatch.setattr(protocols, "commutation_spot_check",
                        lambda *args, **kwargs: checks.append(args))
    point = GridPoint(grid_id="m2-upper", rows=((2, 1), (0, 3)), u=(1, 0),
                      v=(0, 1), w=(1, (1, -1), 1), max_length=12)
    for seed in (3, 4):
        with pytest.raises(CommutationError):
            build_p1_instance(point, seed)
    pub = PublicParams2(point.group, point.group.identity())
    with pytest.raises(CommutationError):
        p2_party_setup(pub, (1, 0), SamplePolicy(seed=5))
    assert checks == []  # refused outright, nothing sampled


def test_published_generators_in_grammars():
    # the attacks read u and v as published; each is a word of its grammar
    rng = random.Random(12)
    points = list(cli._default_grid())
    points += [sweep_random_point(rng, i) for i in range(12)]
    ranges = ("integers", "naturals")
    for point, krange in itertools.product(points, ranges):
        point = replace(point, krange=krange)
        inst = build_p1_instance(point, derive_seed(31, point.grid_id))
        group, pub = point.group, inst.pub
        plan = inst.plan
        assert plan.gen_b == point.v and plan.gens_a == point.plan.gens_a, point
        assert cfg_membership(group.base(point.u).to_word(),
                              pub.spec_a.grammar), point
        assert cfg_membership(group.base(plan.gen_b).to_word(),
                              pub.spec_b.grammar), point


# ---------------------------------------------------------------------------
# greedy attack


def brute_force_decomposition(pub, target, u_vec, v_vec, bound=8):
    """Independent solver for abelian instances: scan a w b = target directly."""
    group = pub.group
    for s in range(-bound, bound + 1):
        a = group.base(tuple(s * e for e in u_vec))
        b = a.inverse() * pub.w.inverse() * target
        if b.p == 0 and b.q == 0:
            # b must be an integer multiple of v
            for r in range(-4 * bound, 4 * bound + 1):
                if b.v == tuple(r * e for e in v_vec):
                    return a, b
    return None


def test_rst_succeeds_on_abelian_and_matches_brute_force():
    for seed in range(30):
        inst = abelian_instance(derive_seed(77, seed))
        result = rst_greedy(inst, max_iter=16)
        assert result.success
        a, b = result.recovered
        assert a * inst.pub.w * b == inst.target
        assert brute_force_decomposition(
            inst.pub, inst.target, (1, 0), (0, 1)) is not None


def test_rst_iteration_budget_vs_secret_length(flat2):
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    for seed in range(20):
        policy = SamplePolicy(max_length=4, depth_cap=2, seed=seed)
        alice, msg_a, _, _ = p1_round(pub, policy,
                                      SamplePolicy(max_length=4, depth_cap=2,
                                                   seed=10_000 + seed))
        inst = AttackInstance(AttackPlan(pub, (flat2.base((1, 0)),), (0, 1)), msg_a)
        result = rst_greedy(inst, max_iter=16)
        assert result.success
        assert result.iterations <= default_length(alice.a) + 1


def test_rst_trivial_target_iteration_zero(flat2):
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    inst = AttackInstance(AttackPlan(pub, (flat2.base((1, 0)),), (0, 1)), w)
    result = rst_greedy(inst, max_iter=16)
    assert result.success and result.iterations == 0
    assert result.recovered[0].is_identity()


def test_rst_max_iter_zero_no_false_success(flat2):
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    # target needs two generator steps, so the iteration-0 check must fail
    target = flat2.base((2, 0)) * w
    inst = AttackInstance(AttackPlan(pub, (flat2.base((1, 0)),), (0, 1)),
                          target)
    result = rst_greedy(inst, max_iter=0)
    assert not result.success
    assert result.recovered is None and result.iterations == 0


def test_rst_one_generator_factor_per_iteration(flat2):
    # the walk moves by exactly one generator per iteration, so a target
    # needing s steps is found at iteration s, never earlier or later
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    for s in (1, 2, 3):
        target = flat2.base((s, 0)) * w * flat2.base((0, 2))
        inst = AttackInstance(AttackPlan(pub, (flat2.base((1, 0)),), (0, 1)),
                              target)
        result = rst_greedy(inst, max_iter=10)
        assert result.success and result.iterations == s
        assert result.recovered[0] == flat2.base((s, 0))


def test_rst_matches_three_product_reference():
    # the reference walks its whole budget, where rst_greedy stops at the
    # first repeated state; among these walks, two take a different path if
    # ties break toward the highest generator index instead of the lowest
    rng = random.Random(5)
    cases = [(point, derive_seed(17, point.grid_id, trial))
             for point in cli._default_grid() for trial in range(150)]
    cases += [(sweep_random_point(rng, i), derive_seed(18, i))
              for i in range(500)]
    outcomes = []
    for point, seed in cases:
        inst = build_p1_instance(point, seed)
        result = rst_greedy(inst, max_iter=point.max_iter, window=point.window)
        expect = reference_rst_greedy(inst, point.max_iter, point.window)
        got = (result.success, result.iterations, result.best_score,
               result.recovered)
        assert got == expect, (point, seed)
        outcomes.append((result.success, result.iterations == point.max_iter))
    assert (True, False) in outcomes
    # failing runs, which report the whole budget
    assert outcomes.count((False, True)) >= 20


def test_single_residual_certificate_agrees():
    # rst_greedy certifies a scored candidate from its distance alone; that
    # must agree with lattice_member and with membership decided apart from
    # the Babai residual (divisibility descent over the same window
    # lattice), each joined with verify_break
    rng = random.Random(23)
    points = list(cli._default_grid())
    points += [sweep_random_point(rng, i) for i in range(40)]
    seen = set()
    for n, point in enumerate(points):
        plan, group, gen = point.plan, point.group, point.v
        pub = plan.pub
        for trial in range(6):
            policy = SamplePolicy(max_length=point.max_length,
                                  seed=derive_seed(29, n, trial))
            a = pub.spec_a.sample_element(policy.with_seed(policy.seed + 1))
            b = pub.spec_b.sample_element(policy)
            target = a * pub.w * b
            step = rng.choice(plan.gens_a)
            shifted = a * (step if rng.random() < 0.5 else step.inverse())
            x = group.element(
                rng.choice((0, 1)),
                tuple(rng.randint(-2, 2) for _ in range(group.m)),
                rng.choice((0, 1)))
            for a_cand, b_cand in ((a, b), (a, b * x),
                                   (shifted, plan.w_inverse * shifted.inverse()
                                    * target)):
                win = attacks._membership_window(b_cand, point.window)
                d, z = attacks._scaled_point(group, b_cand, win)
                lattice = attacks._window_lattice(group.matrix, gen, win)
                member = (d == 0 and z is not None
                          and reference_contains(lattice, z))
                breaks = member and verify_break(
                    pub, target, target, a_cand, b_cand, a_cand, b_cand)
                distance = subset_distance(group, b_cand, gen, win)
                assert (distance == 0 and verify_break(
                    pub, target, target, a_cand, b_cand, a_cand,
                    b_cand)) == breaks
                verdict = lattice_member(group, b_cand, gen, win)
                assert verdict.is_member == member
                seen.add((member, breaks, any(z or ())))
    # genuine breaks with nonzero points, members that do not break, and
    # non-members all occur
    assert {(True, True, True), (True, False, True),
            (False, False, True)} <= seen


def test_dropped_points_pin_no_group():
    # the per-point caches live on the point and its plan, and the module
    # caches are keyed on matrices and words, so a dropped point frees its
    # group and its public data
    rng = random.Random(47)
    refs = []
    for i in range(20):
        point = sweep_random_point(rng, i)
        run_experiments([point], 2, i)  # rst and descent, two trials each
        refs += [weakref.ref(point.group), weakref.ref(point.plan.pub)]
    del point
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []


def test_rst_stuck_walk_stops_early(monkeypatch):
    calls = []
    real = attacks.subset_distance

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(attacks, "subset_distance", counting)
    point = next(p for p in cli._default_grid() if p.grid_id == "m2-upper")
    budget = point.max_iter * 2 * (2 * point.gens_window + 1)
    failed = 0
    for trial in range(60):
        calls.clear()
        result = rst_greedy(build_p1_instance(point, derive_seed(43, trial)),
                            max_iter=point.max_iter, window=point.window)
        if not result.success:
            failed += 1
            assert result.iterations == point.max_iter
            assert len(calls) <= budget // 8, trial
    assert failed >= 3


def test_success_requires_recovered_pair():
    # a plain assert would vanish under python -O
    with pytest.raises(ValueError, match="recovered pair"):
        AttackResult(success=True, recovered=None, iterations=0, best_score=0)
    assert AttackResult(False, None, 3, 7).recovered is None


def test_rst_requires_generator_mode(flat2):
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    with pytest.raises(ValueError):
        rst_greedy(AttackInstance(AttackPlan(pub, None, (0, 1)), w))


def test_rst_deterministic(flat2):
    for seed in (3, 9):
        r1 = rst_greedy(abelian_instance(seed), max_iter=12)
        r2 = rst_greedy(abelian_instance(seed), max_iter=12)
        assert r1 == r2


# ---------------------------------------------------------------------------
# derivation descent


def test_descent_trivial_target(flat2):
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    inst = AttackInstance(AttackPlan(pub, None, (0, 1)), w)
    result = derivation_descent(inst, beam=4, max_nodes=64, max_len=8)
    assert result.success and result.iterations == 0
    assert result.recovered[0].is_identity()


def test_descent_depth_one_found_with_wide_beam(upper2):
    # left grammar with three terminal rules; one of them is the secret
    grammar = CFGrammar(
        ("S",),
        "S",
        (
            ("S", ("x1",)),
            ("S", ("t^-1", "x1", "t")),
            ("S", ("x1", "x1")),
        ),
    )
    spec_a = SubsetSpec(grammar, upper2)
    spec_b = subgroup_closure(orbit_spec(upper2, ("x2",), "integers"))
    w = upper2.element(1, (1, -1), 1)
    from subsetkex import PublicParams1

    pub = PublicParams1(upper2, w, spec_a, spec_b)
    a1 = upper2.evaluate(("t^-1", "x1", "t"))
    b1 = upper2.base((0, 2)).conj_t(1)
    target = a1 * w * b1
    result = derivation_descent(
        AttackInstance(AttackPlan(pub, None, (0, 1)), target), beam=3,
        max_nodes=64, max_len=8)
    assert result.success
    a, b = result.recovered
    assert a * w * b == target


def test_descent_beam_comparison_runs(flat2):
    # experiment output only: success rates are reported, not asserted
    rates = {}
    for beam in (1, 8):
        wins = 0
        for seed in range(10):
            inst = abelian_instance(derive_seed(5, seed), max_length=6)
            r = derivation_descent(inst, beam=beam, max_nodes=220, max_len=8)
            wins += r.success
        rates[beam] = wins
    assert set(rates) == {1, 8}
    r1 = derivation_descent(abelian_instance(derive_seed(5, 0), max_length=6),
                            beam=8, max_nodes=220, max_len=8)
    r2 = derivation_descent(abelian_instance(derive_seed(5, 0), max_length=6),
                            beam=8, max_nodes=220, max_len=8)
    assert r1 == r2


def descent_outcome(result):
    return (result.success, result.iterations, result.best_score,
            result.recovered)


def m2_upper():
    return next(p for p in cli._default_grid() if p.grid_id == "m2-upper")


def test_descent_matches_reference_search():
    # the reference evaluates and certifies every child; the descent
    # assesses each completed word once per search and keeps heads per plan
    rng = random.Random(31)
    points = list(cli._default_grid())
    points += [sweep_random_point(rng, i) for i in range(30)]
    seen = set()
    repeats = 0
    for n, point in enumerate(points):
        for trial in range(4):
            inst = build_p1_instance(point, derive_seed(37, n, trial))
            for window, max_nodes in ((None, point.max_nodes), (6, 200),
                                      (None, 12)):
                words = []
                expect = reference_derivation_descent(
                    inst, point.beam, max_nodes, point.max_length, window,
                    words)
                result = derivation_descent(
                    inst, beam=point.beam, max_nodes=max_nodes,
                    max_len=point.max_length, window=window)
                assert descent_outcome(result) == expect, (point, trial)
                repeats += len(words) - len(set(words))
                seen.add((result.success, result.iterations > 0))
    # breaks at the root and after expanding, and failed searches
    assert {(True, False), (True, True), (False, True)} <= seen
    assert repeats > 500


def test_descent_tests_each_word_once_and_keeps_heads(monkeypatch):
    events = []
    real_member, real_evaluate = attacks.lattice_member, GroupParams.evaluate

    def member(*args):
        verdict = real_member(*args)
        events.append(("member", verdict.is_member))
        return verdict

    def evaluate(group, word):
        events.append(("evaluate", tuple(word)))
        return real_evaluate(group, word)

    monkeypatch.setattr(attacks, "lattice_member", member)
    monkeypatch.setattr(GroupParams, "evaluate", evaluate)
    point = m2_upper()
    kept_hits = members = 0
    for trial in range(20):
        inst = build_p1_instance(point, derive_seed(41, trial))
        words = []
        expect = reference_derivation_descent(
            inst, point.beam, point.max_nodes, point.max_length, None, words)
        kept = set(point.plan.heads)
        events.clear()
        result = derivation_descent(inst, beam=point.beam,
                                    max_nodes=point.max_nodes,
                                    max_len=point.max_length)
        assert descent_outcome(result) == expect
        # one lattice test per distinct completed word of the search
        tests = sum(kind == "member" for kind, _ in events)
        assert tests == len(set(words))
        # a kept word is never evaluated again
        evaluated = {value for kind, value in events if kind == "evaluate"}
        assert not kept & evaluated, trial
        members += events.count(("member", True))
        kept_hits += len(kept & set(words))
    assert kept_hits > 20 and members > 0


def test_head_table_bound(monkeypatch):
    monkeypatch.setattr(attacks, "HEAD_TABLE_BOUND", 4)
    point = m2_upper()
    for trial in range(6):
        inst = build_p1_instance(point, derive_seed(43, trial))
        result = derivation_descent(inst, beam=point.beam,
                                    max_nodes=point.max_nodes,
                                    max_len=point.max_length)
        assert descent_outcome(result) == reference_derivation_descent(
            inst, point.beam, point.max_nodes, point.max_length)
        assert len(point.plan.heads) <= 4
    assert len(point.plan.heads) == 4


# ---------------------------------------------------------------------------
# break verification


def test_verify_break_genuine(upper2, monkeypatch):
    w = upper2.element(1, (1, -1), 1)
    pub = p1_setup(upper2, (1, 0), (0, 1), w)
    pol = SamplePolicy(max_length=12, depth_cap=3, seed=31)
    alice, msg_a, bob, msg_b = p1_round(
        pub, pol, SamplePolicy(max_length=12, depth_cap=3, seed=32))

    def no_sampling(spec, policy):
        raise AssertionError("certified commutation must not sample")

    # hull factors against t-balanced subsets are certified without samples
    monkeypatch.setattr(SubsetSpec, "sample_element", no_sampling)
    assert verify_break(pub, msg_a, msg_b, alice.a, alice.b, bob.b, bob.a)


def test_verify_break_rejects_wrong_second_crack(upper2):
    w = upper2.element(1, (1, -1), 1)
    pub = p1_setup(upper2, (1, 0), (0, 1), w)
    alice, msg_a, bob, msg_b = p1_round(
        pub, SamplePolicy(max_length=12, depth_cap=3, seed=31),
        SamplePolicy(max_length=12, depth_cap=3, seed=32))
    assert verify_break(pub, msg_a, msg_b, alice.a, alice.b, bob.b, bob.a)
    # the first crack is right; only the second equation can reject
    wrong = bob.a * upper2.generator(1)
    assert not verify_break(pub, msg_a, msg_b, alice.a, alice.b, bob.b, wrong)
    assert msg_a != msg_b
    assert not verify_break(pub, msg_a, msg_a, alice.a, alice.b, bob.b, bob.a)


def test_verify_break_rejects_junk(upper2):
    w = upper2.element(1, (1, -1), 1)
    pub = p1_setup(upper2, (1, 0), (0, 1), w)
    target = upper2.base((5, 5)) * w
    junk = upper2.base((1, 2))
    assert not verify_break(pub, target, target, junk, junk, junk, junk)


def test_verify_break_wrong_commutator(upper2):
    # equation holds but the left factor t is outside the base hull, so its
    # commutation with the right subset is not certified
    w = upper2.identity()
    pub = p1_setup(upper2, (1, 0), (0, 1), w)
    t = upper2.stable_power(1)
    a, b = t, t.inverse()
    assert a * w * b == w
    assert not verify_break(pub, w, w, a, b, a, b)


def test_verify_break_samples_uncertified_half(upper2):
    # a lies in the base hull, but the right subset <t> is not t-balanced
    # (and does not commute with a): without the certificate it is no break
    w = upper2.element(1, (1, -1), 1)
    left = subgroup_closure(orbit_spec(upper2, ("x1",), "integers"))
    right = subgroup_closure(orbit_spec(upper2, ("t",), "integers"))
    assert left.grammar.t_balanced and not right.grammar.t_balanced
    pub = PublicParams1(upper2, w, left, right)
    a, b = upper2.base((1, 0)), upper2.base((0, 1))
    target = a * w * b
    assert not verify_break(pub, target, target, a, b, a, b)
    # with the subsets swapped the right factor's half is the uncertified one
    swapped = PublicParams1(upper2, w, right, left)
    target = b * w * a
    assert not verify_break(swapped, target, target, b, a, b, a)


def test_verify_break_central_shift(flat2):
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    a1, b1 = flat2.base((2, 0)), flat2.base((0, 3))
    target = a1 * w * b1
    z = flat2.identity()
    assert verify_break(pub, target, target, a1 * z, z.inverse() * b1,
                        a1, b1)


# ---------------------------------------------------------------------------
# experiment runner


def small_grid():
    return [
        GridPoint(
            grid_id="abelian",
            rows=((1, 0), (0, 1)),
            u=(1, 0), v=(0, 1), w=(1, (1, 1), 0),
            max_length=4, max_iter=16, beam=4, max_nodes=64, gens_window=0,
        )
    ]


def test_sweep_empty_table():
    csv_text = run_experiments(small_grid(), 0, 0)
    assert csv_text == "grid_id,mode,trials,successes,mean_iters,mean_ms\n"


def test_sweep_byte_identical():
    grid = small_grid()
    a = run_experiments(grid, 4, 123)
    b = run_experiments(grid, 4, 123)  # the points' groups are warm now
    assert a == b == run_experiments(small_grid(), 4, 123)
    assert a.startswith("grid_id,mode,")
    # one record per trial, in sweep order, each summed into its CSV row;
    # passing ``record`` changes no CSV byte
    rng = random.Random(31)
    grid = cli._default_grid() + tuple(sweep_random_point(rng, i)
                                       for i in range(3))
    records = []
    csv_text = run_experiments(grid, 3, 31, record=records.append)
    assert csv_text == run_experiments(grid, 3, 31)
    rows = csv_text.splitlines()[1:]
    assert len(rows) == 2 * len(grid) and len(records) == 3 * len(rows)
    for n, row in enumerate(rows):
        point, mode = grid[n // 2], ("rst", "descent")[n % 2]
        mine = records[3 * n:3 * n + 3]
        assert [(r["grid_id"], r["mode"], r["trial"]) for r in mine] == [
            (point.grid_id, mode, trial) for trial in range(3)]
        successes = sum(r["success"] for r in mine)
        mean_iters = sum(r["iterations"] for r in mine) / 3
        assert row == (f"{point.grid_id},{mode},3,{successes},"
                       f"{mean_iters:.3f},0.000")
        assert all(r["elapsed_ms"] == 0.0 and type(r["best_score"]) is str
                   for r in mine)


def test_sweep_bytes_cold_and_warm(monkeypatch):
    # the element and verdict tables change no byte: a sweep on fresh
    # points and lattices, the same sweep on its warm tables, and a sweep
    # that keeps no table entry print the same CSV
    attacks._window_lattice.cache_clear()
    grid = cli._default_grid()
    cold = run_experiments(grid, 12, 29)
    assert all(point.plan.pub.spec_a._elements for point in grid)
    assert run_experiments(grid, 12, 29) == cold
    for module in (grammars, attacks):
        monkeypatch.setattr(module, "VALUE_TABLE_BOUND", 0)
    attacks._window_lattice.cache_clear()
    assert run_experiments(cli._default_grid(), 12, 29) == cold


def test_sweep_abelian_full_success_and_no_false_positives():
    records = []
    csv_text = run_experiments(small_grid(), 8, 9, record=records.append)
    rst_row = [ln for ln in csv_text.splitlines() if ln.startswith("abelian,rst")]
    assert rst_row and rst_row[0].split(",")[3] == "8"
    for rec in records:
        if rec["success"]:
            inst = build_p1_instance(
                small_grid()[0],
                derive_seed(9, "sweep", "abelian", rec["mode"], rec["trial"]))
            mode = rec["mode"]
            result = (
                rst_greedy(inst, max_iter=16)
                if mode == "rst"
                else derivation_descent(inst, beam=4, max_nodes=64, max_len=4)
            )
            a, b = result.recovered
            assert a * inst.pub.w * b == inst.target
            assert verify_break(inst.pub, inst.target, inst.target, a, b, a, b)
