"""Protocol flows: setup invariants, key agreement, determinism."""

import random

import pytest

from subsetkex import (
    GroupParams,
    IntMatrix,
    PartySecret1,
    PublicParams1,
    PublicParams2,
    CommutationError,
    SamplePolicy,
    commutation_spot_check,
    orbit_dh,
    orbit_spec,
    p1_keys,
    p1_round,
    p1_setup,
    p2_exchange,
    p2_exchange_full,
    p2_party_setup,
    subgroup_closure,
)
from subsetkex import protocols


def oracle_base_sum(*elems):
    acc = None
    for e in elems:
        o = e.oracle()
        assert o.d == 0 or True
        acc = o if acc is None else acc * o
    return acc


def pol(seed, max_length=14, depth_cap=3):
    return SamplePolicy(max_length=max_length, depth_cap=depth_cap, seed=seed)


# ---------------------------------------------------------------------------
# p1


def test_p1_setup_abelian_single_orbit(bs2):
    pub = p1_setup(bs2, (1,), (1,), bs2.element(1, (1,), 1))
    assert pub.spec_a.grammar.start == pub.spec_b.grammar.start


def test_p1_setup_cross_pairs_commute(upper2):
    pub = p1_setup(upper2, (1, 0), (0, 1), upper2.element(1, (1, -1), 1))
    commutation_spot_check(pub.spec_a, pub.spec_b, trials=32, seed=5)


def test_p1_setup_samples_uncertified_specs(upper2, monkeypatch):
    # orbits of t x_i are not t-balanced (and their closures do not
    # commute), so p1_setup refuses them
    def skewed_closure(group, u, krange):
        word = ("t",) + group.base(u).to_word()
        return subgroup_closure(orbit_spec(group, word, krange))

    monkeypatch.setattr(protocols, "_closure_of_orbit", skewed_closure)
    with pytest.raises(CommutationError):
        p1_setup(upper2, (1, 0), (0, 1), upper2.identity())


def test_closure_grammar_shared_per_orbit_word(upper2, monkeypatch):
    memo: dict = {}
    monkeypatch.setattr(protocols, "_closure_grammars", memo)
    spec = protocols._closure_of_orbit(upper2, (1, 0), "integers")
    assert spec.group is upper2
    assert spec == subgroup_closure(orbit_spec(upper2, ("x1",), "integers"))
    # the grammar depends on the word, not the matrix
    flat = GroupParams(IntMatrix(((1, 0), (0, 1))))
    again = protocols._closure_of_orbit(flat, (1, 0), "integers")
    assert again.group is flat
    assert again.grammar is spec.grammar
    assert len(memo) == 1
    for _ in range(2):  # a failing build is not kept
        with pytest.raises(ValueError):
            protocols._closure_of_orbit(upper2, (0, 0), "integers")
    assert len(memo) == 1


def test_closure_memo_stays_bounded(upper2, monkeypatch):
    memo: dict = {}
    monkeypatch.setattr(protocols, "_closure_grammars", memo)
    bound = protocols.CLOSURE_MEMO_BOUND
    vectors = [(i, j) for i in range(-9, 10) for j in range(-9, 10) if i or j]
    assert len(vectors) > bound + 8
    first = protocols._closure_of_orbit(upper2, vectors[0], "naturals").grammar
    for u in vectors[1:]:
        protocols._closure_of_orbit(upper2, vectors[0], "naturals")  # keep it hot
        protocols._closure_of_orbit(upper2, u, "naturals")
        assert len(memo) <= bound
    assert len(memo) == bound
    assert protocols._closure_of_orbit(
        upper2, vectors[0], "naturals").grammar is first
    assert (upper2.base(vectors[1]).to_word(), "naturals") not in memo


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        GroupParams(IntMatrix(((1, 1), (1, 1))))


def test_p1_round_deterministic(upper2):
    pub = p1_setup(upper2, (1, 0), (0, 1), upper2.element(1, (1, -1), 1))
    runs = [p1_round(pub, pol(7), pol(8)) for _ in range(2)]
    assert runs[0] == runs[1]


def test_p1_abelian_oracle_sum(flat2):
    # identity action: base vectors add componentwise, in messages and keys
    w = flat2.element(1, (1, 1), 0)
    pub = p1_setup(flat2, (1, 0), (0, 1), w)
    alice, msg_a, bob, msg_b = p1_round(pub, pol(3), pol(4))
    assert msg_a.oracle() == (alice.a.oracle() * w.oracle() * alice.b.oracle())
    expect = [a + b + c for a, b, c in zip(alice.a.v, w.v, alice.b.v)]
    assert list(msg_a.v) == expect
    k_a, _ = p1_keys(pub, alice, msg_b, bob, msg_a)
    key_sum = [
        a + b + c + d + e
        for a, b, c, d, e in zip(alice.a.v, bob.b.v, w.v, bob.a.v, alice.b.v)
    ]
    assert list(k_a.v) == key_sum


def test_p1_msg_differs_from_w(upper2):
    pub = p1_setup(upper2, (1, 0), (0, 1), upper2.element(1, (1, -1), 1))
    hits = 0
    for seed in range(12):
        _, msg_a, _, _ = p1_round(pub, pol(100 + seed), pol(200 + seed))
        hits += msg_a != pub.w
    assert hits >= 8  # nontrivial samples dominate


def test_p1_keys_agree_seeded(upper2, bs2):
    for group, u, v in ((upper2, (1, 0), (0, 1)), (bs2, (1,), (2,))):
        w = group.element(1, (1,) * group.m, 1)
        pub = p1_setup(group, u, v, w)
        for seed in range(25):
            alice, msg_a, bob, msg_b = p1_round(pub, pol(seed), pol(1000 + seed))
            k_a, k_b = p1_keys(pub, alice, msg_b, bob, msg_a)
            assert k_a == k_b


def test_p1_identity_secrets_give_w(upper2):
    w = upper2.element(1, (1, -1), 1)
    pub = p1_setup(upper2, (1, 0), (0, 1), w)
    e = upper2.identity()
    alice = PartySecret1(e, e)
    bob = PartySecret1(e, e)
    k_a, k_b = p1_keys(pub, alice, w, bob, w)
    assert k_a == w and k_b == w


# ---------------------------------------------------------------------------
# p2


def test_p2_anchor_commutes_with_fresh_samples(upper2):
    pub = PublicParams2(upper2, upper2.element(1, (1, -1), 1))
    state = p2_party_setup(pub, (1, 0), pol(5))
    for seed in range(50):
        s = state.published_spec.sample_element(pol(3000 + seed))
        assert s * state.secret_anchor == state.secret_anchor * s


def test_p2_zero_generator_rejected(upper2):
    # the orbit grammar refuses a zero generator, for p2 and for p1 alike
    pub = PublicParams2(upper2, upper2.identity())
    message = "orbit word must be nonempty"
    with pytest.raises(ValueError, match=message):
        p2_party_setup(pub, (0, 0), pol(1))
    w = upper2.identity()
    with pytest.raises(ValueError, match=message):
        p1_setup(upper2, (0, 0), (0, 1), w)
    with pytest.raises(ValueError, match=message):
        p1_setup(upper2, (1, 0), (0, 0), w)


def test_p2_setup_deterministic(upper2):
    pub = PublicParams2(upper2, upper2.element(1, (1, -1), 1))
    s1 = p2_party_setup(pub, (1, 0), pol(9))
    s2 = p2_party_setup(pub, (1, 0), pol(9))
    assert s1 == s2


def test_p2_keys_agree_seeded(upper2):
    pub = PublicParams2(upper2, upper2.element(1, (1, -1), 1))
    for seed in range(25):
        alice = p2_party_setup(pub, (1, 0), pol(seed))
        bob = p2_party_setup(pub, (0, 1), pol(5000 + seed))
        k_a, k_b = p2_exchange(pub, alice, bob, pol(9000 + seed))
        assert k_a == k_b


def test_p2_identity_picks_give_w(upper2):
    w = upper2.element(1, (1, -1), 1)
    pub = PublicParams2(upper2, w)
    spec = subgroup_closure(orbit_spec(upper2, ("x1",), "integers"))
    e = upper2.identity()
    from subsetkex import Party2State

    alice = Party2State(e, spec)
    bob = Party2State(e, spec)
    # force both samples to the empty derivation by hunting a seed
    for seed in range(200):
        states, msgs, keys = p2_exchange_full(pub, alice, bob, pol(seed))
        if states[0].peer_pick.is_identity() and states[1].peer_pick.is_identity():
            assert keys[0] == w and keys[1] == w
            return
    pytest.fail("no all-identity exchange found")


def test_p2_abelian_oracle_sum(flat2):
    w = flat2.element(0, (3, -2), 0)
    pub = PublicParams2(flat2, w)
    alice = p2_party_setup(pub, (1, 0), pol(1))
    bob = p2_party_setup(pub, (0, 1), pol(2))
    states, msgs, keys = p2_exchange_full(pub, alice, bob, pol(3))
    total = [
        a + b + c + d + e
        for a, b, c, d, e in zip(
            alice.secret_anchor.v, states[1].peer_pick.v, w.v,
            states[0].peer_pick.v, bob.secret_anchor.v)
    ]
    assert list(keys[0].v) == total


# ---------------------------------------------------------------------------
# orbit-dh


def test_orbit_dh_example(upper2):
    # frozen from three naive row-by-matrix products
    msg_a, msg_b, key = orbit_dh(upper2, (1, 0), 2, 1)
    assert key == (8, 19)
    assert msg_a == upper2.phi_power((1, 0), 2)
    assert msg_b == upper2.phi_power((1, 0), 1)


def test_orbit_dh_zero_exponents(upper2):
    _, _, key = orbit_dh(upper2, (1, 0), 0, 0)
    assert key == (1, 0)


def test_orbit_dh_orders_agree():
    rng = random.Random(41)
    from conftest import random_params, random_vec

    for _ in range(100):
        group = random_params(rng)
        x = random_vec(rng, group.m, 5)
        m_a, n_b = rng.randint(0, 64), rng.randint(0, 64)
        _, _, key = orbit_dh(group, x, m_a, n_b)
        assert key == group.phi_power(x, m_a + n_b)
        assert group.phi_power(group.phi_power(x, m_a), n_b) == key


def test_orbit_dh_bound(upper2):
    with pytest.raises(ValueError):
        orbit_dh(upper2, (1, 0), 5, 1, max_exp=4)
    with pytest.raises(ValueError):
        orbit_dh(upper2, (1, 0), -1, 1)
