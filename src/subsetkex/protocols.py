"""Key-exchange flows over the HNN-extension groups.

Three desk-scale protocols, all exchanging exact normal forms:

  p1        both parties draw one factor from each of two public commuting
            subsets (grammar-sampled) and the shared key interleaves the
            four secret factors around a public word w,
  p2        each party anchors a secret element, publishes a grammar whose
            image commutes with that anchor, and picks its second factor
            from the peer's published grammar,
  orbit-dh  Diffie-Hellman along powers of the matrix endomorphism acting
            on the base lattice.

A full exchange is a pure function of public data and the parties' seeds:
every random pick flows through labelled substreams of the policy seeds, so
transcripts reproduce bit for bit.  Commutation of the published subsets is
certified exactly at setup from their grammars (t-exponent sum 0, see
``CFGrammar.t_balanced``), a subset without that certificate is refused,
and any key disagreement raises instead of returning, so a silent mismatch
cannot escape.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .grammars import SamplePolicy, SubsetSpec, orbit_spec, subgroup_closure
from .groups import GroupElement, GroupParams, _Value
from .seeding import derive_seed

__all__ = [
    "PublicParams1", "PartySecret1", "PublicParams2", "Party2State",
    "CommutationError", "KeyAgreementError", "commutation_spot_check",
    "p1_setup", "p1_draw", "p1_round", "p1_keys", "p2_party_setup",
    "p2_exchange", "p2_exchange_full", "orbit_dh", "DEFAULT_EXP_BOUND",
]

DEFAULT_EXP_BOUND = 1 << 20


class CommutationError(RuntimeError):
    """A subset lacks the t-balance certificate, or a spot check failed."""


class KeyAgreementError(RuntimeError):
    """The two parties derived different keys; must not occur."""


class PublicParams1(_Value):
    _fields = ("group", "w", "spec_a", "spec_b")

    def __init__(self, group: GroupParams, w: GroupElement,
                 spec_a: SubsetSpec, spec_b: SubsetSpec):
        self.__dict__.update(group=group, w=w, spec_a=spec_a, spec_b=spec_b)


class PartySecret1(_Value):
    _fields = ("a", "b")

    def __init__(self, a: GroupElement, b: GroupElement):
        self.__dict__.update(a=a, b=b)


class PublicParams2(_Value):
    _fields = ("group", "w")

    def __init__(self, group: GroupParams, w: GroupElement):
        self.__dict__.update(group=group, w=w)


class Party2State(_Value):
    _fields = ("secret_anchor", "published_spec", "peer_pick")

    def __init__(self, secret_anchor: GroupElement,
                 published_spec: SubsetSpec,
                 peer_pick: Optional[GroupElement] = None):
        self.__dict__.update(secret_anchor=secret_anchor,
                             published_spec=published_spec,
                             peer_pick=peer_pick)


_CHECK_POLICY = SamplePolicy(max_length=24, depth_cap=4)


def commutation_spot_check(spec_x: SubsetSpec, spec_y: SubsetSpec,
                           trials: int = 32, seed: int = 0) -> None:
    """Sample cross pairs and require literal element equality of products.

    A test cross-check, never called by the protocols: they certify
    commutation exactly from the grammars instead.
    """
    for i in range(trials):
        x = spec_x.sample_element(
            _CHECK_POLICY.with_seed(derive_seed(seed, "commute.x", i)))
        y = spec_y.sample_element(
            _CHECK_POLICY.with_seed(derive_seed(seed, "commute.y", i)))
        if x * y != y * x:
            raise CommutationError(
                f"sampled cross pair fails to commute (trial {i})"
            )


CLOSURE_MEMO_BOUND = 256
_closure_grammars: dict = {}  # (word, krange) -> closure grammar, oldest use first


def _closure_of_orbit(group: GroupParams, u: Iterable[int], krange: str) -> SubsetSpec:
    """The subgroup closure of the conjugate orbit of u, bound to ``group``.

    The closure grammar depends on the generator word and the range, not on
    the matrix, so one grammar per (word, krange) is shared across trials
    and groups (the ``CLOSURE_MEMO_BOUND`` most recently used are kept) and
    its cached tables stay warm.  The binding to ``group`` is made per call;
    a failing build raises every time and is not kept.
    """
    word = group.base(u).to_word()
    key = (word, krange)
    grammar = _closure_grammars.pop(key, None)
    if grammar is None:
        grammar = subgroup_closure(orbit_spec(group, word, krange)).grammar
        if len(_closure_grammars) >= CLOSURE_MEMO_BOUND:
            del _closure_grammars[next(iter(_closure_grammars))]
    _closure_grammars[key] = grammar
    return SubsetSpec(grammar, group)


def p1_setup(group: GroupParams, u: Iterable[int], v: Iterable[int],
             w: GroupElement, krange: str = "integers",
             check_seed: int = 0) -> PublicParams1:
    """Publish the subgroup closures of the conjugate orbits of u and v.

    Closure words have t-exponent sum 0, so both images lie in the abelian
    base hull (the kernel of t -> 1) and commute; a closure without that
    certificate (``t_balanced``) raises ``CommutationError``.
    ``check_seed`` is accepted and ignored: nothing is sampled.
    """
    pub = PublicParams1(group, w, _closure_of_orbit(group, u, krange),
                        _closure_of_orbit(group, v, krange))
    if not (pub.spec_a.grammar.t_balanced and pub.spec_b.grammar.t_balanced):
        raise CommutationError("subsets lack the t-balance certificate")
    return pub


def p1_draw(pub: PublicParams1, policy: SamplePolicy,
            index: int) -> PartySecret1:
    """Party ``index``'s secret pair (a_index, b_index), one draw per subset.

    Alice is party 1 and Bob party 2.  The draws are seeded from the
    party's own policy seed only, so one party's half is the same whether
    or not the other half is drawn.
    """
    a = pub.spec_a.sample_element(
        policy.with_seed(derive_seed(policy.seed, f"p1.a{index}")))
    b = pub.spec_b.sample_element(
        policy.with_seed(derive_seed(policy.seed, f"p1.b{index}")))
    return PartySecret1(a, b)


def p1_round(pub: PublicParams1, policy_a: SamplePolicy,
             policy_b: SamplePolicy):
    """One exchange: Alice sends a1 w b1, Bob sends b2 w a2.

    Returns (alice_secret, msg_a, bob_secret, msg_b); the secrets stay with
    their parties, the messages go on the wire.
    """
    alice = p1_draw(pub, policy_a, 1)
    bob = p1_draw(pub, policy_b, 2)
    return alice, alice.a * pub.w * alice.b, bob, bob.b * pub.w * bob.a


def p1_keys(pub: PublicParams1, alice: PartySecret1, msg_b: GroupElement,
            bob: PartySecret1, msg_a: GroupElement):
    """Both parties wrap the peer's message in their own secrets.

    Returns (K_A, K_B): K_A = a1 (b2 w a2) b1 and K_B = b2 (a1 w b1) a2
    agree exactly because the published subsets commute.
    """
    k_a = alice.a * msg_b * alice.b
    k_b = bob.b * msg_a * bob.a
    if k_a != k_b:
        raise KeyAgreementError("p1 key mismatch: commutation violated")
    return k_a, k_b


def p2_party_setup(pub: PublicParams2, u: Iterable[int], policy: SamplePolicy,
                   krange: str = "integers",
                   check_trials: int = 32) -> Party2State:
    """Anchor a secret in the orbit closure of u and publish that closure.

    A ``t_balanced`` closure lies in the abelian base hull, anchor included,
    so it commutes with the anchor; a closure without that certificate
    raises ``CommutationError``.  ``check_trials`` is accepted and ignored:
    nothing is sampled.
    """
    spec = _closure_of_orbit(pub.group, u, krange)
    if not spec.grammar.t_balanced:
        raise CommutationError("subset lacks the t-balance certificate")
    anchor = spec.sample_element(
        policy.with_seed(derive_seed(policy.seed, "p2.anchor")))
    return Party2State(anchor, spec)


def p2_exchange_full(pub: PublicParams2, alice: Party2State, bob: Party2State,
                     policy: SamplePolicy):
    """Run the hidden-anchor exchange, returning states, messages, and keys.

    Alice samples a2 from Bob's published grammar and sends a1 w a2; Bob
    samples b1 from Alice's and sends b1 w b2.  K_A = a1 (b1 w b2) a2 and
    K_B = b1 (a1 w a2) b2 agree exactly.
    """
    a2 = bob.published_spec.sample_element(
        policy.with_seed(derive_seed(policy.seed, "p2.a2")))
    b1 = alice.published_spec.sample_element(
        policy.with_seed(derive_seed(policy.seed, "p2.b1")))
    msg_a = alice.secret_anchor * pub.w * a2
    msg_b = b1 * pub.w * bob.secret_anchor
    k_a = alice.secret_anchor * msg_b * a2
    k_b = b1 * msg_a * bob.secret_anchor
    if k_a != k_b:
        raise KeyAgreementError("p2 key mismatch: centralizer invariant violated")
    states = (Party2State(alice.secret_anchor, alice.published_spec, a2),
              Party2State(bob.secret_anchor, bob.published_spec, b1))
    return states, (msg_a, msg_b), (k_a, k_b)


def p2_exchange(pub: PublicParams2, alice: Party2State, bob: Party2State,
                policy: SamplePolicy):
    _, _, keys = p2_exchange_full(pub, alice, bob, policy)
    return keys


def orbit_dh(group: GroupParams, x: Iterable[int], m_a: int, n_b: int,
             max_exp: int = DEFAULT_EXP_BOUND):
    """Diffie-Hellman in the base lattice: K = x M^(m_a + n_b).

    Returns (msg_a, msg_b, key); both association orders are computed and
    compared, so a disagreement raises instead of yielding a bad key.
    """
    x = tuple(int(e) for e in x)
    if m_a < 0 or n_b < 0:
        raise ValueError("exponents must be nonnegative")
    if m_a > max_exp or n_b > max_exp:
        raise ValueError(f"exponent bound {max_exp} exceeded")
    msg_a = group.phi_power(x, m_a)
    msg_b = group.phi_power(x, n_b)
    k_a = group.phi_power(msg_b, m_a)
    k_b = group.phi_power(msg_a, n_b)
    if k_a != k_b:
        raise KeyAgreementError("orbit-dh power mismatch")
    return msg_a, msg_b, k_a
