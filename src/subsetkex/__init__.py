"""Subset-based key exchange over ascending HNN-extensions of Z^m.

Exact group arithmetic in Britton normal form, context-free grammars as
carriers of algebraic subsets, three key-exchange protocols, and a
length-based cryptanalysis harness.  See the demos/ scripts for guided
tours of each capability.
"""

from .groups import (
    GroupElement,
    GroupParams,
    IntMatrix,
    OracleElement,
    WordCapExceeded,
    default_length,
    invert_token,
    is_valid_token,
    make_token,
    word_inverse,
)
from .grammars import (
    CFGrammar,
    FSAutomaton,
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
    fsa_sample,
    fsa_subgroup,
    orbit_grammar,
    orbit_spec,
    productive_check,
    sample_grammar,
    shortest_nonempty_word,
    shortest_word,
    subgroup_closure,
)
from .protocols import (
    CommutationError,
    KeyAgreementError,
    Party2State,
    PartySecret1,
    PublicParams1,
    PublicParams2,
    SessionKey,
    commutation_spot_check,
    orbit_dh,
    p1_keys,
    p1_round,
    p1_setup,
    p2_exchange,
    p2_exchange_full,
    p2_party_setup,
)
from .attacks import (
    AttackInstance,
    AttackResult,
    GridPoint,
    MEMBER,
    MembershipVerdict,
    NON_MEMBER_IN_WINDOW,
    UNKNOWN,
    build_p1_instance,
    derivation_descent,
    extract_orbit_generator,
    lattice_member,
    rst_greedy,
    run_experiments,
    subset_distance,
    verify_break,
)
from .seeding import derive_seed

__version__ = "0.1.0"
