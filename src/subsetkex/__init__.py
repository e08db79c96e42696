"""Subset-based key exchange over ascending HNN-extensions of Z^m.

Exact group arithmetic in Britton normal form, context-free grammars as
carriers of algebraic subsets, three key-exchange protocols, and a
length-based cryptanalysis harness.  See the demos/ scripts for guided
tours of each capability.

Exports are lazy (PEP 562): ``import subsetkex`` runs no submodule, and
the first lookup of a name in ``__all__`` imports the one submodule that
defines it, then keeps the value in this namespace.  The lookup goes
through this package's own submodule attribute before any import, so a
package object kept after its modules were dropped from ``sys.modules``
keeps handing out objects of one import, never a mix of two.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "groups": (
        "GroupElement", "GroupParams", "IntMatrix", "OracleElement",
        "WordCapExceeded", "default_length", "invert_token", "is_valid_token",
        "make_token",
    ),
    "grammars": (
        "CFGrammar", "GrammarError", "RANGE_INTEGERS", "RANGE_NATURALS",
        "SampleBudgetError", "SamplePolicy", "SubsetSpec", "cfg_closure",
        "cfg_invert", "cfg_membership", "cfg_star", "cfg_union",
        "orbit_grammar", "orbit_spec", "sample_grammar", "shortest_word",
        "subgroup_closure",
    ),
    "protocols": (
        "CommutationError", "KeyAgreementError", "Party2State",
        "PartySecret1", "PublicParams1", "PublicParams2",
        "commutation_spot_check", "orbit_dh", "p1_keys", "p1_round",
        "p1_setup", "p2_exchange", "p2_exchange_full", "p2_party_setup",
    ),
    "attacks": (
        "AttackInstance", "AttackPlan", "AttackResult", "GridPoint", "MEMBER",
        "MembershipVerdict", "NON_MEMBER_IN_WINDOW", "UNKNOWN",
        "build_p1_instance", "derivation_descent", "lattice_member",
        "rst_greedy", "run_experiments", "subset_distance", "verify_break",
    ),
    "seeding": ("derive_seed",),
}
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    mod = _SOURCE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals().get(mod) or import_module(f"{__name__}.{mod}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
