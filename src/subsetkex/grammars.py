"""Context-free grammars over group-generator tokens.

A grammar over the token alphabet of an ambient group, paired with the
evaluation map, sweeps out a subset of the group; these grammars are the
finite, publishable descriptions the protocols exchange.  This module covers:

  * validated grammar construction (declared nonterminals, token terminals,
    nonempty language via the productivity fixpoint),
  * seeded sampling by leftmost derivation with a termination bias,
  * exact membership by conversion to Chomsky normal form plus CYK,
  * the closure constructions (formal inverse, union, star) that pass from a
    generating subset to the subgroup it generates,
  * the conjugate-orbit grammar family t^-k w t^k.

Grammars are immutable values; sampling owns its seeded generator, so
everything here is safe for concurrent use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .groups import (
    TOKEN_STABLE,
    TOKEN_STABLE_INV,
    GroupElement,
    GroupParams,
    invert_token,
    is_valid_token,
    token_dimension,
)

__all__ = [
    "CFGrammar",
    "SubsetSpec",
    "SamplePolicy",
    "GrammarError",
    "SampleBudgetError",
    "sample_grammar",
    "cfg_membership",
    "cfg_invert",
    "cfg_union",
    "cfg_star",
    "subgroup_closure",
    "orbit_grammar",
    "orbit_spec",
    "shortest_word",
    "shortest_nonempty_word",
    "RANGE_NATURALS",
    "RANGE_INTEGERS",
]

Rule = tuple  # (lhs, rhs) with rhs a tuple of symbols

RANGE_NATURALS = "naturals"
RANGE_INTEGERS = "integers"

_SAMPLE_ATTEMPTS = 64

_T_BALANCE = {TOKEN_STABLE: 1, TOKEN_STABLE_INV: -1}


class GrammarError(ValueError):
    """Structurally invalid grammar, or a grammar with empty language."""


class SampleBudgetError(RuntimeError):
    """Sampler exhausted its retry budget without a word within bounds."""


def _productive(nonterminals, rules) -> frozenset:
    nts = set(nonterminals)
    prod: set = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if lhs in prod:
                continue
            if all(s in prod or s not in nts for s in rhs):
                prod.add(lhs)
                changed = True
    return frozenset(prod)


@dataclass(frozen=True)
class CFGrammar:
    """Context-free grammar with declared nonterminals and token terminals.

    Any rhs symbol matching a declared nonterminal is a nonterminal; all
    other symbols must be syntactically valid generator tokens.  The start
    symbol must be productive (the language must be nonempty).
    """

    nonterminals: tuple
    start: str
    rules: tuple

    def __post_init__(self):
        nts = tuple(str(n) for n in self.nonterminals)
        object.__setattr__(self, "nonterminals", nts)
        if len(set(nts)) != len(nts):
            raise GrammarError("duplicate nonterminal declaration")
        if self.start not in nts:
            raise GrammarError(f"start symbol {self.start!r} is not declared")
        nt_set = set(nts)
        rules = []
        for lhs, rhs in self.rules:
            if lhs not in nt_set:
                raise GrammarError(f"rule lhs {lhs!r} is not a declared nonterminal")
            rhs = tuple(str(s) for s in rhs)
            for s in rhs:
                if s not in nt_set and not is_valid_token(s):
                    raise GrammarError(
                        f"rhs symbol {s!r} is neither a nonterminal nor a token"
                    )
            rules.append((lhs, rhs))
        object.__setattr__(self, "rules", tuple(rules))
        if self.start not in _productive(nts, self.rules):
            raise GrammarError("start symbol is unproductive: language is empty")

    @cached_property
    def _nt_set(self) -> frozenset:
        return frozenset(self.nonterminals)

    def is_nonterminal(self, symbol: str) -> bool:
        return symbol in self._nt_set

    @cached_property
    def terminals(self) -> frozenset:
        return frozenset(
            s for _, rhs in self.rules for s in rhs if s not in self._nt_set
        )

    @cached_property
    def productive(self) -> frozenset:
        return _productive(self.nonterminals, self.rules)

    @cached_property
    def _rules_by_lhs(self) -> dict:
        table: dict = {n: [] for n in self.nonterminals}
        for lhs, rhs in self.rules:
            table[lhs].append(rhs)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def _productive_rules_by_lhs(self) -> dict:
        prod = self.productive
        table = {}
        for lhs, options in self._rules_by_lhs.items():
            kept = tuple(
                rhs
                for rhs in options
                if all(s in prod or s not in self._nt_set for s in rhs)
            )
            if kept:
                table[lhs] = kept
        return table

    @cached_property
    def _terminal_only_rules(self) -> dict:
        table = {}
        for lhs, options in self._productive_rules_by_lhs.items():
            kept = tuple(
                rhs for rhs in options if not any(s in self._nt_set for s in rhs)
            )
            if kept:
                table[lhs] = kept
        return table

    @cached_property
    def t_balanced(self) -> bool:
        """Certificate that every word of the language has t-exponent sum 0.

        A fixpoint over the productive rules (t counts +1, t^-1 counts -1)
        gives each productive nonterminal the balance of its first evaluable
        rule and refutes the certificate at any rule that disagrees.  Every
        productive nonterminal has a rule over productive symbols, so each
        pass evaluates at least one pending rule.
        """
        nts = self._nt_set
        pending = []
        for lhs, options in self._productive_rules_by_lhs.items():
            for rhs in options:
                total = 0
                parts = []
                for s in rhs:
                    if s in nts:
                        parts.append(s)
                    else:
                        total += _T_BALANCE.get(s, 0)
                pending.append((lhs, total, parts))
        balance: dict = {}
        while pending:
            waiting = []
            for rule in pending:
                lhs, total, parts = rule
                for s in parts:
                    if s not in balance:
                        waiting.append(rule)
                        break
                    total += balance[s]
                else:
                    if balance.setdefault(lhs, total) != total:
                        return False
            pending = waiting
        return balance[self.start] == 0


@dataclass(frozen=True)
class SamplePolicy:
    """Knobs for seeded sampling.

    Once the derivation depth passes ``depth_cap``, rules whose right-hand
    side contains no nonterminal receive probability mass ``terminal_bias``;
    choices are uniform otherwise.  This keeps expected word length bounded
    while leaving short derivations unbiased.
    """

    max_length: int = 48
    depth_cap: int = 6
    terminal_bias: Fraction = Fraction(3, 4)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "terminal_bias", Fraction(self.terminal_bias))
        if self.max_length < 1:
            raise ValueError("max_length must be at least 1")
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be at least 1")
        if not 0 < self.terminal_bias <= 1:
            raise ValueError("terminal_bias must lie in (0, 1]")


@dataclass(frozen=True)
class SubsetSpec:
    """A grammar bound to its ambient group: the carrier of a subset of G."""

    grammar: CFGrammar
    group: GroupParams

    def __post_init__(self):
        for tok in self.grammar.terminals:
            if token_dimension(tok) > self.group.m:
                raise ValueError(
                    f"terminal {tok!r} is outside the rank-{self.group.m} alphabet"
                )

    def sample(self, policy: SamplePolicy) -> tuple:
        return sample_grammar(self.grammar, policy)

    def sample_element(self, policy: SamplePolicy) -> GroupElement:
        return self.group.evaluate(sample_grammar(self.grammar, policy))


def sample_grammar(grammar: CFGrammar, policy: SamplePolicy,
                   rng: Optional[random.Random] = None) -> tuple:
    """One word of L(grammar) by a seeded leftmost derivation.

    Deterministic in (grammar, policy): the policy seed starts a fresh
    generator unless an explicit one is threaded through.  Attempts that
    exceed ``max_length`` tokens are abandoned and retried, up to a fixed
    budget.
    """
    rng = random.Random(policy.seed) if rng is None else rng
    for _ in range(_SAMPLE_ATTEMPTS):
        word = _derive_once(grammar, policy, rng)
        if word is not None:
            return word
    raise SampleBudgetError(
        f"no derivation within {policy.max_length} tokens "
        f"after {_SAMPLE_ATTEMPTS} attempts"
    )


def _derive_once(grammar, policy, rng) -> Optional[tuple]:
    options_for = grammar._productive_rules_by_lhs
    finishers_for = grammar._terminal_only_rules
    bias = float(policy.terminal_bias)
    out: list = []
    stack = [(grammar.start, 0)]  # reversed sentential form, leftmost on top
    steps = 0
    budget = 16 * (policy.max_length + policy.depth_cap) + 64
    while stack:
        sym, depth = stack.pop()
        if not grammar.is_nonterminal(sym):
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
        rhs = pool[rng.randrange(len(pool))]
        for s in reversed(rhs):
            stack.append((s, depth + 1))
    return tuple(out)


# ---------------------------------------------------------------------------
# membership: Chomsky normal form + CYK


class _CNF:
    __slots__ = ("start", "nullable_start", "term_map", "by_left")

    def __init__(self, start, nullable_start, term_map, by_left):
        self.start = start
        self.nullable_start = nullable_start
        self.term_map = term_map       # token -> frozenset of producers
        self.by_left = by_left         # B -> tuple of (C, A) for A -> B C


@lru_cache(maxsize=128)
def _chomsky(grammar: CFGrammar) -> _CNF:
    nt_set = set(grammar.nonterminals)
    prod = grammar.productive
    rules = [
        (lhs, rhs)
        for lhs, rhs in grammar.rules
        if lhs in prod and all(s in prod or s not in nt_set for s in rhs)
    ]
    live = set(n for n in nt_set if n in prod)

    counter = [0]

    def fresh(tag: str) -> str:
        while True:
            name = f"_{tag}{counter[0]}"
            counter[0] += 1
            if name not in live:
                live.add(name)
                return name

    start0 = fresh("S")
    rules.append((start0, (grammar.start,)))

    # TERM: hide terminals inside long rules behind wrapper nonterminals
    wrappers: dict = {}
    extra = []

    def wrapped(tok: str) -> str:
        if tok not in wrappers:
            name = fresh("T")
            wrappers[tok] = name
            extra.append((name, (tok,)))
        return wrappers[tok]

    pass1 = []
    for lhs, rhs in rules:
        if len(rhs) >= 2:
            rhs = tuple(s if s in live else wrapped(s) for s in rhs)
        pass1.append((lhs, rhs))
    pass1.extend(extra)

    # BIN: binarise long right-hand sides
    pass2 = []
    for lhs, rhs in pass1:
        while len(rhs) > 2:
            head = fresh("B")
            pass2.append((lhs, (rhs[0], head)))
            lhs, rhs = head, rhs[1:]
        pass2.append((lhs, rhs))

    # DEL: eliminate epsilon rules (right-hand sides are short now)
    nullable = set()
    changed = True
    while changed:
        changed = False
        for lhs, rhs in pass2:
            if lhs not in nullable and all(s in nullable for s in rhs):
                nullable.add(lhs)
                changed = True
    pass3 = set()
    for lhs, rhs in pass2:
        if len(rhs) == 0:
            continue
        pass3.add((lhs, rhs))
        if len(rhs) == 2:
            x, y = rhs
            if x in nullable:
                pass3.add((lhs, (y,)))
            if y in nullable:
                pass3.add((lhs, (x,)))

    # UNIT: fold chains of single-nonterminal rules
    unit_next: dict = {n: set() for n in live}
    for lhs, rhs in pass3:
        if len(rhs) == 1 and rhs[0] in live:
            unit_next[lhs].add(rhs[0])
    closure: dict = {}
    for n in live:
        seen = {n}
        queue = [n]
        while queue:
            cur = queue.pop()
            for nxt in unit_next.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        closure[n] = seen

    term_map: dict = {}
    binary = set()
    non_unit: dict = {n: [] for n in live}
    for lhs, rhs in pass3:
        if len(rhs) == 2 or (len(rhs) == 1 and rhs[0] not in live):
            non_unit[lhs].append(rhs)
    for a in live:
        for b in closure[a]:
            for rhs in non_unit.get(b, ()):
                if len(rhs) == 1:
                    term_map.setdefault(rhs[0], set()).add(a)
                else:
                    binary.add((a, rhs[0], rhs[1]))

    # prune symbols unreachable from the fresh start
    reachable = {start0}
    changed = True
    while changed:
        changed = False
        for a, b, c in binary:
            if a in reachable and (b not in reachable or c not in reachable):
                reachable.update((b, c))
                changed = True
    binary = {(a, b, c) for a, b, c in binary if a in reachable}
    term_map = {
        tok: frozenset(x for x in producers if x in reachable)
        for tok, producers in term_map.items()
    }
    term_map = {tok: s for tok, s in term_map.items() if s}

    by_left: dict = {}
    for a, b, c in sorted(binary):
        by_left.setdefault(b, []).append((c, a))
    by_left = {k: tuple(v) for k, v in by_left.items()}

    return _CNF(start0, start0 in nullable, term_map, by_left)


def cfg_membership(word: Sequence[str], grammar: CFGrammar) -> bool:
    """Exact language membership via CYK on the cached normal form."""
    word = tuple(word)
    cnf = _chomsky(grammar)
    if not word:
        return cnf.nullable_start
    n = len(word)
    table = [[set() for _ in range(n + 1)] for _ in range(n)]
    for i, tok in enumerate(word):
        producers = cnf.term_map.get(tok)
        if producers:
            table[i][1] |= producers
    by_left = cnf.by_left
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            cell = table[i][span]
            for split in range(1, span):
                left = table[i][split]
                right = table[i + split][span - split]
                if not left or not right:
                    continue
                for b in left:
                    for c, a in by_left.get(b, ()):
                        if c in right:
                            cell.add(a)
    return cnf.start in table[0][n]


# ---------------------------------------------------------------------------
# closure constructions


def cfg_invert(grammar: CFGrammar) -> CFGrammar:
    """Grammar for the formal inverses: reverse every rhs, invert terminals."""
    rules = tuple(
        (
            lhs,
            tuple(
                s if grammar.is_nonterminal(s) else invert_token(s)
                for s in reversed(rhs)
            ),
        )
        for lhs, rhs in grammar.rules
    )
    return CFGrammar(grammar.nonterminals, grammar.start, rules)


def _prefixed(grammar: CFGrammar, prefix: str) -> CFGrammar:
    names = {n: prefix + n for n in grammar.nonterminals}
    rules = tuple(
        (names[lhs], tuple(names.get(s, s) for s in rhs))
        for lhs, rhs in grammar.rules
    )
    return CFGrammar(
        tuple(names[n] for n in grammar.nonterminals), names[grammar.start], rules
    )


def cfg_union(g1: CFGrammar, g2: CFGrammar) -> CFGrammar:
    """Fresh-start union; both sides are renamed apart deterministically."""
    a = _prefixed(g1, "L.")
    b = _prefixed(g2, "R.")
    start = "U"
    return CFGrammar(
        (start,) + a.nonterminals + b.nonterminals,
        start,
        ((start, (a.start,)), (start, (b.start,))) + a.rules + b.rules,
    )


def _fresh_name(base: str, taken) -> str:
    if base not in taken:
        return base
    i = 0
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def cfg_star(grammar: CFGrammar) -> CFGrammar:
    """Kleene star with a fresh start; the empty word is always included."""
    start = _fresh_name("Z", grammar.nonterminals)
    rules = ((start, ()), (start, (grammar.start, start))) + grammar.rules
    return CFGrammar((start,) + grammar.nonterminals, start, rules)


def subgroup_closure(spec: SubsetSpec) -> SubsetSpec:
    """Grammar for (L u L^-1)*: its image is the subgroup generated by L's."""
    g = spec.grammar
    return SubsetSpec(cfg_star(cfg_union(g, cfg_invert(g))), spec.group)


def orbit_grammar(group: GroupParams, word: Sequence[str], krange: str) -> CFGrammar:
    """Grammar for the conjugates t^-k w t^k of a word w.

    ``krange`` selects k over the naturals (one self-embedding rule) or over
    all integers (a second branch produces the negatively-indexed
    conjugates t^k w t^-k, k >= 1).
    """
    word = tuple(word)
    if not word:
        raise ValueError("orbit word must be nonempty")
    for tok in word:
        if not is_valid_token(tok, group.m):
            raise ValueError(f"invalid token {tok!r} for rank {group.m}")
    if krange == RANGE_NATURALS:
        return CFGrammar(
            ("S",),
            "S",
            (("S", ("t^-1", "S", "t")), ("S", word)),
        )
    if krange == RANGE_INTEGERS:
        return CFGrammar(
            ("S", "A", "B"),
            "S",
            (
                ("S", ("A",)),
                ("S", ("B",)),
                ("A", ("t^-1", "A", "t")),
                ("A", word),
                ("B", ("t", "B", "t^-1")),
                ("B", ("t",) + word + ("t^-1",)),
            ),
        )
    raise ValueError(f"unknown orbit range {krange!r}")


def orbit_spec(group: GroupParams, word: Sequence[str], krange: str) -> SubsetSpec:
    return SubsetSpec(orbit_grammar(group, word, krange), group)


# ---------------------------------------------------------------------------
# shortest yields (used by the attack harness and generator extraction)


@lru_cache(maxsize=128)
def _min_yields(grammar: CFGrammar):
    """Bellman fixpoints of minimum yield lengths per nonterminal.

    Returns (len0, len1, pick0, pick1) where len0 is the minimum terminal
    yield length (possibly 0), len1 the minimum yield length at least 1
    (None when every yield is empty), and pick0/pick1 record the rule (and
    for pick1 the position forced to be nonempty) that achieves each bound.
    """
    INF = float("inf")
    nts = grammar._nt_set
    len0 = {n: INF for n in nts}
    pick0 = {}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in grammar.rules:
            total = 0
            for s in rhs:
                total += len0[s] if s in nts else 1
                if total == INF:
                    break
            if total < len0[lhs]:
                len0[lhs] = total
                pick0[lhs] = rhs
                changed = True

    len1 = {n: INF for n in nts}
    pick1 = {}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in grammar.rules:
            if not rhs:
                continue
            base = 0
            ok = True
            parts = []
            for s in rhs:
                c = len0[s] if s in nts else 1
                parts.append(c)
                base += c
                if base == INF:
                    ok = False
                    break
            if not ok:
                continue
            for i, s in enumerate(rhs):
                carry = (len1[s] if s in nts else 1)
                total = base - parts[i] + carry
                if total < len1[lhs]:
                    len1[lhs] = total
                    pick1[lhs] = (rhs, i)
                    changed = True
    return len0, len1, pick0, pick1


def _build_min_word(grammar: CFGrammar, nt: str, pick0: dict) -> tuple:
    out = []
    stack = [nt]
    while stack:
        sym = stack.pop()
        if grammar.is_nonterminal(sym):
            stack.extend(reversed(pick0[sym]))
        else:
            out.append(sym)
    return tuple(out)


def shortest_word(grammar: CFGrammar, nt: Optional[str] = None) -> tuple:
    """A minimum-length terminal yield of ``nt`` (default: the start symbol)."""
    nt = grammar.start if nt is None else nt
    len0, _, pick0, _ = _min_yields(grammar)
    if len0[nt] == float("inf"):
        raise GrammarError(f"nonterminal {nt!r} is unproductive")
    return _build_min_word(grammar, nt, pick0)


def shortest_nonempty_word(grammar: CFGrammar) -> Optional[tuple]:
    """A minimum-length nonempty word of the language, or None if {e} only."""
    len0, len1, pick0, pick1 = _min_yields(grammar)
    if len1[grammar.start] == float("inf"):
        return None

    def expand(sym: str, force_nonempty: bool) -> list:
        if not grammar.is_nonterminal(sym):
            return [sym]
        if not force_nonempty:
            return list(_build_min_word(grammar, sym, pick0))
        rhs, pos = pick1[sym]
        out: list = []
        for i, s in enumerate(rhs):
            out.extend(expand(s, i == pos))
        return out

    return tuple(expand(grammar.start, True))
