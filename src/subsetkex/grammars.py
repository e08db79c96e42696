"""Context-free grammars over group-generator tokens.

A grammar over the token alphabet of an ambient group, paired with the
evaluation map, sweeps out a subset of the group; these grammars are the
finite, publishable descriptions the protocols exchange.  This module covers:

  * validated grammar construction (declared nonterminals, token terminals,
    nonempty language read from the shortest-yield table),
  * seeded sampling by leftmost derivation with a termination bias,
  * exact membership by Earley recognition on the grammar as written,
  * the closure constructions (formal inverse, union, star) that pass from a
    generating subset to the subgroup it generates,
  * the conjugate-orbit grammar family t^-k w t^k.

Grammars are immutable values; sampling owns its seeded generator, so a
word depends on the grammar and the policy alone.  A ``SubsetSpec`` keeps
a bounded table from sampled words to their elements; its entries are
exact, so a spec shared between threads may evaluate a word twice but
never returns another element.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

from .groups import (
    TOKEN_STABLE,
    TOKEN_STABLE_INV,
    GroupElement,
    GroupParams,
    _Value,
    invert_token,
    is_valid_token,
    token_dimension,
)

__all__ = [
    "CFGrammar", "SubsetSpec", "SamplePolicy", "GrammarError",
    "SampleBudgetError", "sample_grammar", "cfg_membership", "cfg_invert",
    "cfg_union", "cfg_star", "cfg_closure", "subgroup_closure",
    "orbit_grammar", "orbit_spec", "shortest_word", "RANGE_NATURALS",
    "RANGE_INTEGERS",
]

Rule = tuple  # (lhs, rhs) with rhs a tuple of symbols

RANGE_NATURALS = "naturals"
RANGE_INTEGERS = "integers"

_SAMPLE_ATTEMPTS = 64
VALUE_TABLE_BOUND = 128  # entries one element or verdict table keeps

_T_BALANCE = {TOKEN_STABLE: 1, TOKEN_STABLE_INV: -1}
_INF = float("inf")


class GrammarError(ValueError):
    """Structurally invalid grammar, or a grammar with empty language."""


class SampleBudgetError(RuntimeError):
    """Sampler exhausted its retry budget without a word within bounds."""


def _t_sum(rhs, balance: dict) -> int:
    """t-exponent sum of a rhs, each nonterminal counted at its ``balance``."""
    return sum(balance[s] if s in balance else _T_BALANCE.get(s, 0) for s in rhs)


class CFGrammar(_Value):
    """Context-free grammar with declared nonterminals and token terminals.

    Any rhs symbol matching a declared nonterminal is a nonterminal; all
    other symbols must be syntactically valid generator tokens.  The start
    symbol must be productive (the language must be nonempty).
    """

    _fields = ("nonterminals", "start", "rules")

    def __init__(self, nonterminals: tuple, start: str, rules: tuple):
        nts = tuple(str(n) for n in nonterminals)
        if len(set(nts)) != len(nts):
            raise GrammarError("duplicate nonterminal declaration")
        if start not in nts:
            raise GrammarError(f"start symbol {start!r} is not declared")
        nt_set = set(nts)
        checked = []
        for lhs, rhs in rules:
            if lhs not in nt_set:
                raise GrammarError(f"rule lhs {lhs!r} is not a declared nonterminal")
            rhs = tuple(str(s) for s in rhs)
            for s in rhs:
                if s not in nt_set and not is_valid_token(s):
                    raise GrammarError(
                        f"rhs symbol {s!r} is neither a nonterminal nor a token"
                    )
            checked.append((lhs, rhs))
        self.__dict__.update(nonterminals=nts, start=start, rules=tuple(checked))
        if start not in self.productive:
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
    def _rank(self) -> int:
        """The smallest base dimension whose alphabet holds every terminal."""
        return max(map(token_dimension, self.terminals), default=0)

    @cached_property
    def _shortest(self) -> tuple:
        """Shortest yields: (length, pick, balance) per productive nonterminal.

        A Bellman fixpoint over the rules in declaration order (Knuth 1977)
        gives each nonterminal the minimum length of a terminal word it
        derives, the first rule that achieves it, and the t-exponent sum of
        that word (t counts +1, t^-1 counts -1).  A nonterminal with no entry
        is unproductive.  A balance changes only with its length, and a
        picked rule is picked again when any of its symbols gets shorter, so
        at the fixpoint each balance is its picked rule's sum.
        """
        nts = self._nt_set
        length: dict = {}
        pick: dict = {}
        balance: dict = {}
        changed = True
        while changed:
            changed = False
            for lhs, rhs in self.rules:
                total = 0
                for s in rhs:
                    total += length.get(s, _INF) if s in nts else 1
                if total < length.get(lhs, _INF):
                    length[lhs] = total
                    pick[lhs] = rhs
                    balance[lhs] = _t_sum(rhs, balance)
                    changed = True
        return length, pick, balance

    @cached_property
    def productive(self) -> frozenset:
        return frozenset(self._shortest[0])

    @cached_property
    def _nullable(self) -> frozenset:
        """The nonterminals that derive the empty word."""
        return frozenset(n for n, k in self._shortest[0].items() if k == 0)

    def _rules_where(self, keep) -> dict:
        """The right-hand sides that ``keep`` accepts, by lhs, in rule order."""
        table: dict = {}
        for lhs, rhs in self.rules:
            if keep(rhs):
                table.setdefault(lhs, []).append(rhs)
        return {k: tuple(v) for k, v in table.items()}

    @cached_property
    def _productive_rules_by_lhs(self) -> dict:
        length = self._shortest[0]
        return self._rules_where(lambda rhs: all(
            s in length or s not in self._nt_set for s in rhs))

    @cached_property
    def _yields(self) -> dict:
        """Shortest words: one per productive nonterminal, from the picks.

        Built once per grammar: each word joins the words of its picked
        rule's symbols.  A pick changes only when its nonterminal gets
        strictly shorter, so the picks form no cycle.
        """
        pick = self._shortest[1]
        words: dict = {}
        for root in pick:
            stack = [root]
            while stack:
                nt = stack.pop()
                if nt in words:
                    continue
                todo = [s for s in pick[nt] if s in pick and s not in words]
                if todo:
                    stack.append(nt)
                    stack.extend(todo)
                    continue
                words[nt] = tuple(tok for s in pick[nt]
                                  for tok in (words[s] if s in pick else (s,)))
        return words

    @cached_property
    def _draws(self) -> dict:
        """Sampler table: per productive lhs, its right-hand sides and their
        terminal-only subset, each as (pool, size, bits of size) or None."""
        finishers = self._rules_where(lambda rhs: not any(
            s in self._nt_set for s in rhs))
        return {lhs: tuple((pool, len(pool), len(pool).bit_length())
                           if pool else None
                           for pool in (options, finishers.get(lhs)))
                for lhs, options in self._productive_rules_by_lhs.items()}

    @cached_property
    def t_balanced(self) -> bool:
        """Certificate that every word of the language has t-exponent sum 0.

        The start symbol's shortest word must have sum 0 and every productive
        rule must agree with the shortest-word sums of its symbols.  Those
        sums are then a consistent balance per productive nonterminal, and
        the only one, since each derives some word; by induction every word
        a nonterminal derives has its balance.  Unreachable nonterminals are
        checked too, which keeps the certificate conservative.
        """
        _, _, balance = self._shortest
        return balance[self.start] == 0 and all(
            _t_sum(rhs, balance) == balance[lhs]
            for lhs, options in self._productive_rules_by_lhs.items()
            for rhs in options
        )


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
        bias = self.terminal_bias
        if not isinstance(bias, Fraction):
            bias = Fraction(bias)
            object.__setattr__(self, "terminal_bias", bias)
        if self.max_length < 1:
            raise ValueError("max_length must be at least 1")
        if self.depth_cap < 1:
            raise ValueError("depth_cap must be at least 1")
        if not 0 < bias.numerator <= bias.denominator:
            raise ValueError("terminal_bias must lie in (0, 1]")

    def with_seed(self, seed: int) -> "SamplePolicy":
        """This policy with another seed; its knobs are not checked again."""
        policy = object.__new__(SamplePolicy)
        policy.__dict__.update(self.__dict__, seed=seed)
        return policy


class SubsetSpec(_Value):
    """A grammar bound to its ambient group: the carrier of a subset of G."""

    _fields = ("grammar", "group")

    def __init__(self, grammar: CFGrammar, group: GroupParams):
        self.__dict__.update(grammar=grammar, group=group)
        if grammar._rank <= group.m:
            return
        for tok in grammar.terminals:
            if token_dimension(tok) > group.m:
                raise ValueError(
                    f"terminal {tok!r} is outside the rank-{group.m} alphabet"
                )

    @cached_property
    def _elements(self) -> dict:
        return {}

    def sample_element(self, policy: SamplePolicy) -> GroupElement:
        """The element of a seeded sample word.

        The word is drawn by ``sample_grammar``; its element is kept in a
        table (sampled word -> element) that stops adding at
        ``VALUE_TABLE_BOUND`` words, so a repeated word is not evaluated
        again.
        """
        word = sample_grammar(self.grammar, policy)
        elements = self._elements
        element = elements.get(word)
        if element is None:
            element = self.group.evaluate(word)
            if len(elements) < VALUE_TABLE_BOUND:
                elements[word] = element
        return element


def sample_grammar(grammar: CFGrammar, policy: SamplePolicy) -> tuple:
    """One word of L(grammar) by a seeded leftmost derivation.

    Deterministic in (grammar, policy): the policy seed starts a fresh
    generator.  Attempts that exceed ``max_length`` tokens are abandoned and
    retried, up to a fixed budget.  The sampler table is built once per
    grammar; a pick draws what ``random.choice`` draws (``getrandbits`` of
    the pool size's bit length until below the size, one-option pools too),
    so the stream and every word are those of ``random.choice``.
    """
    rng = random.Random(policy.seed)
    for _ in range(_SAMPLE_ATTEMPTS):
        word = _derive_once(grammar, policy, rng)
        if word is not None:
            return word
    raise SampleBudgetError(
        f"no derivation within {policy.max_length} tokens "
        f"after {_SAMPLE_ATTEMPTS} attempts"
    )


def _derive_once(grammar, policy, rng) -> Optional[tuple]:
    """One attempt: a leftmost derivation, one iterator per expansion."""
    draws = grammar._draws
    nts = grammar._nt_set
    max_length = policy.max_length
    depth_cap = policy.depth_cap
    bias = None  # float(policy.terminal_bias), converted when first needed
    getrandbits = rng.getrandbits
    out: list = []
    frames = [(iter((grammar.start,)), 0)]  # (rest of a rhs, its depth)
    steps = 0
    budget = 16 * (max_length + depth_cap) + 64
    while frames:
        rhs, depth = frames[-1]
        for sym in rhs:
            if sym not in nts:
                out.append(sym)
                if len(out) > max_length:
                    return None
                continue
            steps += 1
            if steps > budget:
                return None
            (pool, n, bits), finishers = draws[sym]
            if depth > depth_cap and finishers:
                if bias is None:
                    bias = float(policy.terminal_bias)
                if rng.random() < bias:
                    pool, n, bits = finishers
            pick = getrandbits(bits)
            while pick >= n:
                pick = getrandbits(bits)
            frames.append((iter(pool[pick]), depth + 1))
            break
        else:
            frames.pop()
    return tuple(out)


# ---------------------------------------------------------------------------
# membership: Earley recognition


def cfg_membership(word: Sequence[str], grammar: CFGrammar) -> bool:
    """Exact language membership by Earley recognition (Earley 1970).

    An item (lhs, rhs, dot, origin) runs over the productive rules of the
    grammar as written.  Set i holds the items that have matched
    word[origin:i].  Items waiting on a terminal are kept apart from items
    waiting on a nonterminal, so a nonterminal named like a token is never
    scanned.  A nullable nonterminal is stepped over when it is predicted
    (Aycock & Horspool 2002), so an empty completion never revisits its own
    set.  The cost follows the grammar's ambiguity: cubic in the word
    length in the worst case.
    """
    word = tuple(word)
    rules_for = grammar._productive_rules_by_lhs
    nullable = grammar._nullable
    nts = grammar._nt_set
    start = grammar.start
    waiting: list = []  # per set: nonterminal -> items whose dot is before it
    agenda = [(start, rhs, 0, 0) for rhs in rules_for[start]]
    for i in range(len(word) + 1):
        seen = set(agenda)
        on_nt: dict = {}
        on_tok: dict = {}
        waiting.append(on_nt)
        while agenda:
            item = agenda.pop()
            lhs, rhs, dot, origin = item
            if dot == len(rhs):
                if origin == i:
                    continue  # lhs is nullable: its waiters were stepped over
                advanced = [(lh, rh, d + 1, o)
                            for lh, rh, d, o in waiting[origin].get(lhs, ())]
            else:
                sym = rhs[dot]
                if sym not in nts:
                    on_tok.setdefault(sym, []).append(item)
                    continue
                advanced = []
                if sym not in on_nt:
                    on_nt[sym] = []
                    advanced = [(sym, r, 0, i) for r in rules_for[sym]]
                on_nt[sym].append(item)
                if sym in nullable:
                    advanced.append((lhs, rhs, dot + 1, origin))
            for new in advanced:
                if new not in seen:
                    seen.add(new)
                    agenda.append(new)
        if i == len(word):
            return any((start, rhs, len(rhs), 0) in seen
                       for rhs in rules_for[start])
        agenda = [(lh, rh, d + 1, o)
                  for lh, rh, d, o in on_tok.get(word[i], ())]
        if not agenda:
            return False


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


def cfg_closure(grammar: CFGrammar) -> CFGrammar:
    """Grammar for (L u L^-1)*: its image is the subgroup generated by L's."""
    return cfg_star(cfg_union(grammar, cfg_invert(grammar)))


def subgroup_closure(spec: SubsetSpec) -> SubsetSpec:
    """The subgroup generated by the image of ``spec``, as a spec."""
    return SubsetSpec(cfg_closure(spec.grammar), spec.group)


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
# shortest yields (used by the attack harness)


def shortest_word(grammar: CFGrammar, nt: Optional[str] = None) -> tuple:
    """A minimum-length terminal yield of ``nt`` (default: the start symbol),
    looked up in the grammar's table of shortest words."""
    nt = grammar.start if nt is None else nt
    yields = grammar._yields
    if nt not in yields:
        raise GrammarError(f"nonterminal {nt!r} is unproductive")
    return yields[nt]
