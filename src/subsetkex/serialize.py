"""Canonical JSON wire formats.

Field order is fixed and emission is canonical (compact separators, no key
sorting beyond construction order), so parse -> emit round-trips are
byte-identical.  Big integers travel as decimal strings (ASCII
``0|-?[1-9][0-9]*``) inside element and vector encodings; matrix entries
are plain JSON integers.  Objects with a duplicate key are refused.

    matrix   {"m":2,"rows":[[2,1],[0,3]]}
    element  {"p":1,"v":["3","-7"],"q":0}
    word     ["t^-1","x1","t"]
    grammar  {"nonterminals":[...],"start":"S","rules":[{"lhs":..,"rhs":[..]}]}
    policy   {"max_length":24,"depth_cap":4,"terminal_bias":"3/4","seed":0}

Decoders validate shape strictly (exact key sets, value types) and raise
SchemaError; anything structural beyond that (say, an empty-language
grammar) surfaces as the owning module's error.  Element stable exponents
above MAX_STABLE_EXPONENT are refused: Britton reduction may take one step
per unit of min(p, q), so a few bytes of JSON could otherwise stall it.  So
is an element whose reduced entries have more decimal digits than Python
converts (``sys.get_int_max_str_digits``): it could not be encoded again.
Attack windows (a lattice window K, or a generator window g giving the
conjugates t^-k u t^k for |k| <= g) are integers in 0..MAX_WINDOW: the
window basis has at most m rows of about K log2|det M| bits, and a generator
window multiplies every attack step by 2(2g+1) candidates.  The same cap
bounds each stable exponent of an attack target, which sets the window of
a candidate given no explicit one.  Words tested for grammar membership
have at most MAX_MEMBER_WORD tokens: Earley recognition is cubic in the
word length in the worst case.  A group has dimension m of at most MAX_DIM:
the lattice work of an attack grows steeply in m.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

from .grammars import CFGrammar, SamplePolicy
from .groups import GroupElement, GroupParams, IntMatrix, is_valid_token

__all__ = [
    "MAX_STABLE_EXPONENT",
    "MAX_WINDOW",
    "MAX_MEMBER_WORD",
    "MAX_DIM",
    "SchemaError",
    "dumps",
    "loads",
    "encode_matrix",
    "decode_group",
    "encode_vector",
    "decode_vector",
    "encode_element",
    "decode_element",
    "encode_word",
    "decode_word",
    "encode_grammar",
    "decode_grammar",
    "encode_policy",
    "decode_policy",
    "decode_window",
]


MAX_STABLE_EXPONENT = 1 << 16
MAX_WINDOW = 64
MAX_MEMBER_WORD = 128
MAX_DIM = 24
_DECIMAL = re.compile("0|-?[1-9][0-9]*")  # ASCII only, unlike int()


class SchemaError(ValueError):
    """Input does not match the expected JSON schema."""


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise SchemaError("JSON object has a duplicate key")
    return obj


def loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def _require_keys(obj, keys, what: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    if set(obj) != set(keys):
        raise SchemaError(
            f"{what} must have exactly the keys {sorted(keys)}, "
            f"got {sorted(obj)}"
        )


def _as_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{what} must be an integer")
    return value


def _as_bigint(value, what: str) -> int:
    if not isinstance(value, str):
        raise SchemaError(f"{what} must be a decimal string")
    if _DECIMAL.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    raise SchemaError(f"{what} is not a decimal integer: {value!r}")


# ---------------------------------------------------------------------------
# matrices and groups


def encode_matrix(group: GroupParams) -> dict:
    return {"m": group.m, "rows": [list(row) for row in group.matrix.rows]}


def decode_group(obj) -> GroupParams:
    _require_keys(obj, ("m", "rows"), "matrix")
    m = _as_int(obj["m"], "matrix field 'm'")
    if m > MAX_DIM:
        raise SchemaError(f"matrix dimension exceeds {MAX_DIM}")
    rows = obj["rows"]
    if not isinstance(rows, list) or len(rows) != m:
        raise SchemaError("matrix field 'rows' must list exactly m rows")
    for row in rows:
        if not isinstance(row, list) or len(row) != m:
            raise SchemaError("matrix rows must each have m integer entries")
        for e in row:
            _as_int(e, "matrix entry")
    try:
        return GroupParams(IntMatrix(tuple(tuple(row) for row in rows)))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


# ---------------------------------------------------------------------------
# vectors, elements, words


def encode_vector(v) -> list:
    return [str(int(e)) for e in v]


def decode_vector(obj, m: Optional[int] = None) -> tuple:
    if not isinstance(obj, list):
        raise SchemaError("vector must be a JSON array of decimal strings")
    if m is not None and len(obj) != m:
        raise SchemaError(f"vector must have {m} entries, got {len(obj)}")
    return tuple(_as_bigint(e, "vector entry") for e in obj)


def encode_element(g: GroupElement) -> dict:
    return {"p": g.p, "v": encode_vector(g.v), "q": g.q}


def decode_element(group: GroupParams, obj) -> GroupElement:
    _require_keys(obj, ("p", "v", "q"), "element")
    p = _as_int(obj["p"], "element field 'p'")
    q = _as_int(obj["q"], "element field 'q'")
    if max(p, q) > MAX_STABLE_EXPONENT:
        raise SchemaError(f"element stable exponents exceed {MAX_STABLE_EXPONENT}")
    v = decode_vector(obj["v"], group.m)
    try:
        g = group.element(p, v, q)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    try:
        for e in g.v:
            str(e)  # reduction can grow entries past the int -> str digit limit
    except ValueError:
        raise SchemaError("reduced element is too large to encode") from None
    return g


def encode_word(word) -> list:
    return list(word)


def decode_word(obj, m: Optional[int] = None) -> tuple:
    if not isinstance(obj, list):
        raise SchemaError("word must be a JSON array of token strings")
    for tok in obj:
        if not isinstance(tok, str) or not is_valid_token(tok, m):
            raise SchemaError(f"invalid token {tok!r}")
    return tuple(obj)


# ---------------------------------------------------------------------------
# grammars and policies


def encode_grammar(grammar: CFGrammar) -> dict:
    return {
        "nonterminals": list(grammar.nonterminals),
        "start": grammar.start,
        "rules": [
            {"lhs": lhs, "rhs": list(rhs)} for lhs, rhs in grammar.rules
        ],
    }


def decode_grammar(obj) -> CFGrammar:
    _require_keys(obj, ("nonterminals", "start", "rules"), "grammar")
    nts = obj["nonterminals"]
    if not isinstance(nts, list) or not all(isinstance(n, str) for n in nts):
        raise SchemaError("grammar nonterminals must be a list of strings")
    if not isinstance(obj["start"], str):
        raise SchemaError("grammar start must be a string")
    rules = obj["rules"]
    if not isinstance(rules, list):
        raise SchemaError("grammar rules must be a list")
    parsed = []
    for rule in rules:
        _require_keys(rule, ("lhs", "rhs"), "grammar rule")
        if not isinstance(rule["lhs"], str):
            raise SchemaError("rule lhs must be a string")
        rhs = rule["rhs"]
        if not isinstance(rhs, list) or not all(isinstance(s, str) for s in rhs):
            raise SchemaError("rule rhs must be a list of strings")
        parsed.append((rule["lhs"], tuple(rhs)))
    return CFGrammar(tuple(nts), obj["start"], tuple(parsed))


def encode_policy(policy: SamplePolicy) -> dict:
    return {
        "max_length": policy.max_length,
        "depth_cap": policy.depth_cap,
        "terminal_bias": str(policy.terminal_bias),
        "seed": policy.seed,
    }


def decode_policy(obj) -> SamplePolicy:
    _require_keys(
        obj, ("max_length", "depth_cap", "terminal_bias", "seed"), "policy")
    bias_raw = obj["terminal_bias"]
    if not isinstance(bias_raw, str):
        raise SchemaError("policy terminal_bias must be a rational string")
    try:
        bias = Fraction(bias_raw)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"bad rational {bias_raw!r}") from None
    try:
        return SamplePolicy(
            max_length=_as_int(obj["max_length"], "policy max_length"),
            depth_cap=_as_int(obj["depth_cap"], "policy depth_cap"),
            terminal_bias=bias,
            seed=_as_int(obj["seed"], "policy seed"),
        )
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def decode_window(value, what: str) -> int:
    """An attack window: an integer in 0..MAX_WINDOW."""
    value = _as_int(value, what)
    if value < 0:
        raise SchemaError(f"{what} must be nonnegative")
    if value > MAX_WINDOW:
        raise SchemaError(f"{what} exceeds {MAX_WINDOW}")
    return value
