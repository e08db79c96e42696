"""Canonical JSON wire formats.

Emission is canonical: keys in wire order, compact separators.  Decoders
take any key order and layout, so parse -> emit returns canonical text byte
for byte and normalises the rest.  Big integers travel as decimal strings
(ASCII ``0|-?[1-9][0-9]*``) inside element and vector encodings; matrix
entries are plain JSON integers, never ``-0``; duplicate keys are refused.

    matrix   {"m":2,"rows":[[2,1],[0,3]]}
    element  {"p":1,"v":["3","-7"],"q":0}
    word     ["t^-1","x1","t"]
    grammar  {"nonterminals":[...],"start":"S","rules":[{"lhs":..,"rhs":[..]}]}
    policy   {"max_length":24,"depth_cap":4,"terminal_bias":"3/4","seed":0}

The files built from these (public blocks, instance files, grid entries)
are the rows of SCHEMAS; ``Row.decode`` walks a row and ``Row.encode``
emits it.

Decoders validate shape strictly (key sets, value types) and raise
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
import sys
from fractions import Fraction
from typing import Optional

from .grammars import RANGE_INTEGERS, RANGE_NATURALS, CFGrammar, SamplePolicy
from .groups import GroupElement, GroupParams, IntMatrix, is_valid_token

__all__ = [
    "MAX_STABLE_EXPONENT", "MAX_WINDOW", "MAX_MEMBER_WORD", "MAX_DIM",
    "SchemaError", "dumps", "loads", "encode_matrix", "decode_group",
    "encode_vector", "decode_vector", "encode_element", "decode_element",
    "encode_word", "decode_word", "encode_grammar", "decode_grammar",
    "encode_policy", "decode_policy", "decode_window", "Codec", "Row",
    "SCHEMAS", "decode_grid",
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


def _plain_int(text: str) -> int:
    if text == "-0":  # json.loads would read it as 0 and it re-emits as 0
        raise SchemaError("JSON integer -0 is not canonical")
    try:
        return int(text)
    except ValueError:  # the only failure: past Python's digit limit
        raise SchemaError(
            f"JSON integer exceeds {sys.get_int_max_str_digits()} digits"
        ) from None


def loads(text: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys,
                          parse_int=_plain_int)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None


def _require_keys(obj, keys, what: str, optional=()) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} must be a JSON object")
    if not optional and set(obj) != set(keys):
        raise SchemaError(
            f"{what} must have exactly the keys {sorted(keys)}, "
            f"got {sorted(obj)}"
        )
    required = set(keys) - set(optional)
    if not required <= set(obj):
        raise SchemaError(f"{what} needs the keys {sorted(required)}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise SchemaError(f"unknown {what} keys {sorted(unknown)}")


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
    return _POLICY_FIELDS.encode(vars(policy))


def decode_policy(obj) -> SamplePolicy:
    try:
        return SamplePolicy(**_POLICY_FIELDS.decode(obj))
    except ValueError as exc:  # SamplePolicy's own checks
        raise SchemaError(str(exc)) from None


def decode_window(value, what: str) -> int:
    """An attack window: an integer in 0..MAX_WINDOW."""
    value = _as_int(value, what)
    if value < 0:
        raise SchemaError(f"{what} must be nonnegative")
    if value > MAX_WINDOW:
        raise SchemaError(f"{what} exceeds {MAX_WINDOW}")
    return value


# ---------------------------------------------------------------------------
# file schemas


class Codec:
    """How one key travels: ``encode(value)`` gives its JSON, and
    ``decode(obj, group, key)`` reads it back in the file's group."""

    def __init__(self, kind: str, decode, encode=lambda value: value):
        self.kind, self.decode, self.encode = kind, decode, encode


class Row:
    """A file kind: its keys in wire order, each with a Codec, a nested Row
    (whose values join the outer row's) or a constant string, and the keys
    it may omit, each with its least value (None: no least value)."""

    def __init__(self, what: str, optional: Optional[dict] = None, **keys):
        self.what, self.optional, self.keys = what, optional or {}, keys

    def decode(self, obj, values: Optional[dict] = None) -> dict:
        """The values of a file of this kind by key, its nested rows' too.
        Keys are read in wire order, each in the file's group (its ``group``
        or a grid entry's ``rows``), so the group comes first."""
        _require_keys(obj, self.keys, self.what, self.optional)
        values = {} if values is None else values
        for key, codec in self.keys.items():
            if isinstance(codec, Row):
                codec.decode(obj[key], values)
            elif isinstance(codec, str):
                if obj[key] != codec:
                    raise SchemaError(f"instance {key} must be {codec!r}")
            elif key in obj:
                group = values.get("group", values.get("rows"))
                value = values[key] = codec.decode(obj[key], group, key)
                least = self.optional.get(key)
                if least is not None and value < least:
                    raise SchemaError(f"{key} must be at least {least}" if
                                      least else f"{key} must be nonnegative")
        return values

    def encode(self, values: dict) -> dict:
        """The JSON object of a file of this kind, keys in wire order; an
        optional key is emitted only where ``values`` has it."""
        return {key: (codec if isinstance(codec, str)
                      else codec.encode(values) if isinstance(codec, Row)
                      else codec.encode(values[key]))
                for key, codec in self.keys.items()
                if key in values or key not in self.optional}


def _decode_range(obj, group, key) -> str:
    if obj not in (RANGE_NATURALS, RANGE_INTEGERS):
        raise SchemaError(f"unknown orbit range {obj!r}")
    return obj


def _decode_orbit(obj, group, key) -> tuple:
    v = decode_vector(obj, group.m)
    if not any(v):
        raise SchemaError("orbit word must be nonempty")
    return v


def _decode_target(obj, group, key) -> GroupElement:
    # without a window, a candidate right factor gets p + q + 8 from its own
    # exponents, and the lattice work grows faster than linearly in it
    target = decode_element(group, obj)
    if max(target.p, target.q) > MAX_WINDOW:
        raise SchemaError(f"target stable exponents exceed {MAX_WINDOW}")
    return target


def _decode_rational(obj, group, key) -> Fraction:
    if not isinstance(obj, str):
        raise SchemaError(f"policy {key} must be a rational string")
    try:
        return Fraction(obj)
    except (ValueError, ZeroDivisionError):
        raise SchemaError(f"bad rational {obj!r}") from None


def _decode_grid_id(obj, group, key) -> str:
    if not isinstance(obj, str) or any(c in obj for c in ",\r\n"):
        raise SchemaError("grid_id must be a string without commas or line breaks")
    return obj


_GROUP = Codec("group", lambda obj, group, key: decode_group(obj), encode_matrix)
_ORBIT = Codec("orbit", _decode_orbit, encode_vector)  # a nonzero vector
_ELEMENT = Codec("element", lambda obj, group, key: decode_element(group, obj),
                 encode_element)
_RANGE = Codec("range", _decode_range)
_POLICY = Codec("policy", lambda obj, group, key: decode_policy(obj),
                encode_policy)
_WINDOW = Codec("window", lambda obj, group, key: decode_window(obj, key))
_COUNT = Codec("count", lambda obj, group, key: _as_int(obj, key))
_SEED = Codec("seed", lambda obj, group, key: _as_int(obj, "instance seed"))
_POLICY_INT = Codec("int", lambda obj, group, key: _as_int(obj, f"policy {key}"))
_POLICY_FIELDS = Row("policy", max_length=_POLICY_INT, depth_cap=_POLICY_INT,
                     terminal_bias=Codec("rational", _decode_rational, str),
                     seed=_POLICY_INT)
_P1_PUBLIC = Row("p1 params", group=_GROUP, u=_ORBIT, v=_ORBIT, w=_ELEMENT,
                 range=_RANGE, policy=_POLICY)
_P2_PUBLIC = Row("p2 params", group=_GROUP, w=_ELEMENT, u_alice=_ORBIT,
                 u_bob=_ORBIT, range=_RANGE, policy=_POLICY)

# every file kind that the CLI reads or writes, by name
SCHEMAS = {row.what: row for row in (
    _P1_PUBLIC, _P2_PUBLIC, Row("orbit-dh params", group=_GROUP, x=_ORBIT),
    Row("p1 instance", protocol="p1", params=_P1_PUBLIC, seed=_SEED,
        gens_window=_WINDOW,
        target=Codec("target", _decode_target, encode_element),
        secrets=Row("p1 secrets", a1=_ELEMENT, b1=_ELEMENT, a2=_ELEMENT,
                    b2=_ELEMENT)),
    Row("p2 instance", protocol="p2", params=_P2_PUBLIC, seed=_SEED),
    # a sweep grid entry: its group's matrix rows travel bare, and the
    # sweep takes attacks.GridPoint's default for each key left out
    Row("grid entry", dict(range=None, max_length=1, depth_cap=1, max_iter=0,
                           beam=1, max_nodes=0, gens_window=None, window=None),
        grid_id=Codec("grid_id", _decode_grid_id),
        rows=Codec("group", lambda obj, group, key: decode_group(
            {"m": len(obj) if isinstance(obj, list) else 0, "rows": obj}),
            lambda group: encode_matrix(group)["rows"]),
        u=_ORBIT, v=_ORBIT, w=_ELEMENT, range=_RANGE, max_length=_COUNT,
        depth_cap=_COUNT, max_iter=_COUNT, beam=_COUNT, max_nodes=_COUNT,
        gens_window=_WINDOW,
        window=Codec("window or null", lambda obj, group, key:
                     None if obj is None else decode_window(obj, key))),
)}


def decode_grid(obj) -> tuple:
    """The decoded entries of a sweep grid, a nonempty JSON array."""
    if not isinstance(obj, list) or not obj:
        raise SchemaError("grid must be a nonempty JSON array")
    return tuple(SCHEMAS["grid entry"].decode(entry) for entry in obj)
