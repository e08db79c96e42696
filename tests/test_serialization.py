"""Wire formats: canonical emission, strict decoding, byte-stable round trips."""

import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from subsetkex import (
    GroupElement,
    GroupParams,
    IntMatrix,
    SamplePolicy,
    orbit_grammar,
    subgroup_closure,
    orbit_spec,
)
from subsetkex.serialize import (
    MAX_DIM,
    MAX_STABLE_EXPONENT,
    MAX_WINDOW,
    SCHEMAS,
    Row,
    SchemaError,
    decode_element,
    decode_grammar,
    decode_group,
    decode_policy,
    decode_vector,
    decode_word,
    dumps,
    encode_element,
    encode_grammar,
    encode_matrix,
    encode_policy,
    encode_vector,
    encode_word,
    loads,
)


def round_trip_matrix(group):
    text = dumps(encode_matrix(group))
    again = decode_group(loads(text))
    return dumps(encode_matrix(again)) == text


def test_matrix_round_trip(bs2, upper2):
    assert round_trip_matrix(bs2)
    assert round_trip_matrix(upper2)
    assert dumps(encode_matrix(upper2)) == '{"m":2,"rows":[[2,1],[0,3]]}'


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        decode_group({"m": 2, "rows": [[1, 0]]})
    with pytest.raises(SchemaError):
        decode_group({"m": 1, "rows": [[0]]})  # singular
    with pytest.raises(SchemaError):
        decode_group({"m": 1, "rows": [[1]], "extra": 1})
    with pytest.raises(SchemaError):
        decode_group({"m": "1", "rows": [[1]]})


def test_element_round_trip(upper2):
    g = upper2.element(1, (3, -7), 0)
    text = dumps(encode_element(g))
    assert text == '{"p":1,"v":["3","-7"],"q":0}'
    again = decode_element(upper2, loads(text))
    assert again == g
    assert dumps(encode_element(again)) == text


def test_element_big_entries_round_trip(bs2):
    g = bs2.base((2 ** 200 + 1,))
    text = dumps(encode_element(g))
    assert decode_element(bs2, loads(text)) == g


def test_element_schema_errors(bs2):
    with pytest.raises(SchemaError):
        decode_element(bs2, {"p": 0, "v": [1], "q": 0})  # ints must be strings
    with pytest.raises(SchemaError):
        decode_element(bs2, {"p": 0, "v": ["1", "2"], "q": 0})
    with pytest.raises(SchemaError):
        decode_element(bs2, {"p": -1, "v": ["1"], "q": 0})


def test_element_stable_exponent_bound(flat2):
    # every vector lies in Im M for the identity action, so reducing this
    # triple would take 10^9 preimage steps
    text = '{"p":1000000000,"v":["1","0"],"q":1000000000}'
    t0 = time.perf_counter()
    with pytest.raises(SchemaError):
        decode_element(flat2, loads(text))
    assert time.perf_counter() - t0 < 0.1
    edge = {"p": MAX_STABLE_EXPONENT, "v": ["0", "0"], "q": MAX_STABLE_EXPONENT}
    assert decode_element(flat2, edge).is_identity()


def test_unimodular_element_decodes_in_one_step():
    # |det M| = 1 puts every vector in Im M, so all min(p, q) stable pairs
    # cancel; stepwise that is 2^16 preimages with growing entries
    group = GroupParams(IntMatrix(((2, 1), (1, 1))))
    t0 = time.perf_counter()
    g = group.element(MAX_STABLE_EXPONENT, (1, 0), MAX_STABLE_EXPONENT)
    assert time.perf_counter() - t0 < 0.2
    assert g.p == g.q == 0
    for rows in (((2, 1), (1, 1)), ((0, 1), (1, 0)), ((1, 1, 0), (0, -1, 1), (0, 0, 1))):
        group = GroupParams(IntMatrix(rows))
        v = tuple(range(3, 3 + group.m))
        for k in range(6):
            w = v
            for _ in range(k):
                w = group.preimage_under_phi(w)
            assert group.element(k + 1, v, k) == GroupElement(group, 1, w, 0)
            assert group.element(k, v, k + 2) == GroupElement(group, 0, w, 2)


def test_unencodable_element_refused():
    # reduction grows the entries past the digits str() of an int may have
    group = GroupParams(IntMatrix(((2, 1), (1, 1))))
    edge = {"p": MAX_STABLE_EXPONENT, "v": ["1", "0"], "q": MAX_STABLE_EXPONENT}
    t0 = time.perf_counter()
    with pytest.raises(SchemaError):
        decode_element(group, edge)
    assert time.perf_counter() - t0 < 0.2
    g = decode_element(group, {"p": 8192, "v": ["1", "0"], "q": 8192})
    assert max(e.bit_length() for e in g.v) == 11374
    text = dumps(encode_element(g))
    assert dumps(encode_element(decode_element(group, loads(text)))) == text


def test_decimal_strings_strict(bs2):
    # int() would take each of these; none re-encodes to its input
    for bad in ("1_000", " 12 ", "+5", "\u0663", "007", "-0", "-007", "00"):
        with pytest.raises(SchemaError, match="not a decimal integer"):
            decode_vector([bad])
        with pytest.raises(SchemaError, match="not a decimal integer"):
            decode_element(bs2, {"p": 0, "v": [bad], "q": 0})
    for good in ("-123", "7" * 4000, "0", "10", "-10"):
        assert encode_vector(decode_vector([good])) == [good]
        obj = {"p": 0, "v": [good], "q": 0}
        assert encode_element(decode_element(bs2, obj)) == obj


def test_duplicate_keys_refused(upper2):
    # json.loads alone would keep the last value of a repeated key
    for text in ('{"p":0,"v":["1","2"],"q":0,"q":1}',
                 '{"p":0,"v":["1","2"],"q":0,"q":0}',
                 '{"m":2,"rows":[[2,1],[0,3]],"m":2}',
                 '[{"lhs":"S","rhs":[],"lhs":"S"}]'):
        with pytest.raises(SchemaError, match="duplicate key"):
            loads(text)
    obj = loads('{"p":0,"v":["1","2"],"q":1}')
    assert dumps(encode_element(decode_element(upper2, obj))) == (
        '{"p":0,"v":["1","2"],"q":1}')


def test_plain_integer_minus_zero_refused():
    # json.loads reads -0 as the int 0, which would be re-emitted as 0
    for text in ('{"m":2,"rows":[[2,-0],[0,3]]}',
                 '{"max_length":24,"depth_cap":4,"terminal_bias":"3/4",'
                 '"seed":-0}',
                 '{"p":-0,"v":["1","2"],"q":0}', "[-0]"):
        with pytest.raises(SchemaError, match="-0 is not canonical"):
            loads(text)
    text = '{"m":2,"rows":[[2,0],[-10,-3]]}'
    assert dumps(encode_matrix(decode_group(loads(text)))) == text
    assert loads("[0,-1,10,-10,-0.0]") == [0, -1, 10, -10, 0.0]


def test_plain_integer_past_digit_limit_refused():
    # int() raises a plain ValueError past Python's integer-string limit
    limit = sys.get_int_max_str_digits()
    for text in ('{"seed": 1' + "0" * limit + "}",
                 "[-" + "9" * (limit + 1) + "]"):
        with pytest.raises(SchemaError,
                           match=f"^JSON integer exceeds {limit} digits$"):
            loads(text)
    assert loads("[" + "9" * limit + "]") == [10 ** limit - 1]


def test_vector_and_word(bs2):
    assert encode_vector((3, -7)) == ["3", "-7"]
    assert decode_vector(["3", "-7"]) == (3, -7)
    with pytest.raises(SchemaError):
        decode_vector(["1.5"])
    word = ("t^-1", "x1", "t")
    assert decode_word(encode_word(word)) == word
    with pytest.raises(SchemaError):
        decode_word(["z9"])
    with pytest.raises(SchemaError):
        decode_word(["x2"], m=1)


def test_grammar_round_trip(bs2):
    for grammar in (
        orbit_grammar(bs2, ("x1",), "naturals"),
        orbit_grammar(bs2, ("x1",), "integers"),
        subgroup_closure(orbit_spec(bs2, ("x1",), "integers")).grammar,
    ):
        text = dumps(encode_grammar(grammar))
        again = decode_grammar(loads(text))
        assert again == grammar
        assert dumps(encode_grammar(again)) == text


def test_grammar_example_bytes():
    obj = loads(
        '{"nonterminals":["S"],"start":"S",'
        '"rules":[{"lhs":"S","rhs":["t^-1","S","t"]},{"lhs":"S","rhs":["x1"]}]}'
    )
    grammar = decode_grammar(obj)
    assert dumps(encode_grammar(grammar)) == dumps(obj)


def test_grammar_epsilon_rule():
    grammar = decode_grammar(
        {"nonterminals": ["S"], "start": "S",
         "rules": [{"lhs": "S", "rhs": []}]})
    assert grammar.rules == (("S", ()),)


def test_grammar_schema_errors():
    with pytest.raises(SchemaError):
        decode_grammar({"nonterminals": ["S"], "start": "S"})
    with pytest.raises(SchemaError):
        decode_grammar(
            {"nonterminals": ["S"], "start": "S",
             "rules": [{"lhs": "S", "rhs": "x1"}]})


def test_policy_round_trip():
    pol = SamplePolicy(max_length=24, depth_cap=4, seed=17)
    text = dumps(encode_policy(pol))
    assert decode_policy(loads(text)) == pol
    assert dumps(encode_policy(decode_policy(loads(text)))) == text
    with pytest.raises(SchemaError):
        decode_policy({"max_length": 1, "depth_cap": 1,
                       "terminal_bias": 0.5, "seed": 0})


def test_layout_normalised():
    """Decoders take any key order, layout, string escape, rational
    spelling and unreduced element, and the encoders emit the canonical
    text: the normalisations README's "Wire formats" lists."""
    row = SCHEMAS["grid entry"]
    text = ('{ "w": {"q": 1, "v": ["2"], "p": 1},\n  "rows": [[2]],'
            ' "grid_id": "\\u0067\\/", "v": ["1"], "u": ["1"], "max_iter": 5 }')
    assert dumps(row.encode(row.decode(loads(text)))) == (
        '{"grid_id":"g/","rows":[[2]],"u":["1"],"v":["1"],'
        '"w":{"p":0,"v":["1"],"q":0},"max_iter":5}')
    for bias in ("6/8", "0.75", " 3/4 "):
        obj = {"seed": 0, "terminal_bias": bias, "depth_cap": 4,
               "max_length": 24}
        assert dumps(encode_policy(decode_policy(obj))) == (
            '{"max_length":24,"depth_cap":4,"terminal_bias":"3/4","seed":0}')


# values of every size a decoder takes, some of them extreme
_INTS = st.integers(-3, 3) | st.sampled_from((2 ** 64, -(3 ** 200),
                                              10 ** 1000 + 7))


@st.composite
def _groups(draw):
    if draw(st.booleans()):  # the largest dimension, diagonal
        diagonal = draw(st.lists(st.sampled_from((1, -1, 2 ** 40)),
                                 min_size=MAX_DIM, max_size=MAX_DIM))
        return GroupParams(IntMatrix(tuple(
            tuple(d * (i == j) for j in range(MAX_DIM))
            for i, d in enumerate(diagonal))))
    m = draw(st.integers(1, 3))
    entry = st.integers(-3, 3) | st.sampled_from((2 ** 40, -(2 ** 70)))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m).map(tuple),
                         min_size=m, max_size=m).map(tuple))
    try:
        return GroupParams(IntMatrix(rows))
    except ValueError:  # singular
        return GroupParams(IntMatrix(((1,),)))


def _vectors(group):
    return st.lists(_INTS, min_size=group.m, max_size=group.m).map(tuple)


def _elements(group, cap):
    return st.builds(group.element, st.integers(0, 3) | st.just(cap),
                     _vectors(group), st.integers(0, 3))


# Codec kind -> strategy of its decoded values, given the file's group and
# the key's least value
_VALUES = {
    "group": lambda group, least: _groups(),
    "orbit": lambda group, least: _vectors(group).filter(any),
    "element": lambda group, least: _elements(group, MAX_STABLE_EXPONENT),
    "target": lambda group, least: _elements(group, MAX_WINDOW),
    "range": lambda group, least: st.sampled_from(("naturals", "integers")),
    "policy": lambda group, least: st.builds(
        SamplePolicy, st.integers(1, 10 ** 30), st.integers(1, 10 ** 30),
        st.fractions(0, 1).filter(lambda f: f > 0), _INTS),
    "window": lambda group, least: st.integers(0, MAX_WINDOW),
    "window or null": lambda group, least: (
        st.none() | st.integers(0, MAX_WINDOW)),
    "count": lambda group, least: st.integers(least, 10 ** 30) | st.just(least),
    "seed": lambda group, least: _INTS,
    "grid_id": lambda group, least: st.text(
        st.characters(exclude_characters=",\r\n")),
}


def _draw_values(draw, row, values, context):
    """Draw a value for each key of row (and of its nested rows) that a
    file must have or, by a coin flip, may have."""
    for key, codec in row.keys.items():
        if isinstance(codec, Row):
            _draw_values(draw, codec, values, context)
        elif not isinstance(codec, str) and (
                key not in row.optional or draw(st.booleans())):
            values[key] = draw(_VALUES[codec.kind](
                context.get("group"), row.optional.get(key)))
            if codec.kind == "group":
                context["group"] = values[key]


def _objects(row, obj):
    """(row, JSON object) of a file and of each object nested in it."""
    yield row, obj
    for key, codec in row.keys.items():
        if isinstance(codec, Row):
            yield from _objects(codec, obj[key])


@pytest.mark.parametrize("name", sorted(SCHEMAS))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_schema_round_trip_and_refusals(name, data):
    """Every row of the table: emit -> parse -> emit is byte-identical, and
    dropping, adding or retyping one key is refused."""
    row = SCHEMAS[name]
    values = {}
    _draw_values(data.draw, row, values, {})
    text = dumps(row.encode(values))
    again = row.decode(loads(text))
    assert again == values
    assert dumps(row.encode(again)) == text
    obj = loads(text)
    at, target = data.draw(st.sampled_from(list(_objects(row, obj))))
    how = data.draw(st.sampled_from(("drop", "add", "retype")))
    if how == "drop":
        del target[data.draw(st.sampled_from(
            [key for key in at.keys if key not in at.optional]))]
    elif how == "add":
        target["extra"] = 0
    else:
        key = data.draw(st.sampled_from(sorted(target)))
        target[key] = "x" if isinstance(target[key], list) else []
    with pytest.raises(SchemaError):
        row.decode(obj)
