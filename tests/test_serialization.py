"""Wire formats: canonical emission, strict decoding, byte-stable round trips."""

import time

import pytest

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
    MAX_STABLE_EXPONENT,
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
