"""Grammars as finite carriers of group subsets.

An orbit grammar describes all conjugates t^-k w t^k of a word; passing to
(L u L^-1)* describes the subgroup those conjugates generate, which in this
family is not finitely generated.  Sampling and Earley membership make the
subsets usable as protocol ingredients.
"""

from dataclasses import replace

from subsetkex import (
    GroupParams,
    IntMatrix,
    SamplePolicy,
    cfg_membership,
    orbit_grammar,
    orbit_spec,
    sample_grammar,
    subgroup_closure,
)
from subsetkex.serialize import dumps, encode_grammar

G = GroupParams(IntMatrix(((2,),)))

orbit = orbit_grammar(G, ("x1",), "integers")
print("orbit grammar as published JSON:")
print(" ", dumps(encode_grammar(orbit)))

print("\nmembership checks:")
for word in (("x1",), ("t^-1", "x1", "t"), ("t", "x1", "t^-1"), ("x1", "t")):
    print(f"  {word!r:34} in L: {cfg_membership(word, orbit)}")

closed = subgroup_closure(orbit_spec(G, ("x1",), "integers"))
policy = SamplePolicy(max_length=18, depth_cap=3)
print("\nseeded samples of the generated subgroup (word -> element):")
for seed in (0, 5, 7, 9, 11, 12):
    w = sample_grammar(closed.grammar, replace(policy, seed=seed))
    g = G.evaluate(w)
    print(f"  seed {seed}: {' '.join(w) or '(empty)':42} -> {g}")
    assert cfg_membership(w, closed.grammar)

# every sample lies in the normal closure of the base: stable exponent zero
assert all(
    closed.sample_element(replace(policy, seed=s)).oracle().d == 0
    for s in range(40)
)
print("\nall closure samples have stable-letter exponent 0 in the oracle")
