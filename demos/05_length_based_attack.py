"""Length-based attacks against seeded protocol instances.

The greedy walk works one subgroup generator at a time; the beam descent
works down the published grammar's derivations.  Success is certified: the
recovered pair must reproduce the intercepted message exactly and commute
with the opposite subset (certified in the abelian base hull, sampled
outside it).
"""

from subsetkex import (
    GridPoint,
    build_p1_instance,
    derivation_descent,
    rst_greedy,
    run_experiments,
)

abelian = GridPoint(
    grid_id="abelian-m2",
    rows=((1, 0), (0, 1)),
    u=(1, 0), v=(0, 1), w=(1, (1, 1), 0),
    max_length=6, max_iter=24, beam=4, max_nodes=128, gens_window=0,
)

instance = build_p1_instance(abelian, trial_seed=2024)
print("intercepted message:", instance.target)

result = rst_greedy(instance, max_iter=24)
print(f"greedy walk: success={result.success} in {result.iterations} steps")
if result.success:
    a, b = result.recovered
    print("  recovered a =", a, " b =", b)
    print("  a w b == target:", a * instance.pub.w * b == instance.target)

result = derivation_descent(instance, beam=4, max_nodes=128, max_len=8)
print(f"beam descent: success={result.success} after {result.iterations} nodes")

hnn = GridPoint(
    grid_id="bs2",
    rows=((2,),),
    u=(1,), v=(1,), w=(1, (1,), 1),
    max_length=10, max_iter=32, beam=4, max_nodes=128, gens_window=2,
)

print("\nsweep over two instance families (byte-stable CSV):")
print(run_experiments([abelian, hnn], trials=5, seed=7), end="")
