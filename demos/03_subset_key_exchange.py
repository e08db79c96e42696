"""Both subset key-exchange protocols, end to end.

p1 publishes two commuting subsets and a word w; each party picks one factor
from each subset.  p2 keeps the anchors secret and publishes only grammars
for subsets of their centralizers.  Keys always agree exactly, in normal
form.
"""

from subsetkex import (
    GroupParams,
    IntMatrix,
    PublicParams2,
    SamplePolicy,
    p1_keys,
    p1_round,
    p1_setup,
    p2_exchange_full,
    p2_party_setup,
)

G = GroupParams(IntMatrix(((2, 1), (0, 3))))
w = G.element(1, (1, -1), 1)

# --- protocol 1 ---------------------------------------------------------------

pub = p1_setup(G, (1, 0), (0, 1), w)
policy_alice = SamplePolicy(max_length=14, depth_cap=3, seed=2024)
policy_bob = SamplePolicy(max_length=14, depth_cap=3, seed=4048)

alice, msg_a, bob, msg_b = p1_round(pub, policy_alice, policy_bob)
print("p1: Alice sends a1 w b1 =", msg_a)
print("p1: Bob   sends b2 w a2 =", msg_b)

key_a, key_b = p1_keys(pub, alice, msg_b, bob, msg_a)
print("p1: keys agree:", key_a == key_b)
print("p1: shared key =", key_a)

# --- protocol 2 ---------------------------------------------------------------

pub2 = PublicParams2(G, w)
state_a = p2_party_setup(pub2, (1, 0), SamplePolicy(max_length=14, depth_cap=3, seed=0))
state_b = p2_party_setup(pub2, (0, 1), SamplePolicy(max_length=14, depth_cap=3, seed=8))
print("\np2: Alice's anchor stays secret:", state_a.secret_anchor)

states, msgs, keys = p2_exchange_full(
    pub2, state_a, state_b, SamplePolicy(max_length=14, depth_cap=3, seed=9))
print("p2: messages on the wire:", msgs[0], "and", msgs[1])
print("p2: keys agree:", keys[0] == keys[1])
print("p2: shared key =", keys[0])
