"""Walkthrough: exact inference on a singly connected (polytree) network.

Multi-parent variables break the plain tree machinery, so the engine first
compiles the network into a clique tree whose nodes group each variable with
its parents, then runs the same contraction hierarchy on the cliques.  This
script builds the classic noisy-OR style alarm story as a polytree, posts
findings, and reads posterior marginals back out, cross-checking the small
network against brute-force enumeration over the joint.
"""

import itertools

import numpy as np

from treebelief import Polytree, PolytreeEngine

# ----------------------------------------------------------------------
# The network: Burglary and Earthquake are independent causes of Alarm;
# Alarm drives two independent effects, JohnCalls and MaryCalls.
#
#     B   E
#      \ /
#       A
#      / \
#     J   M
#
# All variables are binary (0 = false, 1 = true).  CPT rows are indexed by
# the joint parent assignment, first parent most significant.

pt = Polytree(k=2)
pt.add_variable("B", ())
pt.add_variable("E", ())
pt.add_variable("A", ("B", "E"))
pt.add_variable("J", ("A",))
pt.add_variable("M", ("A",))

pt.set_cpt("B", [0.999, 0.001])
pt.set_cpt("E", [0.998, 0.002])
pt.set_cpt("A", [  # rows: (B,E) = 00, 01, 10, 11
    [0.999, 0.001],
    [0.710, 0.290],
    [0.060, 0.940],
    [0.050, 0.950],
])
pt.set_cpt("J", [[0.95, 0.05], [0.10, 0.90]])
pt.set_cpt("M", [[0.99, 0.01], [0.30, 0.70]])

engine = PolytreeEngine(pt)
print(f"variables: {sorted(pt.variables())}")
print(f"clique size after padding: {engine.n_clique} members "
      f"(state space {pt.k ** engine.n_clique} per clique)")

# ----------------------------------------------------------------------
# Prior marginals, before any finding is posted.

for var in ("B", "E", "A", "J", "M"):
    print(f"P({var}) = {engine.bel_query(var)}")

# ----------------------------------------------------------------------
# John calls.  Then Mary also calls.  Watch the burglary posterior climb.

print("\nposting J=1 (John calls)")
engine.update_evidence("J", [0, 1])
print(f"P(B | J=1) = {engine.bel_query('B')}")

print("posting M=1 (Mary calls)")
engine.update_evidence("M", [0, 1])
post_b = engine.bel_query("B")
post_e = engine.bel_query("E")
print(f"P(B | J=1, M=1) = {post_b}")
print(f"P(E | J=1, M=1) = {post_e}")

# ----------------------------------------------------------------------
# Cross-check against brute force: enumerate all 2^5 joint assignments,
# weigh each by its factorized probability times the evidence likelihood,
# and marginalize by hand.

order = ("B", "E", "A", "J", "M")
parents = {"B": (), "E": (), "A": ("B", "E"), "J": ("A",), "M": ("A",)}
cpts = {v: np.asarray(pt.cpt[v]) for v in order}
evidence = {"J": np.array([0, 1.0]), "M": np.array([0, 1.0])}

marg = {v: np.zeros(2) for v in order}
for assign in itertools.product(range(2), repeat=len(order)):
    state = dict(zip(order, assign))
    p = 1.0
    for v in order:
        row = 0
        for par in parents[v]:
            row = row * 2 + state[par]
        table = cpts[v]
        p *= table[state[v]] if table.ndim == 1 else table[row, state[v]]
    for v, lik in evidence.items():
        p *= lik[state[v]]
    for v in order:
        marg[v][state[v]] += p

for v in ("B", "E"):
    brute = marg[v] / marg[v].sum()
    got = engine.bel_query(v)
    assert np.allclose(got, brute, atol=1e-12), (v, got, brute)
print("\nbrute-force enumeration over the joint agrees to 1e-12")

# Soft evidence works the same way: a likelihood vector rather than a
# hard finding.  Retracting is just posting all-ones again.
engine.update_evidence("J", [1, 1])
engine.update_evidence("M", [1, 1])
print(f"after retracting both findings, P(B) = {engine.bel_query('B')}")
