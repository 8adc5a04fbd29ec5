"""Stateful differential test over the engine protocol.

One engine per `bench.ENGINE_CLASSES` entry, each on its own copy of one
tree, gets the same random writes and reads; the hierarchy engine also answers
batched reads (`bel_many`), each bitwise equal to its single read.  After every
step all of them must agree with `exact.propagate_all` on a reference copy that
holds the same evidence at scale 1 -- and with brute-force enumeration
(`exact.joint_marginals`) when the joint state space is small -- and the
hierarchy engine's cells must be bitwise equal to a fresh `build_hierarchy` on
its evidence.  A rebuild step replaces the hierarchy engine with one built over
its tree, so writes and reads also follow a build over posted evidence.  A
grow step gives one node a new evidence leaf on every tree and rebuilds every
engine, so the checks also run on a tree changed after its first sweep.  A
re-post step reads a likelihood back from the reference and posts it again,
scaled on the engines, and every tree must hold each likelihood as posted
and read it through the scale guard taken at the write.  A wide post gives
the engines a likelihood whose entries span the whole double range, and the
reference the same divided by its max.  On every tree, after every step,
`exact.propagate_all` must be bitwise the two-pass recursion node by node
(`per_node_sweep`), with equal op counts.

The machine runs three tenths of the loaded hypothesis profile's examples
(`tests/conftest.py`): 30 under `default`, 300 under `slow`.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from treebelief import exact, linalg
from treebelief.bench import ENGINE_CLASSES, make_balanced, make_chain, random_stochastic
from treebelief.contract import build_hierarchy
from treebelief.dynamic import DynamicEngine
from treebelief.errors import DimensionError
from treebelief.linalg import FactoredMatrix, OpCounter, rescale_if_tiny
from treebelief.tree import RawTree, binarize
from test_dynamic import assert_same_cells
from test_exact import mixed_join_tree
from util import (
    assert_same_evidence,
    attach_evidence_leaf,
    by_max,
    evidence_state,
    per_node_sweep,
    random_binarized_tree,
    same_bits,
    updatable_leaves,
    wide_likelihood,
)

TOL = 1e-9
ENUMERATION_LIMIT = 10**5  # joint states enumerated by the oracle invariant


def shared_chain(rng, k):
    """A chain shaped like `protein.ProteinChain`: windows 0..n-1, each with an
    evidence leaf, whose raw edges reuse one evidence and one transition
    matrix object, so every edge of the tree shares one of three matrices."""
    n = int(rng.integers(1, 10))
    raw = RawTree(k)
    for x in range(2 * n):
        raw.add_node(x)
    raw.set_root(0, random_stochastic(rng, 1, k)[0])
    emit, step = random_stochastic(rng, k, k), random_stochastic(rng, k, k)
    for t in range(n):
        raw.add_edge(t, n + t, emit)
        if t + 1 < n:
            raw.add_edge(t, t + 1, step)
    return binarize(raw)


def factors(m):
    """The arrays of an edge matrix: a factored one's two factors, else itself."""
    return (m.left, m.right) if isinstance(m, FactoredMatrix) else (m,)


# one tree per (shape, k, seed); the random shape has fan-out up to three, so
# it carries alias copies and dummy pads; the join tree has factored clique
# edges beside them, over k=2 variables in cliques of two (K=4, any k drawn)
SHAPES = {
    "chain": lambda rng, k: make_chain(int(rng.integers(1, 8)), k, rng),
    "random": lambda rng, k: random_binarized_tree(rng, int(rng.integers(2, 16)), k),
    "balanced": lambda rng, k: make_balanced(int(rng.integers(2, 9)), k, rng),
    "shared": shared_chain,
    "join": lambda rng, k: mixed_join_tree(rng, depth=int(rng.integers(1, 4))),
}

index = st.integers(0, 10**6)  # taken modulo the pool it picks from
values = st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4)  # cut to k


class EngineProtocol(RuleBasedStateMachine):
    @initialize(
        shape=st.sampled_from(sorted(SHAPES)),
        k=st.integers(2, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def build(self, shape, k, seed):
        make = lambda: SHAPES[shape](np.random.default_rng(seed), k)
        self.reference = make()
        self.k = self.reference.k
        self.leaves = updatable_leaves(self.reference)
        self.nodes = sorted(self.reference.names)
        self.engines = {name: cls(make()) for name, cls in ENGINE_CLASSES.items()}
        self.hierarchy = self.engines["hierarchy"]
        # leaf -> (likelihood posted to the reference, to every engine)
        self.posted = {leaf: (v, v) for leaf, v in self.reference.evidence.items()}

    def item(self, i, v):
        return self.leaves[i % len(self.leaves)], np.array(v[: self.k])

    def items(self, picks):
        return [self.item(i, v) for i, v in picks]

    def post(self, items, scale=1.0, sent=None):
        """Post items to the reference at scale 1, and `sent` (by default
        each likelihood times `scale`) to the hierarchy engine as one batch
        and to every other engine one at a time."""
        if sent is None:
            sent = [(leaf, lik * scale) for leaf, lik in items]
        self.reference.set_evidence(items)
        for name, eng in self.engines.items():
            if name == "hierarchy":
                eng.update_many(sent)
            else:
                for leaf, lik in sent:
                    eng.update_evidence(leaf, lik)
        self.posted.update((leaf, (lik, v)) for (leaf, lik), (_, v) in zip(items, sent))

    @rule(i=index, v=values)
    def update_evidence(self, i, v):
        leaf, lik = self.item(i, v)
        self.reference.set_evidence([(leaf, lik)])
        for eng in self.engines.values():
            eng.update_evidence(leaf, lik)
        self.posted[leaf] = lik, lik

    @rule(picks=st.lists(st.tuples(index, values), min_size=1, max_size=5), v=values)
    def update_many(self, picks, v):
        self.post(self.items(picks + [(picks[0][0], v)]))  # a repeated leaf: last wins

    @rule(
        picks=st.lists(st.tuples(index, values), max_size=4),
        last=index,
        length=st.sampled_from([-1, 1]),
    )
    def rejected_batch(self, picks, last, length):
        eng = self.hierarchy
        items = self.items(picks)
        items.append((self.leaves[last % len(self.leaves)], np.ones(self.k + length)))
        evidence = evidence_state(eng.tree)
        cells = [[a.copy() for a in factors(r.target.value)] for r in eng.hier.recipes]
        counter = eng.counter.snapshot()
        with pytest.raises(DimensionError):
            eng.update_many(items)
        assert_same_evidence(eng.tree, evidence)
        for v, r in zip(cells, eng.hier.recipes):
            assert all(map(np.array_equal, v, factors(r.target.value)))
        assert eng.counter == counter

    @rule(i=index, v=values, scale=st.sampled_from([1e300, 1e-300]))
    def scale_jump(self, i, v, scale):
        self.post([self.item(i, v)], scale)

    @rule(i=index, data=st.data())
    def wide_post(self, i, data):
        """Post a likelihood whose entries span the whole double range
        (zeros, subnormals, maxima up to 2**1023) on the engines, and the same
        divided by its max on the reference.  It goes to a leaf whose edge
        matrix is positive, so its message is positive too and no belief
        rests on the entries that the guard's shift rounds (identity-linked
        leaves could pin one node to disjoint supports)."""
        pool = [x for x in self.leaves if (linalg.dense(self.reference.matrix[x]) > 0).all()]
        if pool:
            leaf = pool[i % len(pool)]
            lik = data.draw(wide_likelihood(self.k))
            self.post([(leaf, by_max(lik))], sent=[(leaf, lik)])

    @rule(i=index, scale=st.sampled_from([1.0, 1e300, 1e-300]))
    def repost(self, i, scale):
        """Read a posted likelihood back from the reference and post it
        again, at `scale` on the engines."""
        leaves = sorted(self.reference.evidence)
        if leaves:
            leaf = leaves[i % len(leaves)]
            self.post([(leaf, self.reference.evidence[leaf])], scale)

    @rule()
    def rebuild(self):
        """Build a new hierarchy engine over the old one's tree and evidence
        (rescaled by `scale_jump` too); the run goes on with the new one."""
        new = DynamicEngine(self.hierarchy.tree)
        assert_same_cells(self.hierarchy.hier, new.hier)
        self.engines["hierarchy"] = self.hierarchy = new

    @rule(i=index)
    def grow(self, i):
        """Give one node an evidence leaf on the reference and on every
        engine's tree (equal trees give equal fresh ids), then rebuild every
        engine over its grown tree."""
        pool = [n for n in self.nodes if n not in self.reference.dummies]
        x = pool[i % len(pool)]
        e = attach_evidence_leaf(self.reference, x)
        if x in self.posted:  # a leaf's evidence moves to its new leaf
            self.posted[e] = self.posted.pop(x)
        for name, eng in self.engines.items():
            assert attach_evidence_leaf(eng.tree, x) == e
            self.engines[name] = ENGINE_CLASSES[name](eng.tree)
        self.hierarchy = self.engines["hierarchy"]
        self.leaves = updatable_leaves(self.reference)
        self.nodes = sorted(self.reference.names)

    @rule(i=index)
    def bel_query(self, i):
        x = self.nodes[i % len(self.nodes)]  # alias copies and dummies included
        want = exact.propagate_all(self.reference)[x]
        for name, eng in self.engines.items():
            assert np.allclose(eng.bel_query(x), want, rtol=0.0, atol=TOL), (name, x)

    @rule(picks=st.lists(index, max_size=8), repeat=index)
    def bel_many(self, picks, repeat):
        nodes = [self.nodes[i % len(self.nodes)] for i in picks]
        nodes += nodes[repeat % len(nodes) :] if nodes else []  # repeated ids
        eng = self.hierarchy
        bel = exact.propagate_all(self.reference)
        got = eng.bel_many(nodes)
        assert len(got) == len(nodes)
        for x, b in zip(nodes, got):
            assert np.array_equal(b, eng.bel_query(x)), x
            assert np.allclose(b, bel[x], rtol=0.0, atol=TOL), x

    @invariant()
    def engines_agree_with_propagate_all(self):
        bel = exact.propagate_all(self.reference)
        for name in ("path", "hierarchy"):
            eng = self.engines[name]
            for x in self.nodes:
                assert np.allclose(eng.bel_query(x), bel[x], rtol=0.0, atol=TOL), (name, x)
        root = self.reference.root
        assert np.allclose(self.engines["full"].bel_query(root), bel[root], rtol=0.0, atol=TOL)

    @invariant()
    def sweep_is_the_per_node_recursion(self):
        """On every tree, stacked depths included, the compiled sweep is
        bitwise the two-pass recursion node by node, with equal op counts."""
        for tree in [self.reference] + [eng.tree for eng in self.engines.values()]:
            c_sweep, c_node = OpCounter(), OpCounter()
            bel = exact.propagate_all(tree, c_sweep)
            want = per_node_sweep(tree, c_node)
            assert c_sweep == c_node
            assert bel.keys() == want.keys()
            for x, b in want.items():
                assert same_bits(bel[x], b), x

    @invariant()
    def engines_agree_with_enumeration(self):
        if self.k ** len(self.nodes) > ENUMERATION_LIMIT:
            return
        want = exact.joint_marginals(self.reference)
        for name, eng in self.engines.items():
            for x in self.nodes:
                assert np.allclose(eng.bel_query(x), want[x], rtol=0.0, atol=TOL), (name, x)

    @invariant()
    def evidence_as_posted_and_guarded(self):
        trees = [(self.reference, 0)] + [(eng.tree, 1) for eng in self.engines.values()]
        for tree, side in trees:
            assert tree.evidence.keys() == self.posted.keys()
            for leaf, v in tree.evidence.items():
                assert same_bits(v, self.posted[leaf][side]), leaf
                assert same_bits(tree.leaf_lambda(leaf), rescale_if_tiny(v)), leaf

    @invariant()
    def cells_equal_a_fresh_build(self):
        assert_same_cells(self.hierarchy.hier, build_hierarchy(self.hierarchy.tree))


# an example is a dozen steps, each checked by every invariant
EngineProtocol.TestCase.settings = settings(
    max_examples=settings.default.max_examples * 3 // 10,
    stateful_step_count=12,
    deadline=None,
)
TestEngineProtocol = EngineProtocol.TestCase
