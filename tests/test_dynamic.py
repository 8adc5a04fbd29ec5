import numpy as np
import pytest

from treebelief import exact, linalg, protein
from treebelief.bench import make_balanced, make_chain, make_random, random_stochastic
from treebelief.contract import build_hierarchy
from treebelief.dynamic import DynamicEngine
from treebelief.errors import DimensionError, InconsistentEvidenceError, UsageError
from treebelief.formats import parse_btn, serialize_btn
from treebelief.linalg import FactoredMatrix
from treebelief.polytree import PolytreeEngine
from treebelief.tree import CausalTree, RawTree, binarize
from test_contract import E1, E3, E4, X1, X3, golden_chain
from test_exact import mixed_join_tree, three_node_tree
from test_formats import THREE_NODE_BTN
from util import (
    assert_same_evidence,
    evidence_state,
    post_random_evidence,
    random_binarized_tree,
    random_join_tree,
    random_polytree,
    same_bits,
    split_order_btn,
    updatable_leaves,
)


def assert_same_cells(hier_a, hier_b):
    assert len(hier_a.recipes) == len(hier_b.recipes)
    names_a, names_b = hier_a.names(), hier_b.names()
    for a, b in zip(hier_a.recipes, hier_b.recipes):
        assert names_a[a.target] == names_b[b.target]
        va, vb = a.target.value, b.target.value
        if isinstance(va, FactoredMatrix):
            assert same_bits(va.left, vb.left) and same_bits(va.right, vb.right)
        else:
            assert same_bits(va, vb)


def sibling_rake_tree(rng):
    """root 0 -> (u 1, leaf 2); u -> (x 3, v 4); x -> (5, 6); v -> (7, 8).
    The first CONTRACT pass rakes leaf 6 with x and leaf 8 with v: two
    siblings raked away in the same pass."""
    raw = RawTree(2)
    for n in range(9):
        raw.add_node(n)
    raw.set_root(0, random_stochastic(rng, 1, 2)[0])
    for p, cs in ((0, (1, 2)), (1, (3, 4)), (3, (5, 6)), (4, (7, 8))):
        for c in cs:
            raw.add_edge(p, c, random_stochastic(rng, 2, 2))
    for leaf in (2, 5, 6, 7, 8):
        raw.evidence[leaf] = rng.random(2) + 0.05
    return binarize(raw)


class TestUpdateEvidence:
    def test_golden_recipe_chain(self):
        eng = DynamicEngine(golden_chain())
        eng.update_evidence(E4, [1, 0])
        assert eng.last_recipe_recomputes == 2
        # B_1(x3) first, then B_2(x1)
        r1 = eng.hier.recipe_by_leaf[E4]
        names = eng.hier.names()
        assert names[r1.target][:2] == (X3, "B")
        r2 = eng.hier.consumer(r1.target)
        assert names[r2.target][:2] == (X1, "B")
        assert eng.hier.consumer(r2.target) is None

    def test_extreme_leaf_zero_recomputes(self):
        eng = DynamicEngine(golden_chain())
        eng.update_evidence(E1, [1, 0])
        assert eng.last_recipe_recomputes == 0

    def test_idempotent_bitwise(self):
        eng = DynamicEngine(golden_chain())
        eng.update_evidence(E3, [0.4, 0.7])
        vals = [r.target.value.copy() for r in eng.hier.recipes]
        eng.update_evidence(E3, [0.4, 0.7])
        for v, r in zip(vals, eng.hier.recipes):
            assert np.array_equal(v, r.target.value)

    def test_dummy_rejected(self):
        rng = np.random.default_rng(2)
        t = random_binarized_tree(rng, 8, 2)
        t2 = random_binarized_tree(np.random.default_rng(2), 8, 2)
        assert t2.dummies == t.dummies
        eng = DynamicEngine(t)
        if t.dummies:
            with pytest.raises(UsageError):
                eng.update_evidence(next(iter(t.dummies)), [1, 0])


class TestCalcPiLambda:
    def test_root_at_top_level(self):
        eng = DynamicEngine(golden_chain())
        top_level = len(eng.hier.levels) - 1
        p, l, r = eng.calc_pi_lambda(X1, top_level)
        assert np.array_equal(p, eng.prior)
        top = eng.hier.levels[top_level]
        tl, tr = top.kids[X1]
        assert np.array_equal(l, eng.tree.leaf_lambda(tl))
        assert np.array_equal(r, eng.tree.leaf_lambda(tr))

    def test_pi_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = random_binarized_tree(rng, int(rng.integers(3, 12)), 2)
            post_random_evidence(t, rng, 3, hard_prob=0.0)
            eng = DynamicEngine(t)
            bel = exact.propagate_all(t)
            lam, _ = exact.lambda_pass(t)
            for x in t.names:
                if t.is_leaf(x):
                    continue
                p, _, _ = eng.calc_pi_lambda(x, eng.hier.ind[x])
                # compare Bel assembled from pi against the oracle
                got = lam[x] * p
                assert np.allclose(got / got.sum(), bel[x], atol=1e-9)

    def test_leaf_rejected(self):
        eng = DynamicEngine(golden_chain())
        with pytest.raises(UsageError):
            eng.calc_pi_lambda(E1, 0)


class TestBelQuery:
    def test_worked_example(self):
        eng = DynamicEngine(three_node_tree())
        assert np.allclose(eng.bel_query(0), [9 / 11, 2 / 11], atol=1e-12)

    def test_unknown_node(self):
        eng = DynamicEngine(golden_chain())
        with pytest.raises(UsageError):
            eng.bel_query(999)

    def test_vacuous_evidence_prior(self):
        t = golden_chain()
        eng = DynamicEngine(t)
        assert np.allclose(eng.bel_query(X1), t.prior, atol=1e-12)

    def test_interleaved_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            t = random_binarized_tree(rng, int(rng.integers(3, 14)), 2)
            eng = DynamicEngine(t)
            leaves = updatable_leaves(t)
            nodes = list(t.names)
            for _ in range(8):
                leaf = leaves[int(rng.integers(len(leaves)))]
                eng.update_evidence(leaf, rng.random(2) + 0.01)
                bel = exact.propagate_all(t)
                node = nodes[int(rng.integers(len(nodes)))]
                assert np.allclose(eng.bel_query(node), bel[node], atol=1e-9)

    def test_updates_commute(self):
        rng = np.random.default_rng(5)
        t1 = random_binarized_tree(np.random.default_rng(5), 10, 2)
        t2 = random_binarized_tree(np.random.default_rng(5), 10, 2)
        leaves = updatable_leaves(t1)[:2]
        assert len(leaves) == 2
        a, b = leaves
        va, vb = rng.random(2) + 0.01, rng.random(2) + 0.01
        e1, e2 = DynamicEngine(t1), DynamicEngine(t2)
        e1.update_evidence(a, va)
        e1.update_evidence(b, vb)
        e2.update_evidence(b, vb)
        e2.update_evidence(a, va)
        for n in t1.names:
            assert np.allclose(e1.bel_query(n), e2.bel_query(n), atol=1e-12)

    def test_query_cost_bounded(self):
        # at most four mat-vecs per level above the node's own, two at the node
        rng = np.random.default_rng(7)
        trees = [make_chain(256, 2, np.random.default_rng(6))]
        trees += [random_binarized_tree(rng, int(rng.integers(3, 80)), 2) for _ in range(20)]
        for t in trees:
            eng = DynamicEngine(t)
            leaves = updatable_leaves(t)
            for j, node in enumerate(t.names):
                # a write first, so that every read measured walks cold
                eng.update_evidence(leaves[j % len(leaves)], rng.random(2) + 0.01)
                x = t.resolve(node)
                i = 0 if t.is_leaf(x) else eng.hier.ind[x]
                before = eng.counter.snapshot()
                eng.bel_query(node)
                assert eng.counter.delta(before).mat_vec <= 4 * (len(eng.hier.levels) - 1 - i) + 2

    def test_single_node_and_three_node(self):
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [0.3, 0.7])
        single = binarize(raw)
        single.set_evidence([(0, [0.2, 0.6])])
        bel = DynamicEngine(single).bel_query(0)
        assert np.allclose(bel, [0.125, 0.875], atol=1e-12)
        t = three_node_tree()
        eng, oracle = DynamicEngine(t), exact.joint_marginals(t)
        for x in t.names:
            assert np.allclose(eng.bel_query(x), oracle[x], atol=1e-12), x

    def test_siblings_raked_in_one_pass(self):
        for seed in range(5):
            t = sibling_rake_tree(np.random.default_rng(seed))
            eng = DynamicEngine(t)
            lt0 = eng.hier.levels[0]
            assert eng.hier.ind[3] == eng.hier.ind[4] == 0
            assert lt0.cell[3].parent == lt0.cell[4].parent == 1
            oracle = exact.joint_marginals(t)
            for x in t.names:
                assert np.allclose(eng.bel_query(x), oracle[x], atol=1e-12), x


# bel_many shapes: (name, tree from (rng, k)); the fan-out-three random tree
# carries alias copies and dummy pads
BEL_MANY_SHAPES = [
    ("chain", lambda rng, k: make_chain(int(rng.integers(1, 40)), k, rng)),
    ("make-random", lambda rng, k: make_random(int(rng.integers(1, 40)), k, rng)),
    ("fan-out-3", lambda rng, k: random_binarized_tree(rng, int(rng.integers(2, 40)), k)),
    ("balanced", lambda rng, k: make_balanced(int(rng.integers(2, 33)), k, rng)),
    ("mixed-join-tree", lambda rng, k: mixed_join_tree(rng, k=k, depth=3)),
]


def spy_walks(monkeypatch):
    """Record (x, level, memo) of every `calc_pi_lambda` call: one per walk."""
    calls, calc = [], DynamicEngine.calc_pi_lambda

    def spy(self, x, i, memo=None):
        calls.append((x, i, memo))
        return calc(self, x, i, memo)

    monkeypatch.setattr(DynamicEngine, "calc_pi_lambda", spy)
    return calls


def frames_walked(eng, x, i) -> list:
    """The frames of the walk from (x, i): its own, then each `up` to the top."""
    out, f = [], eng._frame(x, i)
    while f is not None:
        out.append(f)
        f = f.up
    return out


class TestBelMany:
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("shape", [name for name, _ in BEL_MANY_SHAPES])
    def test_bitwise_equal_to_bel_query(self, shape, k):
        make = dict(BEL_MANY_SHAPES)[shape]
        rng = np.random.default_rng(31 + k)
        for _ in range(4):
            t = make(rng, k)
            eng = DynamicEngine(t)
            leaves = updatable_leaves(t)
            eng.update_many(
                (leaves[int(i)], rng.random(t.k) + 0.01)
                for i in rng.integers(len(leaves), size=3)
            )
            # every node (leaves, internal nodes, the root, dummies) and every
            # alias copy, shuffled, with repeats
            nodes = sorted(t.names) + sorted(t.alias)
            batch = [nodes[int(i)] for i in rng.permutation(len(nodes))]
            batch += [t.root] + batch[: len(batch) // 3]
            got = eng.bel_many(batch)
            assert len(got) == len(batch)
            bel = exact.propagate_all(t)
            for x, b in zip(batch, got):
                assert np.array_equal(b, eng.bel_query(x)), x
                assert np.allclose(b, bel[t.resolve(x)], rtol=0.0, atol=1e-9), x

    def test_empty_batch(self):
        eng = DynamicEngine(golden_chain())
        assert eng.bel_many([]) == []
        assert eng.bel_many(iter(())) == []

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_unknown_node_raises_before_any_product(self, where):
        eng = DynamicEngine(golden_chain())
        batch = [X1, E3, X3, E4]
        batch.insert(where, 999)
        counter = eng.counter.snapshot()
        with pytest.raises(UsageError, match="unknown node 999"):
            eng.bel_many(batch)
        assert eng.counter == counter

    def test_single_query_memo_holds_its_walk(self, monkeypatch):
        """A read keeps its walk's triples in the engine's memo, reads add to
        them, and the next write drops them all."""
        calls = spy_walks(monkeypatch)
        eng = DynamicEngine(make_chain(32, 2, np.random.default_rng(8)))
        held = set()
        for x in (3, 40):  # an internal node and a leaf
            eng.bel_query(x)
            [(y, i, memo)] = calls
            held |= set(frames_walked(eng, y, i))
            assert memo is eng.memo and memo.keys() == held
            del calls[:]
        eng.update_evidence(updatable_leaves(eng.tree)[0], [0.3, 0.6])
        assert eng.memo == {}

    def test_protein_watch_batch_computes_each_triple_once(self, monkeypatch):
        tables = protein.train(
            [("GSATKLVEHHMKVLAAGWPE", "cchhhhheecccceeehhhc"),
             ("PQRSTVWYACDEFGHIKLMN", "hhhhccceeecceeeecchh")],
            w=3,
        )
        chain = protein.ProteinChain("GSATKLVEHHMKVLAAGWPEPQRSTVWYACDEFGHIKLMN" * 3, tables)
        eng, watch = chain.engine, [57, 58, 59]
        assert eng.memo == {}
        calls = spy_walks(monkeypatch)
        before = eng.counter.snapshot()
        single = [eng.bel_query(x) for x in watch]
        single_cost = eng.counter.delta(before)
        walks = [frames_walked(eng, x, i) for x, i, _ in calls]
        del calls[:]
        eng.memo.clear()  # cold again, as after a write
        before = eng.counter.snapshot()
        batch = eng.bel_many(watch)
        batch_cost = eng.counter.delta(before)
        before = eng.counter.snapshot()
        again = eng.bel_many(watch)
        again_cost = eng.counter.delta(before)
        for a, b, c in zip(batch, single, again):
            assert np.array_equal(a, b) and np.array_equal(a, c)
        # the three walks pass 23 frames, 10 of them distinct; single reads
        # and the batch each compute those 10 once and keep them in the memo,
        # and a repeat batch pays only its three final steps
        distinct = set().union(*walks)
        assert (sum(map(len, walks)), len(distinct), len(calls)) == (23, 10, 6)
        assert eng.memo.keys() == distinct
        assert (single_cost.mat_vec, batch_cost.mat_vec, again_cost.mat_vec) == (24, 24, 6)

    @pytest.mark.parametrize("shape", [name for name, _ in BEL_MANY_SHAPES])
    def test_warm_frames_survive_writes(self, shape):
        """Frames built by reads keep reading the cells a later write replaces:
        after a batch with a 1e-300 likelihood, every answer is bitwise that
        of an engine built on the new evidence."""
        make = dict(BEL_MANY_SHAPES)[shape]
        for seed in range(4):
            t = make(np.random.default_rng(seed), 3)
            eng = DynamicEngine(t)
            nodes = sorted(t.names) + sorted(t.alias)
            eng.bel_many(nodes)
            rng = np.random.default_rng(100 + seed)
            leaves = updatable_leaves(t)
            picks = [leaves[int(i)] for i in rng.integers(len(leaves), size=4)]
            items = [(leaf, rng.random(t.k) + 0.01) for leaf in picks]
            items[-1] = (picks[-1], items[-1][1] * 1e-300)
            eng.update_many(items)
            fresh_tree = make(np.random.default_rng(seed), 3)
            for leaf, lik in items:
                fresh_tree.set_evidence([(leaf, lik)])
            fresh, bel = DynamicEngine(fresh_tree), exact.propagate_all(fresh_tree)
            for x in nodes:
                b = eng.bel_query(x)
                assert np.array_equal(b, fresh.bel_query(x)), x
                assert np.allclose(b, bel[t.resolve(x)], rtol=0.0, atol=1e-9), x
            frames = sum(map(len, eng.frames))
            assert 0 < frames <= sum(len(lt.kids) for lt in eng.hier.levels)


def zero_joint_tree():
    """root 0 -> (1, 2), 1 -> (3, 4), 2 -> (5, 6), every edge the identity:
    evidence [1, 0] on leaf 3 and [0, 1] on leaf 6 has zero joint
    probability."""
    raw = RawTree(2)
    for n in range(7):
        raw.add_node(n)
    raw.set_root(0, [0.5, 0.5])
    for p, cs in ((0, (1, 2)), (1, (3, 4)), (2, (5, 6))):
        for c in cs:
            raw.add_edge(p, c, np.eye(2))
    raw.evidence[3], raw.evidence[6] = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    return binarize(raw)


class TestMemo:
    """The engine's memo keeps the triples of every read until the next write."""

    @pytest.mark.parametrize("shape", [name for name, _ in BEL_MANY_SHAPES])
    def test_reads_between_writes_cost_one_cold_batch(self, shape):
        make = dict(BEL_MANY_SHAPES)[shape]
        for seed in range(4):
            eng = DynamicEngine(make(np.random.default_rng(seed), 3))
            t = eng.tree
            nodes = sorted(t.names) + sorted(t.alias)
            rng = np.random.default_rng(200 + seed)
            seq = [nodes[int(i)] for i in rng.integers(len(nodes), size=2 * len(nodes))]
            leaves = updatable_leaves(t)
            picks = rng.integers(len(leaves), size=3)
            items = [(leaves[int(i)], rng.random(t.k) + 0.01) for i in picks]
            eng.bel_many(nodes)  # a warm memo that the write must drop
            eng.update_many(items)
            before = eng.counter.snapshot()
            single = [eng.bel_query(x) for x in seq]
            single_cost = eng.counter.delta(before)
            # one cold batch of the same nodes, on an engine built after the write
            fresh = DynamicEngine(t)
            before = fresh.counter.snapshot()
            batch = fresh.bel_many(seq)
            assert single_cost == fresh.counter.delta(before)
            for x, a, b in zip(seq, single, batch):
                assert np.array_equal(a, b), x

    def test_rejected_batch_leaves_answers(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            t = random_binarized_tree(rng, int(rng.integers(3, 30)), 2)
            eng = DynamicEngine(t)
            leaves, nodes = updatable_leaves(t), sorted(t.names)
            eng.update_evidence(leaves[0], rng.random(2) + 0.01)
            want = eng.bel_many(nodes)
            items = [(leaf, rng.random(2) + 0.01) for leaf in leaves]
            items.append((leaves[-1], np.ones(3)))
            with pytest.raises(DimensionError):
                eng.update_many(items)
            for x, b, w in zip(nodes, eng.bel_many(nodes), want):
                assert np.array_equal(b, w), x

    def test_inconsistent_evidence_raises_again(self):
        t = zero_joint_tree()
        eng = DynamicEngine(t)
        for _ in range(2):  # the second round reads through the memo the first filled
            for x in sorted(t.names):
                with pytest.raises(InconsistentEvidenceError):
                    eng.bel_query(x)
        eng.update_evidence(6, [1.0, 0.0])
        bel = exact.propagate_all(t)
        for x in sorted(t.names):
            assert np.allclose(eng.bel_query(x), bel[x], rtol=0.0, atol=1e-12), x

    @pytest.mark.parametrize("shape", [name for name, _ in BEL_MANY_SHAPES])
    def test_write_frees_every_triple(self, shape):
        t = dict(BEL_MANY_SHAPES)[shape](np.random.default_rng(26), 3)
        eng = DynamicEngine(t)
        eng.bel_many(sorted(t.names) + sorted(t.alias))
        assert len(eng.memo) == len({f for level in eng.frames for f in level.values()}) > 0
        eng.update_evidence(updatable_leaves(t)[0], np.full(t.k, 0.5))
        assert eng.memo == {}


class TestUpdateMany:
    @staticmethod
    def check_batches(make_tree, leaves, k, rng):
        batched, sequential = DynamicEngine(make_tree()), DynamicEngine(make_tree())
        for _ in range(6):
            picks = rng.integers(len(leaves), size=int(rng.integers(1, 6)))
            items = [(leaves[int(i)], rng.random(k) + 0.01) for i in picks]
            items.append(items[0][:1] + (rng.random(k) + 0.01,))  # a repeat: last wins
            batched.update_many(items)
            for leaf, lik in items:
                sequential.update_evidence(leaf, lik)
            assert_same_evidence(batched.tree, evidence_state(sequential.tree))
            assert_same_cells(batched.hier, sequential.hier)
            assert_same_cells(batched.hier, build_hierarchy(batched.tree))

    def test_bitwise_dense(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            make = lambda: random_binarized_tree(
                np.random.default_rng(seed), 3 + seed * 3, 2
            )
            self.check_batches(make, updatable_leaves(make()), 2, rng)

    def test_bitwise_factored(self):
        rng = np.random.default_rng(22)
        for c in (1, 2):
            make = lambda: random_join_tree(np.random.default_rng(c), k=2, n=3, c=c)
            _, _, leaf_cliques, K = make()
            self.check_batches(lambda: make()[0], leaf_cliques, K, rng)

    def test_each_recipe_once(self):
        t = make_chain(64, 2, np.random.default_rng(23))
        eng = DynamicEngine(t)
        leaves = updatable_leaves(t)[20:23]
        single = 0
        for leaf in leaves:
            eng.update_evidence(leaf, [0.3, 0.6])
            single += eng.last_recipe_recomputes
        distinct = set()
        for leaf in leaves:
            recipe = eng.hier.recipe_by_leaf.get(leaf)
            while recipe is not None:
                distinct.add(recipe)
                recipe = eng.hier.consumer(recipe.target)
        before = eng.counter.snapshot()
        eng.update_many((leaf, [0.6, 0.3]) for leaf in leaves)
        assert eng.last_recipe_recomputes == len(distinct) < single
        assert eng.counter.delta(before).mat_mat == len(distinct)

    @pytest.mark.parametrize(
        "bad, exc",
        [("dummy", UsageError), ([np.nan, 1.0], DimensionError), ([0.5], DimensionError)],
    )
    def test_bad_item_changes_nothing(self, bad, exc):
        rng = np.random.default_rng(24)
        t = random_binarized_tree(rng, 12, 2)
        while not t.dummies:
            t = random_binarized_tree(rng, 12, 2)
        a, b = updatable_leaves(t)[:2]
        t.set_evidence([(a, [0.4, 0.8])])  # restored to this value
        t.drop_evidence([b])  # restored to no evidence
        eng = DynamicEngine(t)
        third = (next(iter(t.dummies)), [0.5, 0.5]) if bad == "dummy" else (a, bad)
        with pytest.raises(exc):
            eng.update_evidence(*third)
        evidence = evidence_state(t)
        cells = [r.target.value.copy() for r in eng.hier.recipes]
        counter = eng.counter.snapshot()
        with pytest.raises(exc):
            eng.update_many([(a, [0.9, 0.1]), (b, [0.2, 0.7]), third, (b, [1.0, 0.0])])
        assert_same_evidence(t, evidence)
        for v, r in zip(cells, eng.hier.recipes):
            assert np.array_equal(v, r.target.value)
        assert eng.counter == counter


class TestLeafRead:
    def test_leaf_read_takes_no_guard(self, monkeypatch):
        """The scale guard runs when evidence is posted, never when a leaf
        likelihood is read: no `rescale_if_tiny` call starts inside a
        `leaf_lambda` over a run of updates and queries."""
        guard, read = linalg.rescale_if_tiny, CausalTree.leaf_lambda
        reading, reads, calls = [False], [], []

        def counted_guard(v):
            calls.append(reading[0])
            return guard(v)

        def flagged_read(tree, leaf):
            reading[0] = True
            reads.append(leaf)
            try:
                return read(tree, leaf)
            finally:
                reading[0] = False

        monkeypatch.setattr(linalg, "rescale_if_tiny", counted_guard)
        monkeypatch.setattr(CausalTree, "leaf_lambda", flagged_read)
        rng = np.random.default_rng(27)
        t = random_binarized_tree(rng, 20, 2)
        leaves = updatable_leaves(t)
        eng = DynamicEngine(t)
        for i in range(30):
            scale = (1.0, 1e-300, 1e300)[i % 3]
            eng.update_evidence(leaves[i % len(leaves)], (rng.random(2) + 0.05) * scale)
            eng.bel_query(sorted(t.names)[i % len(t.names)])
        exact.propagate_all(t)
        assert reads and calls.count(False) > 0
        assert calls.count(True) == 0


class TestRebuildEquivalence:
    def test_bitwise_after_updates(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            t = random_binarized_tree(rng, int(rng.integers(3, 20)), 2)
            self.check_bitwise(t, updatable_leaves(t), 2, rng)
        for c in (1, 2):  # factored join-tree edges
            t, _, leaf_cliques, K = random_join_tree(rng, k=2, n=3, c=c, depth=3)
            self.check_bitwise(t, leaf_cliques, K, rng)

    @staticmethod
    def check_bitwise(t, leaves, k, rng):
        eng = DynamicEngine(t)
        for _ in range(10):
            leaf = leaves[int(rng.integers(len(leaves)))]
            eng.update_evidence(leaf, rng.random(k) + 0.01)
        assert_same_cells(eng.hier, build_hierarchy(t))


def edge_arrays(t):
    for m in t.matrix.values():
        yield from (m.left, m.right) if isinstance(m, FactoredMatrix) else (m,)


class TestEdgesNeverWritten:
    """`binarize` shares equal factors by value, so one in-place write to an
    edge array would change other edges: with every edge array read-only, the
    engine, the sweep and the writer run as before."""

    @pytest.mark.parametrize("kind", ["dense", "parsed", "factored", "polytree"])
    def test_kernels_run_on_read_only_edges(self, kind):
        rng = np.random.default_rng(11)
        if kind == "dense":
            t = make_random(300, 3, rng)
        elif kind == "parsed":  # edges are row views of one table
            t = parse_btn(split_order_btn(rng, 150, 3))
        elif kind == "factored":
            t = mixed_join_tree(rng, k=2, n=2, c=1, depth=5)
        else:
            t = PolytreeEngine(random_polytree(rng, 60, 2, max_parents=3)).tree
        for a in edge_arrays(t):
            a.flags.writeable = False
        eng = DynamicEngine(t)
        leaves = updatable_leaves(t)
        for _ in range(3):
            picked = rng.choice(leaves, size=min(5, len(leaves)), replace=False)
            eng.update_many([(int(l), rng.random(t.k) + 0.05) for l in picked])
            got = eng.bel_many(sorted(t.names))
            want = exact.propagate_all(t)
            for x, b in zip(sorted(t.names), got):
                assert np.allclose(b, want[x], atol=1e-9), x
        assert parse_btn(serialize_btn(t).splitlines()).kids == t.kids
        assert not any(a.flags.writeable for a in edge_arrays(t))


class TestValidationOnce:
    def test_parse_and_build_validate_once(self, monkeypatch):
        calls = []
        validate = CausalTree.validate

        def counted(tree):
            calls.append(tree)
            return validate(tree)

        monkeypatch.setattr(CausalTree, "validate", counted)
        DynamicEngine(parse_btn(THREE_NODE_BTN.splitlines()))
        assert len(calls) == 1
