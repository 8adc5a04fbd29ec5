import numpy as np
import pytest

from treebelief import exact, linalg
from treebelief import tree as tree_mod
from treebelief.bench import FullEngine, make_balanced, make_random, random_stochastic
from treebelief.dynamic import DynamicEngine
from treebelief.errors import InconsistentEvidenceError, ScaleError, UsageError
from treebelief.jointree import CliqueNode, FactoredMatrix, build_projection
from treebelief.linalg import OpCounter
from treebelief.tree import RawTree, binarize
from util import (
    attach_evidence_leaf,
    depth,
    post_random_evidence,
    random_binarized_tree,
    random_join_tree,
    updatable_leaves,
)


def three_node_tree():
    raw = RawTree(2)
    raw.add_node(0, "X")
    raw.add_node(1, "Y")
    raw.add_node(2, "Z")
    raw.set_root(0, [0.5, 0.5])
    raw.add_edge(0, 1, [[0.9, 0.1], [0.2, 0.8]])
    raw.add_edge(0, 2, [[0.7, 0.3], [0.4, 0.6]])
    t = binarize(raw)
    t.set_evidence(1, [1, 0])
    return t


class TestPropagateAll:
    def test_worked_example(self):
        bel = exact.propagate_all(three_node_tree())
        assert np.allclose(bel[0], [9 / 11, 2 / 11], atol=1e-12)
        assert np.allclose(bel[2], [0.64545, 0.35455], atol=1e-4)

    def test_vacuous_evidence_gives_prior(self):
        t = three_node_tree()
        t.set_evidence(1, [1, 1])
        bel = exact.propagate_all(t)
        assert np.allclose(bel[0], t.prior, atol=1e-12)

    def test_deterministic_identity_chain(self):
        raw = RawTree(3)
        for n in range(4):
            raw.add_node(n)
        raw.set_root(0, [0, 1, 0])
        raw.add_edge(0, 1, np.eye(3))
        raw.add_edge(1, 2, np.eye(3))
        raw.add_edge(1, 3, np.eye(3))
        t = binarize(raw)
        bel = exact.propagate_all(t)
        for n in range(4):
            assert np.allclose(bel[n], [0, 1, 0], atol=1e-12)

    def test_op_count_two_per_edge(self):
        rng = np.random.default_rng(0)
        t = random_binarized_tree(rng, 20, 2)
        c = OpCounter()
        exact.propagate_all(t, c)
        assert c.mat_vec == 2 * (len(t.names) - 1)
        assert c.mat_mat == 0

    def test_inconsistent_names_node(self):
        t = three_node_tree()
        t.matrix[1] = np.eye(2)
        t.set_evidence(1, [1, 0])
        t.set_evidence(2, [0, 0])
        with pytest.raises(InconsistentEvidenceError, match="at node 0"):
            exact.propagate_all(t)

    def test_beliefs_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = random_binarized_tree(rng, 10, 3)
            post_random_evidence(t, rng, 3, hard_prob=0.0)
            for b in exact.propagate_all(t).values():
                assert abs(b.sum() - 1.0) <= 1e-12


def mixed_join_tree(rng, k=2, n=2, c=1, depth=5):
    """Join tree whose cliques have one to three children, so `binarize` puts
    dense identity pads and copies beside the factored clique edges."""
    K = k**n
    fresh = iter(range(10**6))  # variable names
    cliques = {0: CliqueNode(members=tuple(next(fresh) for _ in range(n)), k=k)}
    raw = RawTree(K)
    raw.add_node(0)
    raw.set_root(0, random_stochastic(rng, 1, K)[0])
    frontier = [0]
    for _ in range(depth):
        below = []
        for p in frontier:
            for _ in range(int(rng.integers(1, 4))):
                members = cliques[p].members
                shared = tuple(members[i] for i in sorted(rng.choice(n, size=c, replace=False)))
                clique = CliqueNode(
                    members=shared + tuple(next(fresh) for _ in range(n - c)),
                    k=k, intersection=shared,
                )
                nid = len(cliques)
                cliques[nid] = clique
                raw.add_node(nid)
                table = random_stochastic(rng, k**c, K)
                raw.add_edge(p, nid, build_projection(clique, cliques[p], table))
                below.append(nid)
        frontier = below
    return binarize(raw)


class TestPropagateAllBatched:
    """Trees with levels of at least BATCH_MIN_WIDTH nodes, where each
    direction of a level is one stacked product."""

    @pytest.fixture
    def stacked_calls(self, monkeypatch):
        calls = []
        stacked = linalg.apply_stacked

        def counted(factors, v, counter=None):
            calls.append(len(v))
            return stacked(factors, v, counter)

        monkeypatch.setattr(linalg, "apply_stacked", counted)
        return calls

    @staticmethod
    def check(t, mv_per_edge=None):
        """propagate_all against the hierarchy engine's bel_query at every
        node; one mat-vec per edge per direction (two per factored edge)."""
        c = OpCounter()
        full = exact.propagate_all(t, c)
        eng = DynamicEngine(t)
        assert set(full) == set(t.names)
        for x in t.names:
            assert np.allclose(full[x], eng.bel_query(x), rtol=0.0, atol=1e-12), x
        if mv_per_edge is None:
            mv_per_edge = {x: 1 for x in t.parent}
        assert c.mat_vec == 2 * sum(mv_per_edge.values())
        return full, c

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_and_balanced_match_bel_query(self, k, stacked_calls):
        rng = np.random.default_rng(40 + k)
        for t in (make_random(300, k, rng), make_balanced(256, k, rng)):
            post_random_evidence(t, rng, 60)
            stacked_calls.clear()
            self.check(t)
            assert stacked_calls and min(stacked_calls) >= exact.BATCH_MIN_WIDTH

    def test_batched_equals_per_node_loop(self, monkeypatch):
        def model():
            rng = np.random.default_rng(44)
            t = make_random(500, 3, rng)
            post_random_evidence(t, rng, 100)
            return t

        c_batched, c_loop = OpCounter(), OpCounter()
        batched = exact.propagate_all(model(), c_batched)
        t = model()  # a second tree, so its numbering is built under the patch
        for module in (exact, tree_mod):
            monkeypatch.setattr(module, "BATCH_MIN_WIDTH", len(t.names) + 1)
        loop = exact.propagate_all(t, c_loop)
        assert c_batched == c_loop
        for x in t.names:
            assert np.allclose(batched[x], loop[x], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("c", [1, 2])
    def test_factored_join_tree(self, c, stacked_calls):
        rng = np.random.default_rng(50 + c)
        t, _, leaves, K = random_join_tree(rng, k=2, n=3, c=c, depth=4)
        for leaf in leaves[::3]:
            t.set_evidence(leaf, rng.random(K) + 0.05)
        assert all(isinstance(m, FactoredMatrix) for m in t.matrix.values())
        self.check(t, {x: 2 for x in t.parent})
        assert max(stacked_calls) == 16

    def test_mixed_level_runs_per_node(self, stacked_calls):
        rng = np.random.default_rng(53)
        t = mixed_join_tree(rng)
        for leaf in updatable_leaves(t)[::2]:
            t.set_evidence(leaf, rng.random(t.k) + 0.05)
        kinds = {x: type(t.matrix[x]) for x in t.parent}
        assert set(kinds.values()) == {np.ndarray, FactoredMatrix}
        at_depth = {}
        for x in t.parent:
            at_depth.setdefault(depth(t, x), []).append(kinds[x])
        # wide levels whose dense pads sit beside factored edges
        assert any(
            len(ks) >= exact.BATCH_MIN_WIDTH and len(set(ks)) == 2
            for ks in at_depth.values()
        )
        self.check(t, {x: 2 if kinds[x] is FactoredMatrix else 1 for x in t.parent})
        assert stacked_calls == []

    @pytest.mark.parametrize("scale", [1e-160, 1e200, 1e-200])
    def test_extreme_scales_on_wide_tree(self, scale):
        # 4,096 leaves: lambda at the root is a product of thousands of
        # messages below 1, far under 1e-308 without the row-wise guard
        rng = np.random.default_rng(60)
        t = make_balanced(4096, 2, rng)
        items = [(leaf, rng.random(2) + 0.05) for leaf in updatable_leaves(t)]
        for leaf, lik in items:
            t.set_evidence(leaf, lik)
        reference = exact.propagate_all(t)
        for leaf, lik in items:
            t.set_evidence(leaf, lik * scale)
        full, _ = self.check(t)
        for x in t.names:
            assert np.allclose(full[x], reference[x], rtol=0.0, atol=1e-9), x

    def test_pi_guard_on_wide_combs(self):
        # 16 parallel combs: every level holds 16 spine nodes and 16 evidence
        # leaves, and each step down multiplies pi by an evidence leaf's
        # message near 2^-120, which the guard leaves as it is
        rng = np.random.default_rng(62)
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [0.4, 0.6])
        tops, ids = [0], iter(range(1, 10**6))
        for _ in range(4):
            below = []
            for p in tops:
                for _ in range(2):
                    below.append(next(ids))
                    raw.add_node(below[-1])
                    raw.add_edge(p, below[-1], random_stochastic(rng, 2, 2))
            tops = below
        evidence = []
        for spine in tops:
            for _ in range(12):
                ev, nxt = next(ids), next(ids)
                for x in (ev, nxt):
                    raw.add_node(x)
                    raw.add_edge(spine, x, random_stochastic(rng, 2, 2))
                evidence.append((ev, rng.random(2) + 0.05))
                spine = nxt
        t = binarize(raw)
        for leaf, lik in evidence:
            t.set_evidence(leaf, lik)
        reference = exact.propagate_all(t)
        for leaf, lik in evidence:
            t.set_evidence(leaf, np.ldexp(lik, -120))
        full, _ = self.check(t)
        for x in t.names:
            assert np.allclose(full[x], reference[x], rtol=0.0, atol=1e-9), x

    def test_zero_mass_on_wide_tree_names_node(self):
        rng = np.random.default_rng(61)
        t = make_balanced(64, 2, rng)
        leaves = updatable_leaves(t)
        t.set_evidence(leaves[5], [0.0, 0.0])
        with pytest.raises(InconsistentEvidenceError, match=f"at node {t.root}"):
            exact.propagate_all(t)


class TestNumbering:
    """The breadth-first numbering is built once per tree, on first use, and
    dropped by `CausalTree.link`."""

    @staticmethod
    def grown(swept_first: bool):
        """A random tree with evidence leaves attached to an internal node and
        to a leaf; the first tree is swept before they are attached."""
        rng = np.random.default_rng(70)
        t = random_binarized_tree(rng, 40, 3)
        post_random_evidence(t, rng, 10)
        before = exact.propagate_all(t) if swept_first else None
        inner = next(x for x in t.kids if x != t.root)
        for x in (inner, updatable_leaves(t)[0]):
            t.set_evidence(attach_evidence_leaf(t, x), rng.random(3) + 0.05)
        return t, before

    def test_link_drops_stale_numbering(self):
        t, before = self.grown(swept_first=True)
        fresh, _ = self.grown(swept_first=False)
        got, want = exact.propagate_all(t), exact.propagate_all(fresh)
        assert len(got) == len(t.names) > len(before)
        for x in t.names:
            assert np.array_equal(got[x], want[x]), x

    def test_link_drops_stale_numbering_small_tree(self):
        rng = np.random.default_rng(72)
        t = random_binarized_tree(rng, 6, 2)
        exact.propagate_all(t)
        for x in (t.root, updatable_leaves(t)[-1]):
            t.set_evidence(attach_evidence_leaf(t, x), rng.random(2) + 0.05)
        got, want = exact.propagate_all(t), exact.joint_marginals(t)
        for x in t.names:
            assert np.allclose(got[x], want[x], rtol=0.0, atol=1e-9), x

    @pytest.mark.parametrize("shape", ["random-k4", "mixed-join-tree"])
    def test_cached_sweep_is_bitwise_equal(self, shape, monkeypatch):
        built = []

        class Counted(tree_mod.Levels):
            def __init__(self, tree):
                built.append(self)
                super().__init__(tree)

        monkeypatch.setattr(tree_mod, "Levels", Counted)
        rng = np.random.default_rng(71)
        t = make_random(300, 4, rng) if shape == "random-k4" else mixed_join_tree(rng)
        for leaf in updatable_leaves(t)[::3]:
            t.set_evidence(leaf, rng.random(t.k) + 0.05)
        DynamicEngine(t)
        assert built == []  # the numbering stays lazy
        c_first, c_cached = OpCounter(), OpCounter()
        first = exact.propagate_all(t, c_first)
        cached = exact.propagate_all(t, c_cached)
        assert c_first == c_cached
        assert np.array_equal(first.rows, cached.rows)
        state = exact.PropagationState(t)
        FullEngine(t).bel_query(t.root)
        assert built == [t.numbering()]
        assert first.levels is cached.levels is state.lam.levels is built[0]


class TestJointMarginals:
    def test_single_node(self):
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [0.3, 0.7])
        t = binarize(raw)
        assert np.allclose(exact.joint_marginals(t)[0], [0.3, 0.7])

    def test_identity_chain_delta(self):
        raw = RawTree(2)
        raw.add_node(0)
        raw.add_node(1)
        raw.set_root(0, [0.4, 0.6])
        raw.add_edge(0, 1, np.eye(2))
        t = binarize(raw)
        t.set_evidence(1, [0, 1])
        bel = exact.joint_marginals(t)
        assert np.allclose(bel[0], [0, 1], atol=1e-12)

    def test_matches_propagation(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = random_binarized_tree(rng, int(rng.integers(2, 8)), int(rng.integers(2, 4)))
            post_random_evidence(t, rng, 2)
            try:
                oracle = exact.joint_marginals(t)
            except InconsistentEvidenceError:
                with pytest.raises(InconsistentEvidenceError):
                    exact.propagate_all(t)
                continue
            bel = exact.propagate_all(t)
            for n in oracle:
                assert np.allclose(oracle[n], bel[n], atol=1e-9)

    def test_scale_guard(self):
        rng = np.random.default_rng(3)
        t = random_binarized_tree(rng, 30, 4)
        with pytest.raises(ScaleError):
            exact.joint_marginals(t)


class TestEnumerateMarginals:
    def test_factor_axes_follow_listed_variables(self):
        joint = np.array([[0.1, 0.2], [0.3, 0.4]])  # joint[b, a]
        out = exact.enumerate_marginals(2, [(("b", "a"), joint)])
        assert np.allclose(out["a"], joint.sum(axis=0))
        assert np.allclose(out["b"], joint.sum(axis=1))

    def test_evidence_factor_conditions(self):
        out = exact.enumerate_marginals(
            2, [((0,), [0.5, 0.5]), ((0, 1), np.eye(2)), ((1,), [0.0, 1.0])]
        )
        assert np.array_equal(out[0], [0.0, 1.0])

    def test_counts_products_and_sums(self):
        c = OpCounter()
        exact.enumerate_marginals(2, [((0,), [0.5, 0.5]), ((0, 1), np.eye(2))], c)
        assert c.flops == 2 * 4 + 2 * 4 and c.mat_vec == c.mat_mat == 0

    def test_zero_mass_inconsistent(self):
        with pytest.raises(InconsistentEvidenceError):
            exact.enumerate_marginals(2, [((0,), [0.0, 0.0])])


class TestPathEngine:
    def test_lambda_recomputes_equal_depth(self):
        rng = np.random.default_rng(4)
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [0.5, 0.5])
        prev = 0
        for n in range(1, 6):
            raw.add_node(n)
            raw.add_edge(prev, n, random_stochastic(rng, 2, 2))
            prev = n
        t = binarize(raw)
        st = exact.PropagationState(t)
        st.update_evidence(5, [1, 0])
        assert st.last_lambda_recomputes == depth(t, 5)

    def test_pi_recomputes_equal_depth(self):
        rng = np.random.default_rng(5)
        t = random_binarized_tree(rng, 12, 2)
        st = exact.PropagationState(t)
        leaf = updatable_leaves(t)[-1]
        st.bel_query(leaf)
        assert st.last_pi_recomputes == depth(t, leaf)

    def test_idempotent_repost(self):
        rng = np.random.default_rng(6)
        t = random_binarized_tree(rng, 10, 2)
        st = exact.PropagationState(t)
        leaf = updatable_leaves(t)[0]
        st.update_evidence(leaf, [0.3, 0.9])
        lam1 = {n: v.copy() for n, v in st.lam.items()}
        st.update_evidence(leaf, [0.3, 0.9])
        for n in lam1:
            assert np.array_equal(lam1[n], st.lam[n])

    def test_root_query_is_lambda_times_prior(self):
        t = three_node_tree()
        st = exact.PropagationState(t)
        got = st.bel_query(t.root)
        want = st.lam[t.root] * t.prior
        assert np.allclose(got, want / want.sum(), atol=1e-12)

    def test_non_leaf_update_rejected(self):
        t = three_node_tree()
        st = exact.PropagationState(t)
        with pytest.raises(UsageError):
            st.update_evidence(t.root, [1, 0])

    def test_matches_oracle_500_cases(self):
        rng = np.random.default_rng(7)
        cases = 0
        while cases < 500:
            t = random_binarized_tree(rng, int(rng.integers(2, 12)), 2)
            st = exact.PropagationState(t)
            leaves = updatable_leaves(t)
            nodes = list(t.names)
            for _ in range(5):
                leaf = leaves[int(rng.integers(len(leaves)))]
                st.update_evidence(leaf, rng.random(2) + 0.01)
                node = nodes[int(rng.integers(len(nodes)))]
                bel = exact.propagate_all(t)
                assert np.allclose(st.bel_query(node), bel[node], atol=1e-9)
                cases += 1
