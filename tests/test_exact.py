import numpy as np
import pytest

from treebelief import exact
from treebelief.bench import random_stochastic
from treebelief.errors import InconsistentEvidenceError, ScaleError, UsageError
from treebelief.linalg import OpCounter
from treebelief.tree import RawTree, binarize
from util import depth, post_random_evidence, random_binarized_tree, updatable_leaves


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
        with pytest.raises(InconsistentEvidenceError):
            exact.propagate_all(t)

    def test_beliefs_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            t = random_binarized_tree(rng, 10, 3)
            post_random_evidence(t, rng, 3, hard_prob=0.0)
            for b in exact.propagate_all(t).values():
                assert abs(b.sum() - 1.0) <= 1e-12


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
        st.path_update(5, [1, 0])
        assert st.last_lambda_recomputes == depth(t, 5)

    def test_pi_recomputes_equal_depth(self):
        rng = np.random.default_rng(5)
        t = random_binarized_tree(rng, 12, 2)
        st = exact.PropagationState(t)
        leaf = updatable_leaves(t)[-1]
        st.path_query(leaf)
        assert st.last_pi_recomputes == depth(t, leaf)

    def test_idempotent_repost(self):
        rng = np.random.default_rng(6)
        t = random_binarized_tree(rng, 10, 2)
        st = exact.PropagationState(t)
        leaf = updatable_leaves(t)[0]
        st.path_update(leaf, [0.3, 0.9])
        lam1 = {n: v.copy() for n, v in st.lam.items()}
        st.path_update(leaf, [0.3, 0.9])
        for n in lam1:
            assert np.array_equal(lam1[n], st.lam[n])

    def test_root_query_is_lambda_times_prior(self):
        t = three_node_tree()
        st = exact.PropagationState(t)
        got = st.path_query(t.root)
        want = st.lam[t.root] * t.prior
        assert np.allclose(got, want / want.sum(), atol=1e-12)

    def test_non_leaf_update_rejected(self):
        t = three_node_tree()
        st = exact.PropagationState(t)
        with pytest.raises(UsageError):
            st.path_update(t.root, [1, 0])

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
                st.path_update(leaf, rng.random(2) + 0.01)
                node = nodes[int(rng.integers(len(nodes)))]
                bel = exact.propagate_all(t)
                assert np.allclose(st.path_query(node), bel[node], atol=1e-9)
                cases += 1
