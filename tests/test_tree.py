import numpy as np
import pytest

from treebelief import exact
from treebelief.bench import random_stochastic
from treebelief.errors import DimensionError, StructureError, UsageError
from treebelief.tree import RawTree, binarize
from util import random_binarized_tree, random_raw_tree


def three_child_raw():
    raw = RawTree(2)
    rng = np.random.default_rng(0)
    raw.add_node(0, "p")
    raw.set_root(0, [0.5, 0.5])
    for c in (1, 2, 3):
        raw.add_node(c, f"c{c}")
        raw.add_edge(0, c, random_stochastic(rng, 2, 2))
    return raw


class TestBinarize:
    def test_three_children_right_spine(self):
        t = binarize(three_child_raw())
        assert t.validate() == []
        # p keeps c1 on the left, an identity-linked copy on the right
        l, r = t.children_of(0)
        assert l == 1
        assert t.resolve(r) == 0
        assert np.array_equal(t.matrix[r], np.eye(2))
        assert set(t.children_of(r)) == {2, 3}

    def test_already_binary_unchanged(self):
        rng = np.random.default_rng(1)
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [0.3, 0.7])
        for c in (1, 2):
            raw.add_node(c)
            raw.add_edge(0, c, random_stochastic(rng, 2, 2))
        t = binarize(raw)
        assert set(t.names) == {0, 1, 2}
        assert t.children_of(0) == (1, 2)

    def test_single_child_gets_dummy(self):
        rng = np.random.default_rng(2)
        raw = RawTree(2)
        raw.add_node(0)
        raw.add_node(1)
        raw.set_root(0, [0.5, 0.5])
        raw.add_edge(0, 1, random_stochastic(rng, 2, 2))
        t = binarize(raw)
        l, r = t.children_of(0)
        assert l == 1 and r in t.dummies
        assert np.array_equal(t.leaf_lambda(r), np.ones(2))

    def test_node_count_at_most_doubles(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = random_raw_tree(rng, int(rng.integers(2, 30)), 2, max_children=4)
            t = binarize(raw)
            assert len(t.names) <= 2 * len(raw.names)
            assert t.validate() == []

    def test_multiple_parents_rejected(self):
        raw = three_child_raw()
        raw.add_edge(1, 2, np.eye(2))
        with pytest.raises(StructureError):
            binarize(raw)

    def test_unreachable_rejected(self):
        raw = three_child_raw()
        raw.add_node(9, "orphan")
        with pytest.raises(StructureError):
            binarize(raw)

    def test_beliefs_preserved_for_originals(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            raw = random_raw_tree(rng, 6, 2, max_children=4)
            t = binarize(raw)
            for leaf in [l for l in t.in_order_leaves() if l not in t.dummies][:2]:
                t.set_evidence(leaf, rng.random(2) + 0.01)
            bel = exact.joint_marginals(t)
            # copies answer exactly like their originals
            for cp, orig in t.alias.items():
                assert np.allclose(bel[cp], bel[orig], atol=1e-9)


class TestEvidence:
    def test_set_and_retract(self):
        t = binarize(three_child_raw())
        t.set_evidence(1, [1, 0])
        assert np.array_equal(t.leaf_lambda(1), [1, 0])
        t.set_evidence(1, [1, 1])
        assert np.array_equal(t.leaf_lambda(1), [1, 1])

    def test_soft_evidence_accepted(self):
        t = binarize(three_child_raw())
        t.set_evidence(1, [0.7, 0.3])
        assert np.allclose(t.leaf_lambda(1), [0.7, 0.3])

    def test_non_leaf_rejected(self):
        t = binarize(three_child_raw())
        with pytest.raises(UsageError):
            t.set_evidence(0, [1, 0])

    def test_dummy_rejected(self):
        rng = np.random.default_rng(5)
        raw = RawTree(2)
        raw.add_node(0)
        raw.add_node(1)
        raw.set_root(0, [0.5, 0.5])
        raw.add_edge(0, 1, random_stochastic(rng, 2, 2))
        t = binarize(raw)
        dummy = next(iter(t.dummies))
        with pytest.raises(UsageError):
            t.set_evidence(dummy, [1, 0])

    def test_negative_rejected(self):
        t = binarize(three_child_raw())
        with pytest.raises(DimensionError):
            t.set_evidence(1, [-0.5, 1.0])

    def test_wrong_length_rejected(self):
        t = binarize(three_child_raw())
        with pytest.raises(DimensionError):
            t.set_evidence(1, [1, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        t = binarize(three_child_raw())
        with pytest.raises(DimensionError):
            t.set_evidence(1, [bad, 1.0])

    def test_leaves_without_evidence_share_read_only_ones(self):
        t = binarize(three_child_raw())
        a, b = t.leaf_lambda(1), t.leaf_lambda(2)
        assert a is b and np.array_equal(a, [1.0, 1.0])
        assert not a.flags.writeable


class TestRawInput:
    @pytest.mark.parametrize("prior", [[np.nan, 0.5], [np.inf, 0.5], [-1.0, 2.0], [0.0, 0.0]])
    def test_bad_prior_rejected(self, prior):
        raw = RawTree(2)
        raw.add_node(0)
        with pytest.raises(DimensionError):
            raw.set_root(0, prior)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        raw = RawTree(2)
        raw.add_node(0)
        raw.add_node(1)
        with pytest.raises(DimensionError):
            raw.add_edge(0, 1, [[bad, 0.5], [0.5, 0.5]])


class TestAttachEvidenceLeaf:
    def test_internal_conditioning(self):
        rng = np.random.default_rng(6)
        t = random_binarized_tree(rng, 5, 2)
        internal = next(n for n in t.names if not t.is_leaf(n) and n != t.root)
        e = t.attach_evidence_leaf(internal)
        assert t.validate() == []
        t.set_evidence(e, [1, 0])
        bel = exact.joint_marginals(t)
        assert np.allclose(bel[internal], [1, 0], atol=1e-12)

    def test_all_ones_is_vacuous(self):
        rng = np.random.default_rng(7)
        t = random_binarized_tree(rng, 5, 2)
        before = exact.joint_marginals(t)
        x = next(n for n in t.names if not t.is_leaf(n))
        e = t.attach_evidence_leaf(x)
        t.set_evidence(e, [1, 1])
        after = exact.joint_marginals(t)
        for n in before:
            assert np.allclose(before[n], after[n], atol=1e-9)

    def test_two_attaches_commute(self):
        rng = np.random.default_rng(8)
        t1 = random_binarized_tree(np.random.default_rng(8), 5, 2)
        t2 = random_binarized_tree(np.random.default_rng(8), 5, 2)
        nodes = [n for n in t1.names if not t1.is_leaf(n)][:2]
        assert len(nodes) == 2
        a, b = nodes
        t1.attach_evidence_leaf(a)
        t1.attach_evidence_leaf(b)
        t2.attach_evidence_leaf(b)
        t2.attach_evidence_leaf(a)
        b1 = exact.joint_marginals(t1)
        b2 = exact.joint_marginals(t2)
        for n in (a, b, t1.root):
            assert np.allclose(b1[n], b2[n], atol=1e-9)

    def test_leaf_keeps_old_evidence(self):
        t = binarize(three_child_raw())
        t.set_evidence(1, [0.2, 0.8])
        e = t.attach_evidence_leaf(1)
        assert t.validate() == []
        assert np.allclose(t.leaf_lambda(e), [0.2, 0.8])
        assert 1 not in t.evidence


class TestValidate:
    def test_clean(self):
        assert binarize(three_child_raw()).validate() == []

    def test_bad_row_sum_named(self):
        t = binarize(three_child_raw())
        t.matrix[1] = np.array([[0.8, 0.1], [0.2, 0.8]])
        msgs = t.validate()
        assert any("row 0" in m and "into 1" in m for m in msgs)

    def test_arity_violation(self):
        t = binarize(three_child_raw())
        del t.right[0]
        assert any("one child" in m for m in t.validate())

    def test_missing_prior(self):
        t = binarize(three_child_raw())
        t.prior = None
        assert any("prior" in m for m in t.validate())

    def test_nan_matrix_named(self):
        t = binarize(three_child_raw())
        t.matrix[1] = np.array([[np.nan, 0.5], [0.5, 0.5]])
        msgs = t.validate()
        assert any("row 0" in m and "into 1" in m for m in msgs)
        assert any("outside [0,1]" in m for m in msgs)


class TestTraversal:
    def test_in_order_leaves_chain(self):
        # x0 -> (e0, x1), x1 -> (e1, e2): in-order leaves e0, e1, e2
        rng = np.random.default_rng(9)
        raw = RawTree(2)
        for n, name in [(0, "x0"), (1, "e0"), (2, "x1"), (3, "e1"), (4, "e2")]:
            raw.add_node(n, name)
        raw.set_root(0, [0.5, 0.5])
        for p, c in [(0, 1), (0, 2), (2, 3), (2, 4)]:
            raw.add_edge(p, c, random_stochastic(rng, 2, 2))
        t = binarize(raw)
        assert t.in_order_leaves() == [1, 3, 4]

    def test_depth(self):
        t = binarize(three_child_raw())
        assert t.depth(t.root) == 0
        assert t.depth(1) == 1
