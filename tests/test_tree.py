import numpy as np
import pytest

from treebelief import exact
from treebelief.bench import ENGINES, make_engine, random_stochastic
from treebelief.errors import DimensionError, StructureError, UsageError
from treebelief.jointree import FactoredMatrix
from treebelief.tree import ROW_SUM_TOL, CausalTree, RawTree, binarize
from util import (
    attach_evidence_leaf,
    depth,
    random_binarized_tree,
    random_join_tree,
    random_raw_tree,
)


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
        l, r = t.kids[0]
        assert l == 1
        assert t.resolve(r) == 0
        assert np.array_equal(t.matrix[r], np.eye(2))
        assert set(t.kids[r]) == {2, 3}

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
        assert t.kids[0] == (1, 2)

    def test_single_child_gets_dummy(self):
        rng = np.random.default_rng(2)
        raw = RawTree(2)
        raw.add_node(0)
        raw.add_node(1)
        raw.set_root(0, [0.5, 0.5])
        raw.add_edge(0, 1, random_stochastic(rng, 2, 2))
        t = binarize(raw)
        l, r = t.kids[0]
        assert l == 1 and r in t.dummies
        assert np.array_equal(t.leaf_lambda(r), np.ones(2))

    def test_copies_and_dummies_share_one_identity(self):
        rng = np.random.default_rng(4)
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [0.5, 0.5])
        for c in range(1, 6):  # 0 -> 1..5, 1 -> 6: three copies and a dummy
            raw.add_node(c)
            raw.add_edge(0, c, random_stochastic(rng, 2, 2))
        raw.add_node(6)
        raw.add_edge(1, 6, random_stochastic(rng, 2, 2))
        t = binarize(raw)
        added = [x for x in t.matrix if x not in raw.matrix]
        assert len(added) == 4 and len(t.alias) == 3 and len(t.dummies) == 1
        assert len({id(t.matrix[x]) for x in added}) == 1
        assert np.array_equal(t.matrix[added[0]], np.eye(2))

    def test_one_copy_per_raw_matrix(self):
        raw = three_child_raw()
        shared = raw.matrix[1]
        raw.matrix[3] = shared
        t = binarize(raw)
        assert t.matrix[1] is t.matrix[3] and t.matrix[1] is not shared
        before = exact.propagate_all(t)
        shared[:] = [[0.0, 1.0], [1.0, 0.0]]  # the raw tree is the caller's
        raw.matrix[2][:] = 0.5
        after = exact.propagate_all(t)
        for x in t.names:
            assert np.array_equal(before[x], after[x])
        assert t.validate() == []

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

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 0)], "root has a parent"),  # cycle through the root
            ([(1, 1)], "reachable twice"),  # self-loop
            ([(8, 9), (9, 8)], "node 8 unreachable"),  # orphan cycle
            ([(0, 1)], "reachable twice"),  # duplicate edge
            ([(9, 0)], "root has a parent"),
        ],
        ids=["cycle-through-root", "self-loop", "orphan-cycle", "duplicate-edge",
             "root-with-parent"],
    )
    def test_bad_structure_rejected_by_validate(self, edges, message):
        """binarize links the raw tree as given; its one check, `validate`,
        names the defect."""
        raw = three_child_raw()
        for p, c in edges:
            for n in (p, c):
                if n not in raw.names:
                    raw.add_node(n)
            raw.add_edge(p, c, np.eye(2))
        with pytest.raises(StructureError, match=message):
            binarize(raw)

    def test_wrong_shape_matrix_rejected(self):
        raw = three_child_raw()
        raw.add_node(4)
        raw.add_edge(3, 4, np.eye(3))  # a 3x3 edge matrix in a k=2 tree
        with pytest.raises(StructureError, match=r"into 4 has shape \(3, 3\)"):
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
        # the engines' kernels do not check lengths: their updates reach this
        # check before any product
        for name in ENGINES:
            eng = make_engine(name, binarize(three_child_raw()))
            with pytest.raises(DimensionError):
                eng.update_evidence(1, np.ones(3))

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
        """`add_edge` takes any values; `validate`, called by `binarize`, is
        the one finiteness check, for dense and factored edges alike."""
        good = np.array([[0.5, 0.5], [0.5, 0.5]])
        dense = good.copy()
        dense[0, 0] = bad
        bad_right = good.copy()
        bad_right[1, 1] = bad
        bad_left = np.eye(2)
        bad_left[1, 0] = bad
        for m in (dense, FactoredMatrix(np.eye(2), bad_right),
                  FactoredMatrix(bad_left, good)):
            raw = three_child_raw()  # 0 -> (1, 2, 3); now 2 -> (4, 5)
            raw.add_node(4)
            raw.add_node(5)
            raw.add_edge(2, 4, good)
            raw.add_edge(2, 5, m)
            with pytest.raises(StructureError) as exc:
                binarize(raw)
            message = str(exc.value)
            assert "edge matrix into 5 has non-finite entries" in message
            assert "into 4" not in message


class TestAttachEvidenceLeaf:
    def test_internal_conditioning(self):
        rng = np.random.default_rng(6)
        t = random_binarized_tree(rng, 5, 2)
        internal = next(n for n in t.names if not t.is_leaf(n) and n != t.root)
        e = attach_evidence_leaf(t, internal)
        assert t.validate() == []
        t.set_evidence(e, [1, 0])
        bel = exact.joint_marginals(t)
        assert np.allclose(bel[internal], [1, 0], atol=1e-12)

    def test_all_ones_is_vacuous(self):
        rng = np.random.default_rng(7)
        t = random_binarized_tree(rng, 5, 2)
        before = exact.joint_marginals(t)
        x = next(n for n in t.names if not t.is_leaf(n))
        e = attach_evidence_leaf(t, x)
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
        attach_evidence_leaf(t1, a)
        attach_evidence_leaf(t1, b)
        attach_evidence_leaf(t2, b)
        attach_evidence_leaf(t2, a)
        b1 = exact.joint_marginals(t1)
        b2 = exact.joint_marginals(t2)
        for n in (a, b, t1.root):
            assert np.allclose(b1[n], b2[n], atol=1e-9)

    def test_leaf_keeps_old_evidence(self):
        t = binarize(three_child_raw())
        t.set_evidence(1, [0.2, 0.8])
        e = attach_evidence_leaf(t, 1)
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

    def test_deleted_pair_leaves_subtree_unreachable(self):
        t = binarize(three_child_raw())
        cp = t.kids[0][1]  # the copy of 0 that holds children 2 and 3
        del t.kids[cp]
        msgs = t.validate()
        assert [m for m in msgs if "unreachable" in m] == [
            "node 2 unreachable from root", "node 3 unreachable from root"
        ]

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

    def test_leaf_without_matrix_named(self):
        # a tree built in code: 0 -> (1, 2) with no matrix into leaf 2
        t = CausalTree(2)
        for n in range(3):
            t.add_node(n)
        t.root, t.prior = 0, np.array([0.5, 0.5])
        t.link(0, 1, 2)
        t.matrix[1] = np.eye(2)
        assert t.validate() == ["edge into 2 has no matrix"]
        t.matrix[2] = np.eye(2)
        assert t.validate() == []

    def test_single_node_tree_clean(self):
        t = CausalTree(3)
        t.add_node(0)
        t.root, t.prior = 0, np.full(3, 1 / 3)
        assert t.validate() == []

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_edge_check_matches_per_edge_loop(self, seed):
        """The edge messages of `validate` are, in order, those of the
        per-edge loop it replaced, on trees with every kind of bad matrix."""
        rng = np.random.default_rng(seed)
        k = 3
        t = random_binarized_tree(rng, 40, k)
        good = random_stochastic(rng, k, k)

        def broken(kind):
            m = good.copy()
            if kind == "row":
                m[rng.integers(k)] *= 0.5
            elif kind == "negative":
                m[0, 0] = -1e-3
            elif kind == "above_one":
                m[1] = [1.5, -0.5, 0.0]
            elif kind == "nan":
                m[rng.integers(k), rng.integers(k)] = np.nan
            elif kind == "inf":
                m[2, 1] = np.inf
            elif kind == "shape":
                m = np.eye(k + 1)
            elif kind == "factored":
                m = FactoredMatrix(np.eye(k)[:, :2], rng.random((2, k)))
            elif kind == "factored_ok":
                m = FactoredMatrix(np.eye(k), good)
            elif kind == "factored_thin_ok":  # every row is good's row 0
                m = FactoredMatrix(np.ones((k, 1)), good[:1])
            elif kind == "factored_negative_left":  # rows sum to 1, row 0 is [2, -1, 0]
                m = FactoredMatrix(np.array([[2.0, -1.0], [1.0, 0.0], [0.0, 1.0]]),
                                   np.eye(k)[:2])
            elif kind == "factored_negative_right":
                right = good.copy()
                right[1] = [1.5, -0.5, 0.0]
                m = FactoredMatrix(np.eye(k), right)
            elif kind == "factored_nan":
                right = good.copy()
                right[rng.integers(k), rng.integers(k)] = np.nan
                m = FactoredMatrix(np.eye(k), right)
            elif kind == "factored_inf":
                m = FactoredMatrix(np.diag([1.0, np.inf, 1.0]), good)
            elif kind == "factored_high_entry":  # row sums pass, entry above 1 + 1e-12
                right = np.eye(k)
                right[0, 0] = 1.0 + 5e-10
                m = FactoredMatrix(np.eye(k), right)
            return m

        kinds = ["row", "negative", "above_one", "nan", "inf", "shape", "factored",
                 "factored_ok", "factored_thin_ok", "factored_negative_left",
                 "factored_negative_right", "factored_nan", "factored_inf",
                 "factored_high_entry", "ok"]
        children = sorted(t.matrix)
        for c in rng.choice(children, size=len(children) // 3, replace=False):
            t.matrix[int(c)] = broken(kinds[int(rng.integers(len(kinds)))])
        t.add_node(999)  # unreachable, its matrix is not checked
        t.matrix[999] = np.full((k, k), np.nan)
        t.prior = np.full(k, 1 / k)

        want = per_edge_messages(t, set(t.names) - {999})
        assert edge_messages(t) == want and len(want) > 0

    def test_sound_factored_edges_not_expanded(self, monkeypatch):
        """A factored edge that passes on its factors is never expanded to
        K x K; one that fails is, and is named as a dense one would be."""
        t, dense, _, K = random_join_tree(np.random.default_rng(4), 3, 3, 1)
        assert any(isinstance(m, FactoredMatrix) for m in t.matrix.values())

        def no_expand(self):
            raise AssertionError("expanded a sound factored matrix")

        monkeypatch.setattr(FactoredMatrix, "expand", no_expand)
        assert t.validate() == []
        monkeypatch.undo()
        child = next(c for c, m in t.matrix.items() if isinstance(m, FactoredMatrix))
        fm = t.matrix[child]
        t.matrix[child] = FactoredMatrix(fm.left, fm.right * 0.5)
        dense.matrix[child] = t.matrix[child].expand()
        assert edge_messages(t) == edge_messages(dense) == [
            f"edge matrix into {child}: row {row} sums to 0.5" for row in range(K)
        ]

    def test_shared_bad_matrix_named_for_every_edge(self):
        t = random_binarized_tree(np.random.default_rng(7), 12, 2)
        bad = np.array([[0.7, -0.2], [0.6, 0.6]])
        users = sorted(t.matrix)[1:8:3]
        for c in users:
            t.matrix[c] = bad
        t.add_node(999)  # unreachable: its edge is not named
        t.matrix[999] = bad
        got = edge_messages(t)
        assert got == per_edge_messages(t, set(t.names) - {999})
        assert got == [
            line
            for c in users
            for line in (
                f"edge matrix into {c}: row 0 sums to 0.5",
                f"edge matrix into {c}: row 1 sums to 1.2",
                f"edge matrix into {c} has entries outside [0,1]",
            )
        ]


def edge_messages(t):
    return [m for m in t.validate() if m.startswith("edge matrix into")]


def per_edge_messages(t, seen):
    """The edge messages `validate` gives, from a per-edge loop over `seen`."""
    k, want = t.k, []
    for child, m in t.matrix.items():
        if child not in seen:
            continue
        if hasattr(m, "expand"):
            with np.errstate(invalid="ignore"):  # 0 * inf in a factored test case
                m = m.expand()
        if m.shape != (k, k):
            want.append(f"edge matrix into {child} has shape {m.shape}")
            continue
        if not np.all(np.isfinite(m)):
            want.append(f"edge matrix into {child} has non-finite entries")
        for row in np.where(~(np.abs(m.sum(axis=1) - 1.0) <= ROW_SUM_TOL))[0]:
            want.append(f"edge matrix into {child}: row {row} sums to {m[row].sum():.6g}")
        if not np.all((m >= 0) & (m <= 1.0 + 1e-12)):
            want.append(f"edge matrix into {child} has entries outside [0,1]")
    return want


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
        assert depth(t, t.root) == 0
        assert depth(t, 1) == 1
