import numpy as np
import pytest

from treebelief import exact
from treebelief.bench import make_chain, random_stochastic
from treebelief.contract import build_hierarchy, contract_pass
from treebelief.errors import StructureError
from treebelief.tree import RawTree, binarize
from util import post_random_evidence, random_binarized_tree


def golden_raw(rng=None, identity=False):
    """Length-4 chain: x1..x4 (ids 0,2,4,6), leaves e1..e5 (ids 1,3,5,7,8)."""
    rng = rng or np.random.default_rng(0)
    mk = (lambda: np.eye(2)) if identity else (lambda: random_stochastic(rng, 2, 2))
    raw = RawTree(2)
    names = ["x1", "e1", "x2", "e2", "x3", "e3", "x4", "e4", "e5"]
    for i, nm in enumerate(names):
        raw.add_node(i, nm)
    raw.set_root(0, [0.5, 0.5] if identity else random_stochastic(rng, 1, 2)[0])
    for p, c in [(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (4, 6), (6, 7), (6, 8)]:
        raw.add_edge(p, c, mk())
    return raw


def golden_chain(rng=None, identity=False):
    return binarize(golden_raw(rng, identity))


X1, E1, X2, E2, X3, E3, X4, E4, E5 = range(9)


class TestGoldenChain:
    def test_first_pass_rakes_e2_e4(self):
        hier = build_hierarchy(golden_chain())
        t1 = hier.levels[1]
        assert t1.contains == {X1, E1, X3, E3, E5}
        assert set(hier.recipe_by_leaf) >= {E2, E4}
        assert hier.recipe_by_leaf[E2].level == 0
        assert hier.recipe_by_leaf[E4].level == 0

    def test_second_pass_rakes_e3(self):
        hier = build_hierarchy(golden_chain())
        t2 = hier.levels[2]
        assert t2.contains == {X1, E1, E5}
        assert hier.recipe_by_leaf[E3].level == 1
        assert hier.top == 2

    def test_rake_matrix_equation(self):
        # B_1(x1) = B_0(x1) . Diag(A_0(x2) . lambda(e2)) . B_0(x2)
        tree = golden_chain()
        tree.set_evidence(E2, [0.3, 0.9])
        hier = build_hierarchy(tree)
        b0_x1 = tree.matrix[X2]
        a0_x2 = tree.matrix[E2]
        b0_x2 = tree.matrix[X3]
        want = b0_x1 @ np.diag(a0_x2 @ np.array([0.3, 0.9])) @ b0_x2
        got = hier.levels[1].cell[(X1, "B")].value
        assert np.allclose(got, want, atol=1e-12)

    def test_identity_matrices_compose_to_identity(self):
        hier = build_hierarchy(golden_chain(identity=True))
        for recipe in hier.recipes:
            assert np.allclose(recipe.target.value, np.eye(2), atol=1e-15)


class TestRakeSemantics:
    def test_lambda_preserved_across_levels(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            t = random_binarized_tree(rng, int(rng.integers(3, 15)), 2)
            post_random_evidence(t, rng, 3, hard_prob=0.0)
            hier = build_hierarchy(t)
            lam0 = hier.level_lambdas(0)
            for i in range(1, len(hier.levels)):
                lam_i = hier.level_lambdas(i)
                for node, v in lam_i.items():
                    a, b = lam0[node], v
                    # compare up to positive scale (underflow rescaling)
                    assert np.allclose(a * b.sum(), b * a.sum(), atol=1e-12)

    def test_carry_over_shares_cell_object(self):
        hier = build_hierarchy(golden_chain())
        t0, t1 = hier.levels[0], hier.levels[1]
        # A-side of x1 (edge to e1) is untouched by the first pass
        assert t1.cell[(X1, "A")] is t0.cell[(X1, "A")]

    def test_single_successor(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = random_binarized_tree(rng, int(rng.integers(3, 25)), 2)
            hier = build_hierarchy(t)  # rake() itself audits double consumption
            for recipe in hier.recipes:
                succ = hier.successor.get(recipe.target)
                if succ is not None:
                    assert recipe.target in succ.inputs()


class TestContractPass:
    def test_min_leaves_noop(self):
        raw = RawTree(2)
        rng = np.random.default_rng(3)
        for n in range(3):
            raw.add_node(n)
        raw.set_root(0, [0.5, 0.5])
        raw.add_edge(0, 1, random_stochastic(rng, 2, 2))
        raw.add_edge(0, 2, random_stochastic(rng, 2, 2))
        t = binarize(raw)
        hier = build_hierarchy(t)
        assert hier.top == 0
        assert hier.recipes == []
        assert contract_pass(hier, hier.levels[0]) is None

    def test_balanced_8_leaves(self):
        rng = np.random.default_rng(4)
        raw = RawTree(2)
        raw.add_node(0)
        raw.set_root(0, [0.5, 0.5])
        frontier, nid = [0], 1
        for _ in range(3):
            nf = []
            for p in frontier:
                for _ in range(2):
                    raw.add_node(nid)
                    raw.add_edge(p, nid, random_stochastic(rng, 2, 2))
                    nf.append(nid)
                    nid += 1
            frontier = nf
        hier = build_hierarchy(binarize(raw))
        # every pass rakes >= 2 leaves, except the last which may have only
        # one eligible leaf left (5-node tree -> 3-node tree)
        assert all(r >= 2 for r in hier.rakes_per_pass[:-1])
        assert hier.rakes_per_pass[-1] >= 1
        assert len(hier.levels) <= 12
        assert len(hier.levels[-1].contains) == 3


class TestBuildHierarchy:
    def test_chain_top_tree(self):
        for m in (3, 4, 5):
            tree = make_chain(2**m, 2, np.random.default_rng(m))
            hier = build_hierarchy(tree)
            top = hier.levels[-1]
            assert len(top.contains) == 3
            assert tree.root in top.contains

    def test_fresh_matrix_count_chain(self):
        # exact halving: rakes = leaves - 2
        tree = make_chain(33, 2, np.random.default_rng(5))
        leaves = len(tree.in_order_leaves())
        hier = build_hierarchy(tree)
        assert hier.fresh_matrix_count() == leaves - 2

    def test_build_cost_linear(self):
        from treebelief.linalg import OpCounter

        tree = make_chain(64, 2, np.random.default_rng(6))
        c = OpCounter()
        build_hierarchy(tree, counter=c)
        assert c.mat_mat <= 2 * len(tree.in_order_leaves())

    def test_level_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            t = random_binarized_tree(rng, int(rng.integers(3, 80)), 2)
            hier = build_hierarchy(t)
            leaves = len(t.in_order_leaves())
            assert len(hier.levels) <= 4 * int(np.ceil(np.log2(max(2, leaves)))) + 2

    def test_invalid_tree_rejected(self):
        # validation happens once, in binarize: an invalid tree never
        # reaches build_hierarchy
        raw = golden_raw()
        raw.matrix[E1] = np.array([[0.5, 0.4], [0.2, 0.8]])
        with pytest.raises(StructureError):
            binarize(raw)

    def test_dump_lines_shape(self):
        hier = build_hierarchy(golden_chain())
        lines = hier.dump_lines()
        assert sum(1 for l in lines if l.startswith("level 0 nodes")) == 1
        assert sum(1 for l in lines if "<-" in l) == len(hier.recipes)
