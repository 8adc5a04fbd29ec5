import gc
import sys
from collections import Counter

import numpy as np
import pytest

from treebelief import contract, exact, linalg
from treebelief.bench import make_balanced, make_chain, make_random, random_stochastic
from treebelief.contract import build_hierarchy, contract_pass, rake
from treebelief.errors import StructureError
from treebelief.linalg import FactoredMatrix, OpCounter
from treebelief.tree import RawTree, binarize
from test_exact import mixed_join_tree, shared_evidence_chain
from util import (
    level_lambdas,
    per_rake_build,
    post_random_evidence,
    random_binarized_tree,
    random_join_tree,
    updatable_leaves,
)


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
        assert len(hier.levels) - 1 == 2

    def test_rake_matrix_equation(self):
        # B_1(x1) = B_0(x1) . Diag(A_0(x2) . lambda(e2)) . B_0(x2)
        tree = golden_chain()
        tree.set_evidence([(E2, [0.3, 0.9])])
        hier = build_hierarchy(tree)
        b0_x1 = tree.matrix[X2]
        a0_x2 = tree.matrix[E2]
        b0_x2 = tree.matrix[X3]
        want = b0_x1 @ np.diag(a0_x2 @ np.array([0.3, 0.9])) @ b0_x2
        got = hier.levels[1].cell[X3].value  # X3 took X2's place under X1
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
            lam0 = level_lambdas(hier, 0)
            for i in range(1, len(hier.levels)):
                lam_i = level_lambdas(hier, i)
                for node, v in lam_i.items():
                    a, b = lam0[node], v
                    # compare up to positive scale (underflow rescaling)
                    assert np.allclose(a * b.sum(), b * a.sum(), atol=1e-12)

    def test_carry_over_shares_cell_object(self):
        hier = build_hierarchy(golden_chain())
        t0, t1 = hier.levels[0], hier.levels[1]
        # A-side of x1 (edge to e1) is untouched by the first pass
        assert t1.cell[E1] is t0.cell[E1]
        assert hier.names()[t1.cell[E1]] == (X1, "A", 0)

    def test_cells_keyed_by_child(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            t = random_binarized_tree(rng, int(rng.integers(3, 40)), 2)
            hier = build_hierarchy(t)
            names = hier.names()
            made = {}  # level -> cells derived by the pass that made it
            for r in hier.recipes:
                made.setdefault(r.level + 1, set()).add(r.target)
            for lt in hier.levels:
                for c, cell in lt.cell.items():
                    x = cell.parent
                    assert c in lt.kids[x]
                    side = "A" if lt.kids[x][0] == c else "B"
                    if lt.level == 0:
                        assert cell.value is t.matrix[c]
                        assert names[cell] == (x, side, 0)
                    elif cell in made.get(lt.level, ()):
                        assert names[cell] == (x, side, lt.level)
                    else:
                        assert cell is hier.levels[lt.level - 1].cell[c]

    def test_second_rake_is_refused(self):
        # each input matrix feeds one recipe: raking a leaf of T_0 again, or a
        # leaf whose inputs an earlier rake read, fails the consumer audit
        hier = build_hierarchy(golden_chain())
        t0 = hier.levels[0]
        recipes = list(hier.recipes)
        for e, x in ((E2, X2), (E4, X4), (E3, X3)):
            msg = f"edge matrix into {x} at level 0 consumed twice"
            with pytest.raises(StructureError, match=msg):
                rake(hier, t0, t0.copy_next(), e)
        assert hier.recipes == recipes
        rng = np.random.default_rng(9)
        for _ in range(20):
            hier = build_hierarchy(random_binarized_tree(rng, int(rng.integers(3, 25)), 2))
            for r in hier.recipes:
                lt = hier.levels[r.level]
                with pytest.raises(StructureError, match="consumed twice"):
                    rake(hier, lt, lt.copy_next(), r.leaf)

    def test_single_successor(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = random_binarized_tree(rng, int(rng.integers(3, 25)), 2)
            hier = build_hierarchy(t)  # rake() itself audits double consumption
            for recipe in hier.recipes:
                succ = hier.consumer(recipe.target)
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
        assert len(hier.levels) - 1 == 0
        assert hier.recipes == []
        assert contract_pass(hier, hier.levels[0], t.in_order_leaves()) is None

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
        per_level = Counter(r.level for r in hier.recipes)
        rakes_per_pass = [per_level[level] for level in range(len(hier.levels) - 1)]
        assert all(r >= 2 for r in rakes_per_pass[:-1])
        assert rakes_per_pass[-1] >= 1
        assert len(hier.levels) <= 12
        assert len(hier.levels[-1].contains) == 3

    def test_links_agree_at_every_level(self, monkeypatch):
        """At every level each pair's children map back to it through their
        cells' `parent`, and `cell` holds exactly the non-root nodes reachable
        through `kids`: also where one pass rakes under both children of one
        node, so the second rake splices a pair the first one rewrote.  Each
        level is checked as its pass returns it."""

        def check_links(lt):
            for x, pair in lt.kids.items():
                assert [lt.cell[c].parent for c in pair] == [x, x]
            reached, stack = [], list(lt.kids.get(lt.root, ()))
            while stack:
                c = stack.pop()
                reached.append(c)
                stack += lt.kids.get(c, ())
            assert sorted(reached) == sorted(lt.cell)

        def checked(hier, cur, leaves, counter=None):
            step = contract_pass(hier, cur, leaves, counter)
            if step is not None:
                check_links(step[0])
            return step

        monkeypatch.setattr(contract, "contract_pass", checked)
        rng = np.random.default_rng(12)
        trees = [make_balanced(16, 2, rng)]
        trees += [random_binarized_tree(rng, int(rng.integers(3, 40)), 2) for _ in range(20)]
        for n, t in enumerate(trees):
            hier = build_hierarchy(t)
            check_links(hier.levels[0])
            if n == 0:  # the balanced tree: some pass rakes under both children of a node
                grandparents = Counter()
                for r in hier.recipes:
                    lt = hier.levels[r.level]
                    grandparents[r.level, lt.cell[lt.cell[r.leaf].parent].parent] += 1
                assert max(grandparents.values()) == 2

    def test_level_layout(self):
        """A level's parents live in its cells, and its dicts are compact: no
        room left over from the level below, whose copy the rakes thinned."""
        hier = build_hierarchy(make_random(2000, 2, np.random.default_rng(13)))
        assert len(hier.levels) > 10
        for lt in hier.levels:
            assert not hasattr(lt, "parent")
            for c, cell in lt.cell.items():
                assert c in lt.kids[cell.parent]
            for links in (lt.cell, lt.kids):
                assert sys.getsizeof(links) <= sys.getsizeof(dict(links)), lt.level


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
        assert len(hier.recipes) == leaves - 2

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

    def test_one_leaf_walk_derives_every_level(self, monkeypatch):
        # each pass returns the next level's in-order leaves without walking
        # it; T_0's are the only ones walked
        passes, walks = [], []
        walk = contract.LevelTree.in_order_leaves

        def counted(lt):
            walks.append(lt.level)
            return walk(lt)

        def recorded(hier, cur, leaves, counter=None):
            step = contract_pass(hier, cur, leaves, counter)
            passes.append(step)
            return step

        monkeypatch.setattr(contract.LevelTree, "in_order_leaves", counted)
        monkeypatch.setattr(contract, "contract_pass", recorded)
        rng = np.random.default_rng(10)
        for _ in range(20):
            t = random_binarized_tree(rng, int(rng.integers(1, 60)), 2)
            passes.clear()
            walks.clear()
            hier = build_hierarchy(t)
            assert walks == [0]
            assert len(passes) == len(hier.levels) and passes[-1] is None
            for lt, step in zip(hier.levels[1:], passes):
                assert step[0] is lt and step[1] == walk(lt)

    def test_dropped_hierarchy_leaves_no_cycles(self):
        # a cell names its consumer by position, so reference counting alone
        # frees a hierarchy nothing refers to
        t = make_chain(40, 2, np.random.default_rng(12))
        gc.collect()
        gc.disable()
        try:
            build_hierarchy(t)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_ind_holds_internal_nodes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            t = random_binarized_tree(rng, int(rng.integers(1, 40)), 2)
            hier = build_hierarchy(t)
            assert hier.ind.keys() == t.kids.keys()
            top = len(hier.levels) - 1
            for x, i in hier.ind.items():
                assert x in hier.levels[i].kids
                assert i == top or x not in hier.levels[i + 1].cell

    def test_invalid_tree_rejected(self):
        # validation happens once, in binarize: an invalid tree never
        # reaches build_hierarchy
        raw = golden_raw()
        raw.matrix[E1] = np.array([[0.5, 0.4], [0.2, 0.8]])
        with pytest.raises(StructureError):
            binarize(raw)

    def test_dump_lines_golden_chain(self):
        assert build_hierarchy(golden_chain()).dump_lines() == [
            "level 0 nodes 0 1 2 3 4 5 6 7 8",
            "level 1 nodes 0 1 4 5 8",
            "level 2 nodes 0 1 8",
            "level 1 0.B <- 0.B@0 2.A@0 2.B@0 lambda(3)",
            "level 1 4.B <- 4.B@0 6.A@0 6.B@0 lambda(7)",
            "level 2 0.B <- 0.B@1 4.A@0 4.B@1 lambda(5)",
        ]

    def test_dump_lines_shape(self):
        hier = build_hierarchy(golden_chain())
        lines = hier.dump_lines()
        assert sum(1 for l in lines if l.startswith("level 0 nodes")) == 1
        assert sum(1 for l in lines if "<-" in l) == len(hier.recipes)


def form(m) -> tuple:
    return (m.left.shape, m.right.shape) if isinstance(m, FactoredMatrix) else m.shape


def value_bits(m) -> tuple:
    if isinstance(m, FactoredMatrix):
        return form(m), m.left.tobytes(), m.right.tobytes()
    return form(m), m.tobytes()


STACKED_BUILD_TREES = {
    "random": lambda rng: random_binarized_tree(rng, 300, 3),
    "balanced": lambda rng: make_balanced(256, 4, rng),
    "chain": lambda rng: make_chain(200, 2, rng),
    "k27 chain": lambda rng: make_chain(60, 27, rng),
    "k27 shared chain": lambda rng: shared_evidence_chain(rng, 60, random_stochastic(rng, 27, 27), k=27),
    "factored join": lambda rng: random_join_tree(rng, k=3, n=3, c=1, depth=5)[0],
    "mixed join": lambda rng: mixed_join_tree(rng, k=2, n=2, c=1, depth=6),
    "varied join": lambda rng: mixed_join_tree(rng, k=2, n=3, c=(1, 2), depth=10),
}


def scaled_evidence_tree(shape: str):
    """A `STACKED_BUILD_TREES` tree whose leaves are posted in turn at scales
    1, 2**-120, 2**120, 1e-300 and 1e300, and a few left without evidence,
    so that the build's guard shifts some targets."""
    rng = np.random.default_rng(sorted(STACKED_BUILD_TREES).index(shape))
    t = STACKED_BUILD_TREES[shape](rng)
    scales = [1.0, 2.0**-120, 2.0**120, 1e-300, 1e300, None]
    t.set_evidence(
        (leaf, (rng.random(t.k) + 0.05) * scales[i % 6])
        for i, leaf in enumerate(updatable_leaves(t)) if scales[i % 6] is not None
    )
    return t


class TestStackedBuild:
    """A pass fills its targets with one `linalg.rake_rows` per operand form:
    every cell is bitwise the per-rake build (`tests/util.py::per_rake_build`),
    with equal `build_counter` totals and `dump_lines()`, and each target
    owns its data.  Counting wrappers pin that no per-rake product comes
    back into the build."""

    @pytest.mark.parametrize("shape", sorted(STACKED_BUILD_TREES))
    def test_cells_bitwise_per_rake_build(self, shape, monkeypatch):
        t = scaled_evidence_tree(shape)
        shifts = []
        guard = linalg.rescale_rows

        def recorded(v):
            out = guard(v)
            shifts.append(out is not v)
            return out

        monkeypatch.setattr(linalg, "rescale_rows", recorded)
        c, c_ref = OpCounter(), OpCounter()
        hier = build_hierarchy(t, c)
        assert any(shifts)  # the guard shifted some target
        ref = per_rake_build(t, c_ref)
        assert c == c_ref
        assert hier.dump_lines() == ref.dump_lines()
        for lt, lt_ref in zip(hier.levels, ref.levels, strict=True):
            assert lt.cell.keys() == lt_ref.cell.keys()
            for x, cell in lt.cell.items():
                assert value_bits(cell.value) == value_bits(lt_ref.cell[x].value), (lt.level, x)
        for r in hier.recipes:
            v = r.target.value
            assert (v.right if isinstance(v, FactoredMatrix) else v).base is None

    @pytest.mark.parametrize("shape", sorted(STACKED_BUILD_TREES))
    def test_one_rake_rows_per_form_per_pass(self, shape, monkeypatch):
        """During a build `linalg.rake_compose` is never called, each pass
        calls `rake_rows` once per operand form among its recipes, and
        `rake` still runs once per recipe (the traced `contract.rake.calls`
        is unchanged).  Join trees with pads, or with two factor shapes, have
        passes of several forms."""
        t = scaled_evidence_tree(shape)
        calls = {"rake_compose": 0, "rake": 0}
        per_pass = []  # rake_rows calls of each pass

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        def rake_rows(*args):
            per_pass[-1] += 1
            return kernel(*args)

        def each_pass(*args):
            per_pass.append(0)
            return step(*args)

        kernel, step = linalg.rake_rows, contract.contract_pass
        monkeypatch.setattr(linalg, "rake_compose", counted("rake_compose", linalg.rake_compose))
        monkeypatch.setattr(contract, "rake", counted("rake", contract.rake))
        monkeypatch.setattr(linalg, "rake_rows", rake_rows)
        monkeypatch.setattr(contract, "contract_pass", each_pass)
        hier = build_hierarchy(t, OpCounter())
        assert calls == {"rake_compose": 0, "rake": len(hier.recipes)}
        forms = [set() for _ in per_pass]
        for r in hier.recipes:
            forms[r.level].add(tuple(form(c.value) for c in r.inputs()))
        assert per_pass == [len(f) for f in forms]
        if shape in ("mixed join", "varied join"):
            assert max(per_pass) > 1
