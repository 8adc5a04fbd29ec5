import numpy as np
import pytest

from treebelief import exact
from treebelief.bench import make_chain
from treebelief.dynamic import DynamicEngine
from treebelief.errors import UsageError
from treebelief.formats import parse_btn
from treebelief.tree import CausalTree
from test_contract import E1, E2, E3, E4, X1, X3, golden_chain
from test_exact import three_node_tree
from test_formats import THREE_NODE_BTN
from util import post_random_evidence, random_binarized_tree, updatable_leaves


class TestLambdaQuery:
    def test_leaf_returns_slot(self):
        eng = DynamicEngine(golden_chain())
        eng.update_evidence(E2, [0.3, 0.9])
        before = eng.counter.snapshot()
        assert np.array_equal(eng.lambda_query(E2), [0.3, 0.9])
        assert eng.counter.delta(before).mat_vec == 0

    def test_matches_exact_lambda(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t = random_binarized_tree(rng, int(rng.integers(3, 12)), 2)
            post_random_evidence(t, rng, 3, hard_prob=0.0)
            eng = DynamicEngine(t)
            lam, _ = exact.lambda_pass(t)
            for node in t.names:
                # lambda_query resolves binarization copies to their originals
                a = eng.lambda_query(node)
                b = lam[t.resolve(node)]
                assert np.allclose(a * b.sum(), b * a.sum(), atol=1e-9)

    def test_bounded_products_per_level(self):
        t = make_chain(64, 2, np.random.default_rng(1))
        eng = DynamicEngine(t)
        for node in list(t.names)[:20]:
            before = eng.counter.snapshot()
            eng.lambda_query(node)
            assert eng.counter.delta(before).mat_vec <= 2 * len(eng.hier.levels)

    def test_unknown_node(self):
        eng = DynamicEngine(golden_chain())
        with pytest.raises(UsageError):
            eng.lambda_query(999)


class TestUpdateEvidence:
    def test_golden_recipe_chain(self):
        eng = DynamicEngine(golden_chain())
        eng.update_evidence(E4, [1, 0])
        assert eng.last_recipe_recomputes == 2
        # B_1(x3) first, then B_2(x1)
        r1 = eng.hier.recipe_by_leaf[E4]
        assert r1.target.key[:2] == (X3, "B")
        r2 = eng.hier.successor[r1.target]
        assert r2.target.key[:2] == (X1, "B")
        assert r2.target not in eng.hier.successor

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
        p, l, r = eng.calc_pi_lambda(X1, eng.hier.top)
        assert np.array_equal(p, eng.prior)
        top = eng.hier.levels[eng.hier.top]
        tl, tr = top.children_of(X1)
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
        t = make_chain(256, 2, np.random.default_rng(6))
        eng = DynamicEngine(t)
        for node in list(t.names)[::37]:
            before = eng.counter.snapshot()
            eng.bel_query(node)
            assert eng.counter.delta(before).mat_vec <= 6 * len(eng.hier.levels)


class TestRebuildEquivalence:
    def test_bitwise_after_updates(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            t = random_binarized_tree(rng, int(rng.integers(3, 20)), 2)
            eng = DynamicEngine(t)
            leaves = updatable_leaves(t)
            for _ in range(10):
                leaf = leaves[int(rng.integers(len(leaves)))]
                eng.update_evidence(leaf, rng.random(2) + 0.01)
            rebuilt = eng.rebuild()
            assert len(rebuilt.recipes) == len(eng.hier.recipes)
            for a, b in zip(eng.hier.recipes, rebuilt.recipes):
                assert a.target.key == b.target.key
                assert np.array_equal(a.target.value, b.target.value)


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
