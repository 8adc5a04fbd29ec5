import numpy as np
import pytest

from treebelief import linalg
from treebelief.bench import random_stochastic
from treebelief.dynamic import DynamicEngine
from treebelief.errors import DimensionError, StructureError, UsageError
from treebelief.jointree import (
    CliqueNode,
    FactoredMatrix,
    build_projection,
    clique_evidence,
    marginalize,
)
from treebelief.linalg import OpCounter
from util import factored_identity, random_join_tree


class TestFactoredMatrix:
    def test_shape_and_expand(self):
        rng = np.random.default_rng(0)
        fm = FactoredMatrix(rng.random((4, 2)), rng.random((2, 4)))
        assert fm.shape == (4, 4)
        assert np.allclose(fm.expand(), fm.left @ fm.right)

    def test_mv_matches_expanded(self):
        rng = np.random.default_rng(1)
        fm = FactoredMatrix(rng.random((4, 2)), rng.random((2, 4)))
        v = rng.random(4)
        assert np.allclose(fm.mv(v), fm.expand() @ v, atol=1e-12)
        assert np.allclose(fm.mv_t(v), fm.expand().T @ v, atol=1e-12)

    def test_mv_counts_two(self):
        c = OpCounter()
        factored_identity(3).mv(np.ones(3), c)
        assert c.mat_vec == 2

    def test_jointree_name_is_the_linalg_class(self):
        assert FactoredMatrix is linalg.FactoredMatrix

    def test_chain_mismatch(self):
        with pytest.raises(DimensionError):
            FactoredMatrix(np.ones((4, 2)), np.ones((3, 4)))


class TestCliqueNode:
    def test_encoding_first_member_most_significant(self):
        cl = CliqueNode(members=("a", "b"), k=2)
        # value 2 is a=1, b=0: the first member's axis varies slowest
        assert np.ravel_multi_index((1, 0), (cl.k,) * cl.n) == 2
        delta = np.zeros(cl.K)
        delta[2] = 1.0
        assert np.array_equal(marginalize(delta, cl, "a"), [0, 1])
        assert np.array_equal(marginalize(delta, cl, "b"), [1, 0])
        assert clique_evidence(cl, "a", [0, 1])[2] == 1
        assert clique_evidence(cl, "b", [1, 0])[2] == 1

    def test_project(self):
        cl = CliqueNode(members=("a", "b", "c"), k=2)
        # value 0b101 -> a=1, b=0, c=1; J's row 5 holds its intersection code
        to_ac = CliqueNode(members=("a", "c"), k=2, intersection=("a", "c"))
        to_b = CliqueNode(members=("b",), k=2, intersection=("b",))
        assert np.argmax(build_projection(to_ac, cl, np.eye(4)).left[5]) == 3
        assert np.argmax(build_projection(to_b, cl, np.eye(2)).left[5]) == 0

    def test_unknown_member(self):
        cl = CliqueNode(members=("a",), k=2)
        with pytest.raises(UsageError):
            cl.position("z")


class TestBuildProjection:
    def test_spec_j_rows(self):
        parent = CliqueNode(members=("a", "b"), k=2)
        child = CliqueNode(members=("a", "c"), k=2, intersection=("a",))
        table = random_stochastic(np.random.default_rng(2), 2, 4)
        fm = build_projection(child, parent, table)
        assert np.array_equal(fm.left, [[1, 0], [1, 0], [0, 1], [0, 1]])
        assert np.array_equal(fm.right, table)

    def test_intersection_in_listed_order(self):
        # parent value a b c (a most significant) -> intersection code c a
        parent = CliqueNode(members=("a", "b", "c"), k=2)
        child = CliqueNode(members=("c", "a", "d"), k=2, intersection=("c", "a"))
        table = random_stochastic(np.random.default_rng(9), 4, 8)
        fm = build_projection(child, parent, table)
        assert np.array_equal(fm.left, np.eye(4)[[0, 2, 0, 2, 1, 3, 1, 3]])

    def test_full_intersection_identity(self):
        parent = CliqueNode(members=("a", "b"), k=2)
        child = CliqueNode(members=("a", "b"), k=2, intersection=("a", "b"))
        table = random_stochastic(np.random.default_rng(3), 4, 4)
        fm = build_projection(child, parent, table)
        assert np.array_equal(fm.left, np.eye(4))

    def test_application_associativity(self):
        rng = np.random.default_rng(4)
        parent = CliqueNode(members=("a", "b"), k=2)
        child = CliqueNode(members=("b", "c"), k=2, intersection=("b",))
        fm = build_projection(child, parent, random_stochastic(rng, 2, 4))
        v = rng.random(4)
        assert np.allclose(fm.mv(v), fm.left @ (fm.right @ v), atol=1e-12)
        assert np.allclose(fm.mv(v), fm.expand() @ v, atol=1e-12)

    def test_unshared_intersection_rejected(self):
        parent = CliqueNode(members=("a", "b"), k=2)
        child = CliqueNode(members=("c", "d"), k=2, intersection=("c",))
        with pytest.raises(StructureError):
            build_projection(child, parent, np.ones((2, 4)) / 4)

    def test_row_stochastic_product(self):
        rng = np.random.default_rng(5)
        parent = CliqueNode(members=("a", "b"), k=2)
        child = CliqueNode(members=("a", "c"), k=2, intersection=("a",))
        fm = build_projection(child, parent, random_stochastic(rng, 2, 4))
        assert np.allclose(fm.expand().sum(axis=1), 1.0, atol=1e-12)
        assert set(np.unique(fm.left)) <= {0.0, 1.0}
        assert np.allclose(fm.left.sum(axis=1), 1.0)


class TestCliqueEvidence:
    def test_all_ones(self):
        cl = CliqueNode(members=("a", "b"), k=2)
        assert np.array_equal(clique_evidence(cl, "a", [1, 1]), np.ones(4))

    def test_spec_example(self):
        cl = CliqueNode(members=("a", "b"), k=2)
        assert np.array_equal(clique_evidence(cl, "a", [1, 0]), [1, 1, 0, 0])

    def test_compose_is_hadamard(self):
        rng = np.random.default_rng(6)
        cl = CliqueNode(members=("a", "b", "c"), k=2)
        la, lb = rng.random(2), rng.random(2)
        assert np.array_equal(
            clique_evidence(cl, "a", la) * clique_evidence(cl, "b", lb),
            np.multiply.outer(np.multiply.outer(la, lb), np.ones(2)).ravel(),
        )
        # lifting respects coordinates
        lifted = clique_evidence(cl, "b", lb)
        b_of = np.unravel_index(np.arange(8), (2, 2, 2))[cl.position("b")]
        assert np.array_equal(lifted, lb[b_of])


class TestMarginalize:
    def test_uniform(self):
        cl = CliqueNode(members=("a", "b"), k=2)
        assert np.allclose(marginalize(np.ones(4) / 4, cl, "a"), [0.5, 0.5])

    def test_delta_recovered(self):
        cl = CliqueNode(members=("a", "b"), k=2)
        bel = np.zeros(4)
        bel[2] = 1.0  # a=1, b=0
        assert np.array_equal(marginalize(bel, cl, "a"), [0, 1])
        assert np.array_equal(marginalize(bel, cl, "b"), [1, 0])


class TestFactoredRake:
    def test_matches_unfactored(self):
        rng = np.random.default_rng(7)
        k, n, c = 2, 2, 1
        K, L = k**n, k**c
        for _ in range(20):
            b_u = FactoredMatrix(
                np.eye(K)[:, rng.permutation(K)[:L]], random_stochastic(rng, L, K)
            )
            a_x = FactoredMatrix(
                np.eye(K)[:, rng.permutation(K)[:L]], random_stochastic(rng, L, K)
            )
            b_x = FactoredMatrix(
                np.eye(K)[:, rng.permutation(K)[:L]], random_stochastic(rng, L, K)
            )
            lam = rng.random(K)
            got = linalg.rake_compose(b_u, a_x, b_x, lam)
            assert isinstance(got, FactoredMatrix)
            assert got.left is b_u.left
            assert got.left.shape == (K, L) and got.right.shape == (L, K)
            want = b_u.expand() @ np.diag(a_x.expand() @ lam) @ b_x.expand()
            assert np.allclose(got.expand(), want, atol=1e-9)

    def test_identity_all_ones(self):
        K = 4
        ident = factored_identity(K)
        got = linalg.rake_compose(ident, ident, factored_identity(K), np.ones(K))
        assert np.allclose(got.expand(), np.eye(K), atol=1e-15)


class TestFactoredEngineEquivalence:
    def test_factored_vs_dense_beliefs_and_flops(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            tf, td, leaf_cliques, K = random_join_tree(rng, k=2, n=3, c=1, depth=3)
            cf, cd = OpCounter(), OpCounter()
            ef, ed = DynamicEngine(tf, cf), DynamicEngine(td, cd)
            for _ in range(6):
                leaf = leaf_cliques[int(rng.integers(len(leaf_cliques)))]
                lik = rng.random(K) + 0.05
                ef.update_evidence(leaf, lik)
                ed.update_evidence(leaf, lik)
                node = int(rng.integers(len(tf.names)))
                assert np.allclose(ef.bel_query(node), ed.bel_query(node), atol=1e-9)
            flops_f = ef.build_counter.flops + cf.flops
            flops_d = ed.build_counter.flops + cd.flops
            assert flops_f < flops_d
