import warnings
from fractions import Fraction

import numpy as np
import pytest

from treebelief import dynamic, exact, linalg
from treebelief import tree as tree_mod
from treebelief.bench import FullEngine, make_balanced, make_chain, make_random, random_stochastic
from treebelief.dynamic import DynamicEngine
from treebelief.errors import InconsistentEvidenceError, ScaleError, UsageError
from treebelief.formats import parse_btn, serialize_btn
from treebelief.jointree import CliqueNode, FactoredMatrix, build_projection
from treebelief.linalg import OpCounter
from treebelief.tree import RawTree, binarize
from util import (
    attach_evidence_leaf,
    depth,
    fraction_marginals,
    per_node_sweep,
    post_random_evidence,
    random_binarized_tree,
    random_join_tree,
    relink_edge,
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
    t.set_evidence([(1, [1, 0])])
    return t


class TestPropagateAll:
    def test_worked_example(self):
        bel = exact.propagate_all(three_node_tree())
        assert np.allclose(bel[0], [9 / 11, 2 / 11], atol=1e-12)
        assert np.allclose(bel[2], [0.64545, 0.35455], atol=1e-4)

    def test_vacuous_evidence_gives_prior(self):
        t = three_node_tree()
        t.set_evidence([(1, [1, 1])])
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
        relink_edge(t, 1, np.eye(2))
        t.set_evidence([(1, [1, 0]), (2, [0, 0])])
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
    dense identity pads and copies beside the factored clique edges.  `c` is
    the intersection size, or a tuple of sizes to draw one from per clique
    (factored edges of several factor shapes)."""
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
                size = c if isinstance(c, int) else int(rng.choice(c))
                members = cliques[p].members
                shared = tuple(members[i] for i in sorted(rng.choice(n, size=size, replace=False)))
                clique = CliqueNode(
                    members=shared + tuple(next(fresh) for _ in range(n - size)),
                    k=k, intersection=shared,
                )
                nid = len(cliques)
                cliques[nid] = clique
                raw.add_node(nid)
                table = random_stochastic(rng, k**size, K)
                raw.add_edge(p, nid, build_projection(clique, cliques[p], table))
                below.append(nid)
        frontier = below
    return binarize(raw)


def check_sweep(t, mv_per_edge=None):
    """propagate_all against the hierarchy engine's bel_query at every node;
    one mat-vec per edge per direction (two per factored edge)."""
    c = OpCounter()
    full = exact.propagate_all(t, c)
    eng = DynamicEngine(t)
    assert set(full) == set(t.names)
    for x in t.names:
        assert np.allclose(full[x], eng.bel_query(x), rtol=0.0, atol=1e-12), x
    if mv_per_edge is None:
        mv_per_edge = {x: 1 for x in t.matrix}
    assert c.mat_vec == 2 * sum(mv_per_edge.values())
    return full, c


class TestPropagateAllBatched:
    """Trees with levels of at least BATCH_MIN_WIDTH nodes, where each
    direction of a level is one stacked product."""

    @pytest.fixture
    def stacked_calls(self, monkeypatch):
        """Rows per `apply_rows` call of at least BATCH_MIN_WIDTH rows: the
        message pass of a stacked depth, or of a leaf group as wide."""
        calls = []
        kernel = linalg.apply_rows

        def counted(m, rows, counter=None):
            if len(rows) >= tree_mod.BATCH_MIN_WIDTH:
                calls.append(len(rows))
            return kernel(m, rows, counter)

        monkeypatch.setattr(linalg, "apply_rows", counted)
        return calls

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_random_and_balanced_match_bel_query(self, k, stacked_calls):
        rng = np.random.default_rng(40 + k)
        for t in (make_random(300, k, rng), make_balanced(256, k, rng)):
            post_random_evidence(t, rng, 60)
            stacked_calls.clear()
            check_sweep(t)
            assert stacked_calls

    def test_batched_equals_per_node_loop(self, monkeypatch):
        def model():
            rng = np.random.default_rng(44)
            t = make_random(500, 3, rng)
            post_random_evidence(t, rng, 100)
            return t

        c_batched, c_loop = OpCounter(), OpCounter()
        batched = exact.propagate_all(model(), c_batched)
        t = model()  # a second tree, so its numbering is built under the patch
        monkeypatch.setattr(tree_mod, "BATCH_MIN_WIDTH", len(t.names) + 1)
        loop = exact.propagate_all(t, c_loop)
        assert c_batched == c_loop
        for x in t.names:
            assert batched[x].tobytes() == loop[x].tobytes(), x

    @pytest.mark.parametrize("c", [1, 2])
    def test_factored_join_tree(self, c, stacked_calls):
        rng = np.random.default_rng(50 + c)
        t, _, leaves, K = random_join_tree(rng, k=2, n=3, c=c, depth=4)
        for leaf in leaves[::3]:
            t.set_evidence([(leaf, rng.random(K) + 0.05)])
        assert all(isinstance(m, FactoredMatrix) for m in t.matrix.values())
        check_sweep(t, {x: 2 for x in t.matrix})
        assert max(stacked_calls) == 16

    def test_mixed_level_runs_per_node(self):
        rng = np.random.default_rng(53)
        t = mixed_join_tree(rng)
        for leaf in updatable_leaves(t)[::2]:
            t.set_evidence([(leaf, rng.random(t.k) + 0.05)])
        kinds = {x: type(t.matrix[x]) for x in t.matrix}
        assert set(kinds.values()) == {np.ndarray, FactoredMatrix}
        at_depth = {}
        for x in t.matrix:
            at_depth.setdefault(depth(t, x), []).append(kinds[x])
        # wide levels whose dense pads sit beside factored edges
        assert any(
            len(ks) >= tree_mod.BATCH_MIN_WIDTH and len(set(ks)) == 2
            for ks in at_depth.values()
        )
        check_sweep(t, {x: 2 if kinds[x] is FactoredMatrix else 1 for x in t.matrix})
        # its leaf groups may be as wide, so the schedule is read directly
        assert not any(isinstance(step, tree_mod.Stacked) for step in t.numbering().steps)

    @pytest.mark.parametrize("scale", [1e-160, 1e200, 1e-200])
    def test_extreme_scales_on_wide_tree(self, scale):
        # 4,096 leaves: lambda at the root is a product of thousands of
        # messages below 1, far under 1e-308 without the row-wise guard
        rng = np.random.default_rng(60)
        t = make_balanced(4096, 2, rng)
        items = [(leaf, rng.random(2) + 0.05) for leaf in updatable_leaves(t)]
        t.set_evidence(items)
        reference = exact.propagate_all(t)
        t.set_evidence((leaf, lik * scale) for leaf, lik in items)
        full, _ = check_sweep(t)
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
        t.set_evidence(evidence)
        reference = exact.propagate_all(t)
        t.set_evidence((leaf, np.ldexp(lik, -120)) for leaf, lik in evidence)
        full, _ = check_sweep(t)
        for x in t.names:
            assert np.allclose(full[x], reference[x], rtol=0.0, atol=1e-9), x

    def test_zero_mass_on_wide_tree_names_node(self):
        rng = np.random.default_rng(61)
        t = make_balanced(64, 2, rng)
        leaves = updatable_leaves(t)
        t.set_evidence([(leaves[5], [0.0, 0.0])])
        with pytest.raises(InconsistentEvidenceError, match=f"at node {t.root}"):
            exact.propagate_all(t)


def shared_evidence_chain(rng, length: int, edge, k: int = 3):
    """`make_chain`'s backbone whose evidence leaves, one per backbone node,
    all hang on the one edge matrix object `edge` (dense or factored), as in
    `protein.ProteinChain`; the last backbone node gets a dummy pad."""
    raw = RawTree(k)
    for x in range(2 * length):
        raw.add_node(x)
    raw.set_root(0, random_stochastic(rng, 1, k)[0])
    for t in range(length):
        raw.add_edge(t, length + t, edge)
        if t + 1 < length:
            raw.add_edge(t, t + 1, random_stochastic(rng, k, k))
    return binarize(raw)


class TestSchedule:
    """The sweep schedule compiled into `Levels`: consecutive narrow depths
    run node by node, and their leaves are applied before and after that
    run, once per edge matrix object they use (`linalg.apply_rows`), however
    few of them use it."""

    @pytest.fixture
    def row_calls(self, monkeypatch):
        """Rows per row-kernel call of the sweep; the hierarchy build's
        `rake_rows` calls `apply_rows` too, and a build's calls are dropped."""
        calls = []
        for name in ("apply_rows", "apply_transpose_rows"):
            def counted(m, rows, counter=None, kernel=getattr(linalg, name)):
                calls.append(len(rows))
                return kernel(m, rows, counter)

            monkeypatch.setattr(linalg, name, counted)

        def uncounted(*args, build=dynamic.build_hierarchy):
            before = len(calls)
            hier = build(*args)
            del calls[before:]
            return hier

        monkeypatch.setattr(dynamic, "build_hierarchy", uncounted)
        return calls

    @staticmethod
    def per_node_equal(t):
        """The sweep of t is bitwise the two-pass recursion node by node,
        with the same op counts."""
        c_batched, c_loop = OpCounter(), OpCounter()
        batched = exact.propagate_all(t, c_batched)
        loop = per_node_sweep(t, c_loop)
        assert c_batched == c_loop
        assert batched.keys() == loop.keys()
        for x in t.names:
            assert batched[x].tobytes() == loop[x].tobytes(), x

    @pytest.mark.parametrize("length", [1, 2, 7, 300])
    def test_make_chain(self, length, row_calls):
        rng = np.random.default_rng(80 + length)
        t = make_chain(length, 3, rng)
        post_random_evidence(t, rng, length + 1, hard_prob=0.1)
        check_sweep(t)
        lv = t.numbering()
        # one run of the backbone below the root; every leaf has its own
        # matrix, so all of them join one group, whose matrix is their stack
        assert [len(run) for run in lv.steps] == [length - 1]
        (m, at, _, _), = lv.groups
        assert m.shape == (length + 1, 3, 3) and m.flags.c_contiguous
        assert all(np.array_equal(row, t.matrix[lv.order[i]]) for row, i in zip(m, at))
        assert row_calls == [length + 1] * 2 and not hasattr(lv, "lone")
        self.per_node_equal(t)

    @pytest.mark.parametrize("kind", ["dense", "factored"])
    def test_shared_evidence_edge(self, kind, row_calls):
        def make():
            rng = np.random.default_rng(90)
            if kind == "dense":
                edge = random_stochastic(rng, 3, 3)
            else:
                edge = FactoredMatrix(random_stochastic(rng, 3, 2), random_stochastic(rng, 2, 3))
            t = shared_evidence_chain(rng, 40, edge)
            t.set_evidence((leaf, rng.random(3) + 0.05) for leaf in updatable_leaves(t))
            return t

        t = make()
        factored = {x for x, m in t.matrix.items() if isinstance(m, FactoredMatrix)}
        check_sweep(t, {x: 2 if x in factored else 1 for x in t.matrix})
        assert len(factored) == (40 if kind == "factored" else 0)
        # the evidence leaves share one group; the last backbone node's pad is
        # a group of one
        lv = t.numbering()
        (_, at, _, _), (_, pad, _, _) = lv.groups
        assert len(at) == 40 and lv.order[pad[0]] in t.dummies
        assert row_calls == [40, 1, 40, 1]
        self.per_node_equal(make())

    def test_pads_beside_factored_edges(self, row_calls):
        make = lambda: mixed_join_tree(np.random.default_rng(53))
        t = make()
        for leaf in updatable_leaves(t)[::2]:
            t.set_evidence([(leaf, np.random.default_rng(leaf).random(t.k) + 0.05)])
        kinds = {x: isinstance(m, FactoredMatrix) for x, m in t.matrix.items()}
        at_depth = {}
        for x in t.matrix:
            at_depth.setdefault(depth(t, x), set()).add(kinds[x])
        # narrow depths where dense pads sit beside factored edges
        narrow = [d for d, ks in at_depth.items() if ks == {True, False}]
        assert any(sum(depth(t, x) == d for x in t.matrix) < tree_mod.BATCH_MIN_WIDTH for d in narrow)
        check_sweep(t, {x: 2 if kinds[x] else 1 for x in t.matrix})
        lv = t.numbering()
        # the dense pads share one identity; each factored leaf edge is its
        # own object, a group of one
        (m, at, _, _), = (g for g in lv.groups if not isinstance(g[0], FactoredMatrix))
        assert all(lv.order[i] in t.dummies for i in at)
        assert np.array_equal(m, np.eye(t.k))
        sizes = [len(g[1]) for g in lv.groups]
        assert sorted(sizes) == [1] * (len(sizes) - 1) + [len(at)]
        assert row_calls == sizes * 2
        self.per_node_equal(make())

    @pytest.mark.parametrize("scale", [1.0, 2.0**-120, 2.0**120])
    @pytest.mark.parametrize("shape", ["random", "balanced", "join", "dense join"])
    def test_stacked_depths(self, shape, scale):
        """Wide depths go through the same row kernels as the leaf groups, so
        the sweep stays bitwise the per-node recursion on trees with stacked
        depths, dense or factored.  Likelihoods at 2**-120 or 2**120 pass
        the leaf guard as posted, and the products of two of them make the
        row guard shift."""
        rng = np.random.default_rng(96)
        if shape == "random":
            t = make_random(300, 3, rng)
        elif shape == "balanced":
            t = make_balanced(256, 4, rng)
        else:
            factored, dense, _, _ = random_join_tree(rng, k=2, n=3, c=1, depth=5)
            t = factored if shape == "join" else dense
        leaves = updatable_leaves(t)
        t.set_evidence((leaf, (rng.random(t.k) + 0.05) * scale) for leaf in leaves[::2])
        assert any(isinstance(step, tree_mod.Stacked) for step in t.numbering().steps)
        self.per_node_equal(t)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_evidence(self, scale):
        rng = np.random.default_rng(91)
        t = shared_evidence_chain(rng, 300, random_stochastic(rng, 3, 3))
        items = [(leaf, rng.random(3) + 0.05) for leaf in updatable_leaves(t)]
        t.set_evidence(items)
        reference = exact.propagate_all(t)
        t.set_evidence((leaf, lik * scale) for leaf, lik in items)
        full, _ = check_sweep(t)
        for x in t.names:
            assert np.allclose(full[x], reference[x], rtol=0.0, atol=1e-9), x


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
            t.set_evidence([(attach_evidence_leaf(t, x), rng.random(3) + 0.05)])
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
            t.set_evidence([(attach_evidence_leaf(t, x), rng.random(2) + 0.05)])
        got, want = exact.propagate_all(t), exact.joint_marginals(t)
        for x in t.names:
            assert np.allclose(got[x], want[x], rtol=0.0, atol=1e-9), x

    def test_relink_after_sweep_is_seen(self):
        """New edge matrices linked after a sweep reach the next sweep: it is
        bitwise the sweep of the tree read back from its BTN text."""
        rng = np.random.default_rng(3)
        t = make_random(200, 3, rng)
        post_random_evidence(t, rng, 40)
        exact.propagate_all(t)
        for p in (t.root, next(x for x in t.kids if x != t.root)):
            t.link(p, *t.kids[p], random_stochastic(rng, 3, 3), random_stochastic(rng, 3, 3))
        got = exact.propagate_all(t)
        want = exact.propagate_all(parse_btn(serialize_btn(t).splitlines()))
        for x in t.names:
            assert np.array_equal(got[x], want[x]), x

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
            t.set_evidence([(leaf, rng.random(t.k) + 0.05)])
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
        t.set_evidence([(1, [0, 1])])
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

    def test_many_large_likelihoods_do_not_overflow(self):
        # each [1e38, 2e38] is inside the guard's range; the product of ten
        # overflows the enumeration unless each table is shifted first
        t = make_chain(9, 2, np.random.default_rng(2))
        t.set_evidence((leaf, [1e38, 2e38]) for leaf in updatable_leaves(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = exact.joint_marginals(t)
        bel = exact.propagate_all(t)
        for x in t.names:
            assert np.allclose(oracle[x], bel[x], rtol=0.0, atol=1e-9), x


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

    def test_fraction_tables_stay_exact(self):
        third = Fraction(1, 3)
        out = exact.enumerate_marginals(
            2,
            [((0,), np.array([third, 1 - third])), ((0, 1), np.array([[1, 0], [third, 1 - third]], dtype=object)),
             ((1,), np.array([Fraction(10**300), Fraction(1, 10**300)]))],
        )
        assert out[0].dtype == object
        # mass of x0 = 0 is 1/3 * 10^300, of x0 = 1 is 2/3 * (1/3 * 10^300 + 2/3 * 10^-300)
        m0, m1 = third * 10**300, 2 * third * (third * 10**300 + 2 * third / 10**300)
        assert list(out[0]) == [m0 / (m0 + m1), m1 / (m0 + m1)]
        assert all(type(p) is Fraction for v in out.values() for p in v)

    def test_float_shift_leaves_marginals_bitwise(self):
        # a power-of-two multiple of a table gives the same marginals
        rng = np.random.default_rng(13)
        tables = [((0, 1), rng.random((3, 3))), ((1,), rng.random(3)), ((0,), rng.random(3))]
        want = exact.enumerate_marginals(3, tables)
        scaled = [(vs, np.ldexp(t, e)) for (vs, t), e in zip(tables, (900, -900, 40))]
        got = exact.enumerate_marginals(3, scaled)
        for v in want:
            assert got[v].tobytes() == want[v].tobytes()


class TestExactGroundTruth:
    """`propagate_all` and the hierarchy engine against beliefs enumerated in
    Fractions, with no rounding and no underflow, on small trees whose
    likelihood entries span 1e-300 to 1e300.  Every edge matrix is positive,
    so no belief rests on entries that the scale guard's shift rounds."""

    @pytest.mark.parametrize("shape, k, size, seed", [
        ("random", 2, 7, 1), ("random", 2, 7, 2), ("random", 3, 5, 3),
        ("chain", 2, 5, 4), ("chain", 3, 3, 5), ("balanced", 2, 4, 6),
    ])
    def test_within_1e9_of_fraction_marginals(self, shape, k, size, seed):
        rng = np.random.default_rng(seed)
        t = {"random": lambda: random_binarized_tree(rng, size, k),
             "chain": lambda: make_chain(size, k, rng),
             "balanced": lambda: make_balanced(size, k, rng)}[shape]()
        assert len(t.names) <= 12
        t.set_evidence(
            (leaf, 10.0 ** rng.uniform(-300, 300, k)) for leaf in updatable_leaves(t)
        )
        truth = fraction_marginals(t)
        full, eng = exact.propagate_all(t), DynamicEngine(t)
        for x in t.names:
            want = np.array(truth[x], dtype=float)
            assert np.allclose(full[x], want, rtol=0.0, atol=1e-9), x
            assert np.allclose(eng.bel_query(x), want, rtol=0.0, atol=1e-9), x


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
