import itertools
import time

import numpy as np
import pytest

from treebelief import linalg
from treebelief.bench import make_engine, random_stochastic
from treebelief.dynamic import DynamicEngine
from treebelief.errors import (
    DimensionError,
    InconsistentEvidenceError,
    ScaleError,
    StructureError,
    UsageError,
)
from treebelief.formats import parse_ptn
from treebelief.jointree import marginalize
from treebelief.linalg import FactoredMatrix
from treebelief.polytree import MAX_PARENTS, Polytree, PolytreeEngine
from treebelief.tree import RawTree, binarize
from test_formats import V_STRUCTURE_PTN
from util import attach_evidence_leaf, random_polytree


def v_structure(rng=None):
    """a -> c <- b with random tables."""
    rng = rng or np.random.default_rng(0)
    pt = Polytree(k=2)
    pt.add_variable(0, (), name="a")
    pt.add_variable(1, (), name="b")
    pt.add_variable(2, (0, 1), name="c")
    pt.set_cpt(0, random_stochastic(rng, 1, 2)[0])
    pt.set_cpt(1, random_stochastic(rng, 1, 2)[0])
    pt.set_cpt(2, random_stochastic(rng, 4, 2))
    return pt


def loop_clique_conditional(eng, v, shared, marg):
    """Per-value reference for PolytreeEngine._clique_conditional: one clique
    value at a time, its member values read off in C order."""
    pt, clique = eng.pt, eng.cliques[v]
    k, ps = pt.k, pt.parents[v]
    cpt = pt.cpt[v].reshape((k,) * (len(ps) + 1))  # axes (*parents, v)
    pos = clique.position(shared)
    table = np.zeros((k, clique.K))
    for val, digits in enumerate(itertools.product(range(k), repeat=clique.n)):
        if any(digits[1 + len(ps):]):  # pad members pinned to value 0
            continue
        weight = cpt[digits[1 : 1 + len(ps)] + digits[:1]]
        for q, d in zip(ps, digits[1:]):
            if q != shared:
                weight *= marg[q][d]
        if shared == v:
            m_v = marg[v][digits[0]]
            weight = weight / m_v if m_v > 0 else 0.0
        table[digits[pos], val] = weight
    for r in range(k):
        if table[r].sum() <= 0:
            table[r, r * k ** (clique.n - 1 - pos)] = 1.0
    return table


class TestPolytreeValidate:
    def test_clean(self):
        assert v_structure().validate() == []

    def test_extra_edge_not_singly_connected(self):
        pt = v_structure()
        pt.add_variable(3, (0, 1))
        pt.set_cpt(3, random_stochastic(np.random.default_rng(1), 4, 2))
        assert any("singly connected" in m or "cycle" in m for m in pt.validate())

    def test_bad_row_sum(self):
        pt = v_structure()
        pt.cpt[2] = np.array([[0.5, 0.4], [0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        assert any("row 0" in m for m in pt.validate())

    @pytest.mark.parametrize(
        "var, table",
        [
            (1, [[np.nan, 1.0], [0.5, 0.5]]),
            (1, [[np.inf, 1.0], [0.5, 0.5]]),
            (0, [np.nan, 1.0]),  # a root prior
            (0, [-np.inf, 1.0]),
        ],
    )
    def test_non_finite_table_names_the_variable(self, var, table):
        def make():
            pt = Polytree(k=2)
            pt.add_variable(0, (), [0.3, 0.7])
            pt.add_variable(1, (0,), [[0.9, 0.1], [0.2, 0.8]])
            pt.set_cpt(var, table)
            return pt

        assert make().validate() == [f"table of {var} has non-finite entries"]
        with pytest.raises(StructureError, match=f"^table of {var} has non-finite entries$"):
            make().check()
        with pytest.raises(StructureError, match=f"^table of {var} has non-finite entries$"):
            PolytreeEngine(make())

    def test_set_cpt_of_unknown_variable(self):
        pt = v_structure()
        with pytest.raises(UsageError, match="^unknown variable 5$"):
            pt.set_cpt(5, [0.5, 0.5])
        assert 5 not in pt.cpt and pt.validate() == []

    def test_unknown_parent(self):
        pt = Polytree(k=2)
        pt.add_variable(0, (9,))
        assert any("unknown parent" in m for m in pt.validate())

    def test_ids_above_small_int_cache(self):
        # ints above 256 are distinct objects: identity is not equality
        pt = random_polytree(np.random.default_rng(4), 300, 2)
        assert pt.validate() == []


class TestPriorMarginals:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pt = random_polytree(rng, int(rng.integers(2, 8)), 2)
            marg = pt.prior_marginals()
            oracle = pt.joint_conditionals()
            for v in pt.variables():
                assert np.allclose(marg[v], oracle[v], atol=1e-12)

    def test_child_first_chain_in_one_pass(self):
        # variable i has parent i + 1: declared child first, a rescan of every
        # pending variable per finished one is quadratic in the chain length
        n = 5000
        rng = np.random.default_rng(7)
        tables = [random_stochastic(rng, 2, 2) for _ in range(n - 1)]
        tables.append(random_stochastic(rng, 1, 2)[0])

        def chain(order):
            pt = Polytree(k=2)
            for i in order:
                pt.add_variable(i, (i + 1,) if i < n - 1 else (), cpt=tables[i])
            return pt

        child_first = chain(range(n))
        start = time.perf_counter()
        got = child_first.prior_marginals()
        elapsed = time.perf_counter() - start
        want = chain(reversed(range(n))).prior_marginals()
        assert all(np.array_equal(got[v], want[v]) for v in range(n))
        assert elapsed < 1.0

    def test_directed_cycle(self):
        pt = Polytree(k=2)
        pt.add_variable(0, (1,), cpt=np.eye(2))
        pt.add_variable(1, (0,), cpt=np.eye(2))
        with pytest.raises(StructureError, match="directed cycle"):
            pt.prior_marginals()


class TestJointConditionals:
    def test_zero_mass_inconsistent(self):
        pt = Polytree(k=2)
        pt.add_variable(0, ())
        pt.add_variable(1, (0,))
        pt.set_cpt(0, [1.0, 0.0])
        pt.set_cpt(1, np.eye(2))
        with pytest.raises(InconsistentEvidenceError):
            pt.joint_conditionals({1: np.array([0.0, 1.0])})


class TestEngineStructure:
    def test_family_cliques_and_overlap(self):
        eng = PolytreeEngine(v_structure())
        cl = eng.cliques[2]
        assert set(cl.members) >= {2, 0, 1}
        # adjacent cliques share exactly one variable
        for v in (0, 1):
            shared = set(eng.cliques[v].members) & set(cl.members)
            shared = {s for s in shared if not (isinstance(s, tuple) and s[0] == "_pad")}
            assert len(shared) == 1

    def test_compiled_tables_match_per_value_loops(self):
        # the broadcast compile is the per-value loop's arithmetic, bitwise,
        # including zero-probability values of parentless variables
        rng = np.random.default_rng(12)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            pt = random_polytree(rng, int(rng.integers(2, 9)), k)
            for v in pt.variables():
                if not pt.parents[v] and rng.random() < 0.5:
                    prior = rng.random(k) + 0.05
                    prior[rng.integers(k)] = 0.0
                    pt.set_cpt(v, prior / prior.sum())
            eng = PolytreeEngine(pt)
            marg = pt.prior_marginals()
            root = min(v for v in pt.variables() if not pt.parents[v])
            root_prior = np.zeros((k, eng.cliques[root].K // k))
            root_prior[:, 0] = marg[root]
            assert np.array_equal(eng.tree.prior, linalg.normalize(root_prior.ravel()))
            for v, clique in eng.cliques.items():
                if v == root:
                    continue
                (shared,) = clique.intersection
                want = loop_clique_conditional(eng, v, shared, marg)
                assert np.array_equal(eng._clique_conditional(v, shared, marg), want)

    def test_factored_edges_pass_through_one_variable(self):
        # every factored join-tree edge, evidence edges included, is
        # K x k times k x K: its cliques share one variable
        rng = np.random.default_rng(21)
        cases = [random_polytree(rng, int(rng.integers(2, 12)), int(rng.integers(2, 4)))
                 for _ in range(20)]
        big = Polytree(k=3)  # one MAX_PARENTS family: K = 3^5
        for v in range(MAX_PARENTS):
            big.add_variable(v, (), random_stochastic(rng, 1, 3)[0])
        big.add_variable(MAX_PARENTS, tuple(range(MAX_PARENTS)),
                         random_stochastic(rng, 3**MAX_PARENTS, 3))
        big.add_variable(MAX_PARENTS + 1, (MAX_PARENTS,), random_stochastic(rng, 3, 3))
        for pt in cases + [big]:
            eng = PolytreeEngine(pt)
            k, K = pt.k, eng.tree.k
            factored = [m for m in eng.tree.matrix.values() if isinstance(m, FactoredMatrix)]
            assert len(factored) == 2 * len(pt.parents) - 1
            for m in factored:
                assert m.left.shape == (K, k) and m.right.shape == (k, K)
        assert K == 3 ** (MAX_PARENTS + 1)
        evidence = {v: rng.random(3) + 0.05 for v in (0, MAX_PARENTS, MAX_PARENTS + 1)}
        for v, lik in evidence.items():
            eng.update_evidence(v, lik)
        oracle = big.joint_conditionals(evidence)
        for v in big.variables():
            assert np.allclose(eng.bel_query(v), oracle[v], rtol=0, atol=1e-9)

    def test_max_parents_scale_error(self):
        rng = np.random.default_rng(3)
        pt = Polytree(k=2)
        for v in range(5):
            pt.add_variable(v, ())
            pt.set_cpt(v, random_stochastic(rng, 1, 2)[0])
        pt.add_variable(5, (0, 1, 2, 3, 4))
        pt.set_cpt(5, random_stochastic(rng, 32, 2))
        with pytest.raises(ScaleError):
            PolytreeEngine(pt)

    def test_invalid_polytree_rejected(self):
        pt = v_structure()
        del pt.cpt[2]
        with pytest.raises(StructureError):
            PolytreeEngine(pt)

    def test_invalid_after_set_cpt_rejected(self):
        # a polytree that passed its check is checked again once changed
        pt = parse_ptn(V_STRUCTURE_PTN.splitlines())
        pt.set_cpt(2, np.full((4, 2), 0.7))
        with pytest.raises(StructureError, match="row 0"):
            make_engine("hierarchy", pt)


class TestValidationOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        validate = Polytree.validate

        def counted(pt):
            calls.append(pt)
            return validate(pt)

        monkeypatch.setattr(Polytree, "validate", counted)
        return calls

    def test_parse_and_build_validate_once(self, calls):
        make_engine("hierarchy", parse_ptn(V_STRUCTURE_PTN.splitlines()))
        assert len(calls) == 1

    def test_code_built_validates_at_build(self, calls):
        PolytreeEngine(v_structure())
        assert len(calls) == 1


class TestSetCpt:
    def test_wrong_size_is_dimension_error(self):
        pt = Polytree(k=2)
        pt.add_variable(0)
        with pytest.raises(DimensionError, match="variable 0 has 3 entries, expected 2"):
            pt.set_cpt(0, [0.2, 0.3, 0.5])
        with pytest.raises(DimensionError, match="variable 1 has 2 entries, expected 4"):
            pt.add_variable(1, (0,), cpt=[0.5, 0.5])


class TestQueriesAndUpdates:
    def test_prior_query_no_evidence(self):
        pt = v_structure()
        eng = PolytreeEngine(pt)
        marg = pt.prior_marginals()
        for v in pt.variables():
            assert np.allclose(eng.bel_query(v), marg[v], atol=1e-9)

    def test_all_ones_update_vacuous(self):
        pt = v_structure()
        eng = PolytreeEngine(pt)
        before = {v: eng.bel_query(v) for v in pt.variables()}
        eng.update_evidence(2, [1.0, 1.0])
        for v in pt.variables():
            assert np.allclose(eng.bel_query(v), before[v], atol=1e-12)

    @pytest.mark.parametrize("engine", ["hierarchy", "full"])
    def test_posted_array_is_copied(self, engine):
        # a caller writing its array after the post changes no belief
        eng = make_engine(engine, v_structure())
        v = np.array([0.9, 0.1])
        eng.update_evidence(0, v)
        before = eng.bel_query(1)
        v[:] = [0.1, 0.9]
        assert np.array_equal(eng.bel_query(1), before)

    def test_unknown_variable(self):
        eng = PolytreeEngine(v_structure())
        with pytest.raises(UsageError):
            eng.update_evidence(99, [1, 0])
        with pytest.raises(UsageError):
            eng.bel_query(99)

    def test_matches_enumeration_random(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(2, 4))
            pt = random_polytree(rng, n, k)
            eng = PolytreeEngine(pt)
            evidence = {}
            for _ in range(4):
                var = int(rng.integers(n))
                lik = rng.random(k) + 0.01
                evidence[var] = lik
                eng.update_evidence(var, lik)
                oracle = pt.joint_conditionals(evidence)
                for v in pt.variables():
                    assert np.allclose(eng.bel_query(v), oracle[v], atol=1e-9)

    def test_zero_prior_value_pins_unreachable_row(self):
        # b's value 1 has prior 0.  The join tree reaches b's family through
        # c's, sharing b, so b's conditional divides by Pr(b) = 0 there and
        # pins its all-zero row to a consistent clique value.
        pt = v_structure(np.random.default_rng(10))
        pt.set_cpt(1, [1.0, 0.0])
        eng = PolytreeEngine(pt)
        assert eng.cliques[1].intersection == (1,)
        rng = np.random.default_rng(11)
        evidence = {}
        for var in (None, 2, 0):
            if var is not None:
                evidence[var] = rng.random(2) + 0.05
                eng.update_evidence(var, evidence[var])
            oracle = pt.joint_conditionals(evidence)
            for v in pt.variables():
                assert np.allclose(eng.bel_query(v), oracle[v], rtol=0, atol=1e-12)

    def test_cross_clique_consistency(self):
        rng = np.random.default_rng(5)
        pt = v_structure(rng)
        eng = PolytreeEngine(pt)
        eng.update_evidence(2, rng.random(2) + 0.1)
        # parent 0 also lives in the family clique of 2
        a = eng.bel_query(0)
        b = linalg.normalize(
            marginalize(eng.engine.bel_query(eng._var_node[2]), eng.cliques[2], 0)
        )
        assert np.allclose(a, b, atol=1e-9)

    def test_causal_tree_special_case(self):
        # all in-degree <= 1: polytree engine equals the direct tree engine
        rng = np.random.default_rng(6)
        pt = Polytree(k=2)
        pt.add_variable(0, ())
        pt.set_cpt(0, random_stochastic(rng, 1, 2)[0])
        mats = {}
        for v in range(1, 6):
            parent = int(rng.integers(v))
            pt.add_variable(v, (parent,))
            mats[v] = random_stochastic(rng, 2, 2)
            pt.set_cpt(v, mats[v])
        eng = PolytreeEngine(pt)

        raw = RawTree(2)
        for v in range(6):
            raw.add_node(v)
        raw.set_root(0, pt.cpt[0])
        for v in range(1, 6):
            raw.add_edge(pt.parents[v][0], v, mats[v])
        tree = binarize(raw)
        ev = {v: attach_evidence_leaf(tree, v) for v in range(6)}
        direct = DynamicEngine(tree)

        for _ in range(5):
            var = int(rng.integers(6))
            lik = rng.random(2) + 0.05
            eng.update_evidence(var, lik)
            direct.update_evidence(ev[var], lik)
            for v in range(6):
                assert np.allclose(eng.bel_query(v), direct.bel_query(v), atol=1e-9)

    def test_hard_evidence_inconsistent(self):
        pt = Polytree(k=2)
        pt.add_variable(0, ())
        pt.add_variable(1, (0,))
        pt.set_cpt(0, [1.0, 0.0])
        pt.set_cpt(1, np.eye(2))
        eng = PolytreeEngine(pt)
        eng.update_evidence(1, [0.0, 1.0])
        with pytest.raises(InconsistentEvidenceError):
            eng.bel_query(0)
