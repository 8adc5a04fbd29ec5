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
from treebelief.polytree import Polytree, PolytreeEngine
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
