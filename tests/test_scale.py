"""Likelihoods far outside the normal float range: every engine still gives
the beliefs of the same evidence at a normal scale (beliefs are invariant
under scaling a likelihood)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treebelief import exact
from treebelief.bench import ENGINES, POLYTREE_ENGINE_CLASSES, make_chain, make_engine, make_model
from treebelief.tree import RawTree, binarize
from treebelief.dynamic import DynamicEngine
from treebelief.errors import InconsistentEvidenceError
from util import by_max, random_polytree, updatable_leaves, wide_likelihood


def scaled_chain_beliefs(length, scale, seed):
    """(reference beliefs at scale 1, hierarchy engine after posting the same
    likelihoods times `scale`)."""
    rng = np.random.default_rng(seed)
    t = make_chain(length, 2, rng)
    items = [(leaf, rng.random(2) + 0.05) for leaf in updatable_leaves(t)]
    t.set_evidence(items)
    reference = exact.joint_marginals(t) if length <= 4 else exact.propagate_all(t)
    eng = DynamicEngine(t)
    eng.update_many((leaf, lik * scale) for leaf, lik in items)
    return reference, eng


@pytest.mark.parametrize(
    "length, scale",
    [(2, 1e-160), (300, 1e200), (3000, 1e-200)],
)
def test_extreme_scales_match_unscaled(length, scale):
    reference, eng = scaled_chain_beliefs(length, scale, seed=length)
    t = eng.tree
    full = exact.propagate_all(t)
    for x in t.names:
        assert np.allclose(eng.bel_query(x), reference[x], rtol=0.0, atol=1e-9), x
        assert np.allclose(full[x], reference[x], rtol=0.0, atol=1e-9), x


def test_stored_evidence_stays_as_posted():
    _, eng = scaled_chain_beliefs(2, 1e-160, seed=1)
    leaf, v = next(iter(eng.tree.evidence.items()))
    assert v.max() < 1e-150
    assert 0.5 <= eng.tree.leaf_lambda(leaf).max() < 1.0


def test_leaf_without_evidence_reads_shared_ones():
    t = make_chain(4, 2, np.random.default_rng(3))
    posted, *bare = updatable_leaves(t)
    t.set_evidence([(posted, [1e-160, 2e-160])])
    for leaf in [*bare, *t.dummies]:
        ones = t.leaf_lambda(leaf)
        assert ones is t._ones and not ones.flags.writeable
    scaled = np.ldexp([1e-160, 2e-160], -np.frexp(2e-160)[1])
    assert np.array_equal(t.leaf_lambda(posted), scaled)
    assert np.array_equal(t.evidence[posted], [1e-160, 2e-160])


SHAPE_SIZES = {"chain": 40, "random": 40, "balanced": 32}


@pytest.mark.parametrize("scale", [1e-150, 1e150, 1e-200, 1e200, 1e-300, 1e300])
@pytest.mark.parametrize("shape", list(SHAPE_SIZES))
@pytest.mark.parametrize("engine", ENGINES)
def test_every_engine_at_extreme_scales(engine, shape, scale):
    """Every evidence leaf posted at `scale` through the engine protocol gives
    the beliefs of the same evidence posted at scale 1."""
    rng = np.random.default_rng(7)
    t = make_model(shape, SHAPE_SIZES[shape], 3, rng)
    items = [(leaf, rng.random(3) + 0.05) for leaf in updatable_leaves(t)]
    t.set_evidence(items)
    reference = exact.propagate_all(t)
    eng = make_engine(engine, t)
    for leaf, lik in items:
        eng.update_evidence(leaf, lik * scale)
    for x in t.names:
        assert np.allclose(eng.bel_query(x), reference[x], rtol=0.0, atol=1e-9), x


@pytest.mark.parametrize("scale", [1e-150, 1e150, 1e-200, 1e200, 1e-300, 1e300])
@pytest.mark.parametrize("engine", list(POLYTREE_ENGINE_CLASSES))
def test_every_polytree_engine_at_extreme_scales(engine, scale):
    """The same invariance for polytree variables, against enumeration of the
    evidence at scale 1."""
    rng = np.random.default_rng(8)
    pt = random_polytree(rng, 8, 3, max_parents=2)
    evidence = {v: rng.random(3) + 0.05 for v in range(0, 8, 2)}
    reference = pt.joint_conditionals(evidence)
    eng = make_engine(engine, pt)
    for v, lik in evidence.items():
        eng.update_evidence(v, lik * scale)
    for v in range(8):
        assert np.allclose(eng.bel_query(v), reference[v], rtol=0.0, atol=1e-9), v


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("shape", list(SHAPE_SIZES))
@pytest.mark.parametrize("engine", ENGINES)
def test_wide_range_likelihoods_every_engine(engine, shape, data):
    """Likelihoods spanning the whole double range, posted through the engine
    protocol, give the enumerated beliefs of the same evidence divided by its
    max.  Every table is positive, so the mass never rests on the entries
    that the guard's shift rounds."""
    size = {"chain": 3, "random": 4, "balanced": 4}[shape]
    t, ref = (make_model(shape, size, 2, np.random.default_rng(11)) for _ in range(2))
    items = [(leaf, data.draw(wide_likelihood(2))) for leaf in updatable_leaves(t)]
    ref.set_evidence((leaf, by_max(lik)) for leaf, lik in items)
    want = exact.joint_marginals(ref)
    eng = make_engine(engine, t)
    for leaf, lik in items:
        eng.update_evidence(leaf, lik)
    for x in t.names:
        assert np.allclose(eng.bel_query(x), want[x], rtol=0.0, atol=1e-9), x


@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("engine", list(POLYTREE_ENGINE_CLASSES))
def test_wide_range_likelihoods_every_polytree_engine(engine, data):
    pt = random_polytree(np.random.default_rng(12), 6, 2, max_parents=2)
    evidence = {v: data.draw(wide_likelihood(2)) for v in range(6) if data.draw(st.booleans())}
    want = pt.joint_conditionals({v: by_max(lik) for v, lik in evidence.items()})
    eng = make_engine(engine, pt)
    for v, lik in evidence.items():
        eng.update_evidence(v, lik)
    for v in range(6):
        assert np.allclose(eng.bel_query(v), want[v], rtol=0.0, atol=1e-9), v


@pytest.mark.parametrize("lik", [
    [1e300, 1e-10], [1e300, 1e-8], [1e200, 1e-120], [math.exp(700), math.exp(-20)],
    [1e300, 1e-7], [1e300, 0.0],
])
@pytest.mark.parametrize("engine", ENGINES)
def test_two_wide_leaves_answer(engine, lik):
    """A root with two leaves, both posted one wide-range likelihood: the
    product at the root overflowed when the guard declined a rounding shift."""
    raw = RawTree(2)
    for x in range(3):
        raw.add_node(x)
    raw.set_root(0, [0.5, 0.5])
    for leaf in (1, 2):
        raw.add_edge(0, leaf, [[0.9, 0.1], [0.2, 0.8]])
    t, ref = binarize(raw), binarize(raw)
    ref.set_evidence((leaf, by_max(np.array(lik))) for leaf in (1, 2))
    want = exact.joint_marginals(ref)
    eng = make_engine(engine, t)
    for leaf in (1, 2):
        eng.update_evidence(leaf, lik)
    for x in range(3):
        assert np.allclose(eng.bel_query(x), want[x], rtol=0.0, atol=1e-9), x


@pytest.mark.xfail(strict=True, raises=InconsistentEvidenceError)
@pytest.mark.parametrize("engine", ENGINES)
def test_identity_linked_wide_pair(engine):
    """The stated limit of the scale guard: two identity-linked leaves posted
    [1e300, 1e-300] and [1e-300, 1e300] under a [0.5, 0.5] root have exact
    beliefs [0.5, 0.5], but each leaf's shift rounds its far entry to zero,
    the two supports are disjoint and every engine raises.  Answering needs
    an exponent per entry; a fix that does flips this test."""
    raw = RawTree(2)
    for x in range(3):
        raw.add_node(x)
    raw.set_root(0, [0.5, 0.5])
    for leaf in (1, 2):
        raw.add_edge(0, leaf, np.eye(2))
    eng = make_engine(engine, binarize(raw))
    eng.update_evidence(1, [1e300, 1e-300])
    eng.update_evidence(2, [1e-300, 1e300])
    for x in range(3):
        assert np.allclose(eng.bel_query(x), [0.5, 0.5], rtol=0.0, atol=1e-9), x


def test_many_large_likelihoods_on_polytree_full_engine():
    """Every variable posted [1e38, 2e38]: each is inside the guard's range,
    but their product overflows the full engine's enumeration (to nan
    beliefs) unless each table is shifted to max below 1 first."""
    pt = random_polytree(np.random.default_rng(1), 10, 2)
    engines = {name: make_engine(name, pt) for name in POLYTREE_ENGINE_CLASSES}
    for eng in engines.values():
        for v in range(10):
            eng.update_evidence(v, [1e38, 2e38])
    want = engines["hierarchy"].bel_query(0)
    assert np.allclose(engines["full"].bel_query(0), want, rtol=0.0, atol=1e-9)
