"""Likelihoods far outside the normal float range: every engine still gives
the beliefs of the same evidence at a normal scale (beliefs are invariant
under scaling a likelihood)."""

import numpy as np
import pytest

from treebelief import exact
from treebelief.bench import make_chain
from treebelief.dynamic import DynamicEngine
from util import updatable_leaves


def scaled_chain_beliefs(length, scale, seed):
    """(reference beliefs at scale 1, hierarchy engine after posting the same
    likelihoods times `scale`)."""
    rng = np.random.default_rng(seed)
    t = make_chain(length, 2, rng)
    items = [(leaf, rng.random(2) + 0.05) for leaf in updatable_leaves(t)]
    for leaf, lik in items:
        t.set_evidence(leaf, lik)
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
