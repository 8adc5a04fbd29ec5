"""Verification oracles and linear-time baselines.

Three engines of increasing cleverness, used to cross-check each other and
the logarithmic engine:

* enumerate_marginals -- the one brute-force oracle: enumeration of the full
  joint of a factor product; definitionally correct, exponential, for small
  models only.  joint_marginals feeds it a causal tree and
  Polytree.joint_conditionals a polytree.
* propagate_all   -- the classical two-pass bottom-up/top-down propagation,
  O(k^2 N).
* PropagationState + path_update/path_query -- the depth-bounded incremental
  variant that keeps only the bottom-up vectors current, O(k^2 D) per
  operation.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import InconsistentEvidenceError, ScaleError
from .linalg import OpCounter
from .tree import CausalTree

JOINT_STATE_LIMIT = 10**7


def _post_order(tree: CausalTree) -> list[int]:
    order = []
    stack = [(tree.root, False)]
    while stack:
        x, expanded = stack.pop()
        if tree.is_leaf(x):
            order.append(x)
        elif expanded:
            order.append(x)
        else:
            stack.append((x, True))
            stack.append((tree.right[x], False))
            stack.append((tree.left[x], False))
    return order


def lambda_pass(tree: CausalTree, counter: OpCounter | None = None):
    """Bottom-up sweep; returns (lambda vectors, cached edge messages).

    msg[c] = M_c . lambda(c) is cached per edge so the top-down pass can reuse
    sibling messages, keeping the total at one matrix-vector product per edge
    per direction.
    """
    lam: dict[int, np.ndarray] = {}
    msg: dict[int, np.ndarray] = {}
    for x in _post_order(tree):
        if tree.is_leaf(x):
            lam[x] = tree.leaf_lambda(x)
        else:
            l, r = tree.children_of(x)
            lam[x] = linalg.rescale_if_tiny(msg[l] * msg[r])
        if x != tree.root:
            msg[x] = linalg.apply(tree.matrix[x], lam[x], counter)
    return lam, msg


def propagate_all(
    tree: CausalTree, counter: OpCounter | None = None
) -> dict[int, np.ndarray]:
    """Full two-pass propagation; Bel(x) for every node at current evidence."""
    lam, msg = lambda_pass(tree, counter)
    pi: dict[int, np.ndarray] = {tree.root: tree.prior}
    bel: dict[int, np.ndarray] = {}
    stack = [tree.root]
    order = []
    while stack:
        x = stack.pop()
        order.append(x)
        if not tree.is_leaf(x):
            l, r = tree.children_of(x)
            pi[l] = linalg.rescale_if_tiny(
                linalg.apply_transpose(tree.matrix[l], pi[x] * msg[r], counter)
            )
            pi[r] = linalg.rescale_if_tiny(
                linalg.apply_transpose(tree.matrix[r], pi[x] * msg[l], counter)
            )
            stack.append(l)
            stack.append(r)
    for x in order:
        try:
            bel[x] = linalg.normalize(lam[x] * pi[x])
        except InconsistentEvidenceError:
            raise InconsistentEvidenceError(
                f"evidence has zero joint probability (first seen at node {x})"
            )
    return bel


def enumerate_marginals(
    k: int, factors, counter: OpCounter | None = None
) -> dict:
    """Brute-force oracle: every variable's marginal under the normalized
    product of `factors`.

    Each factor is (variables, table), with one length-k axis of `table` per
    listed variable, in that order.  The full k^n weight tensor is built by
    broadcasting every factor, then summed down per variable; each product
    and each sum adds the tensor size to `counter.flops`.
    """
    variables = sorted({v for vs, _ in factors for v in vs})
    axis = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    if k**n > JOINT_STATE_LIMIT:
        raise ScaleError(f"joint state space k^{n} exceeds {JOINT_STATE_LIMIT}")
    w = np.ones((k,) * n)
    for vs, table in factors:
        axes = [axis[v] for v in vs]
        t = np.asarray(table, dtype=np.float64).reshape((k,) * len(vs))
        shape = [1] * n
        for a in axes:
            shape[a] = k
        w = w * np.transpose(t, np.argsort(axes)).reshape(shape)
        if counter is not None:
            counter.flops += w.size

    total = float(w.sum())
    if total <= 0.0:
        raise InconsistentEvidenceError("evidence has zero joint probability")
    out = {}
    for v in variables:
        others = tuple(i for i in range(n) if i != axis[v])
        out[v] = w.sum(axis=others) / total
        if counter is not None:
            counter.flops += w.size
    return out


def joint_marginals(
    tree: CausalTree, counter: OpCounter | None = None
) -> dict[int, np.ndarray]:
    """Brute-force oracle over a causal tree: the prior, every edge matrix and
    every leaf likelihood, enumerated by `enumerate_marginals`."""
    factors = [((tree.root,), tree.prior)]
    for child, m in tree.matrix.items():
        if child in tree.parent:
            m = m.expand() if hasattr(m, "expand") else m
            factors.append(((tree.parent[child], child), m))
    for leaf in tree.in_order_leaves():
        factors.append(((leaf,), tree.leaf_lambda(leaf)))
    return enumerate_marginals(tree.k, factors, counter)


class PropagationState:
    """Depth-bounded incremental engine: keeps lambda current, computes pi on
    demand along the root path only."""

    def __init__(self, tree: CausalTree, counter: OpCounter | None = None):
        self.tree = tree
        self.counter = counter if counter is not None else OpCounter()
        self.lam, self.msg = lambda_pass(tree, self.counter)
        self.last_lambda_recomputes = 0
        self.last_pi_recomputes = 0

    def path_update(self, leaf: int, likelihood) -> None:
        """Post new evidence and refresh lambda on the root path; pi is left
        stale by design."""
        tree = self.tree
        tree.set_evidence(leaf, likelihood)
        self.lam[leaf] = tree.leaf_lambda(leaf)
        self.msg[leaf] = linalg.apply(tree.matrix[leaf], self.lam[leaf], self.counter)
        self.last_lambda_recomputes = 0
        x = tree.parent.get(leaf)
        while x is not None:
            l, r = tree.children_of(x)
            self.lam[x] = linalg.rescale_if_tiny(self.msg[l] * self.msg[r])
            self.last_lambda_recomputes += 1
            if x != tree.root:
                self.msg[x] = linalg.apply(tree.matrix[x], self.lam[x], self.counter)
            x = tree.parent.get(x)

    def path_query(self, x: int) -> np.ndarray:
        """Bel(x) computed by walking pi down the root path; transient, never
        cached."""
        tree = self.tree
        path = [x]
        while path[-1] != tree.root:
            path.append(tree.parent[path[-1]])
        path.reverse()
        pi = tree.prior
        self.last_pi_recomputes = 0
        for parent, child in zip(path, path[1:]):
            l, r = tree.children_of(parent)
            sib = r if child == l else l
            pi = linalg.rescale_if_tiny(
                linalg.apply_transpose(tree.matrix[child], pi * self.msg[sib], self.counter)
            )
            self.last_pi_recomputes += 1
        return linalg.normalize(self.lam[x] * pi)
