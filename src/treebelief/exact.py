"""Verification oracles and linear-time baselines.

Three engines of increasing cleverness, used to cross-check each other and
the logarithmic engine:

* joint_marginals -- brute-force enumeration of the full joint; definitionally
  correct, exponential, for small trees only.
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


def joint_marginals(
    tree: CausalTree, counter: OpCounter | None = None
) -> dict[int, np.ndarray]:
    """Brute-force oracle: enumerate the joint over every node's value.

    Builds the full k^N weight tensor by broadcasting the prior, every edge
    matrix and every evidence likelihood, then marginalizes per node.
    """
    nodes = sorted(tree.names)
    axis = {n: i for i, n in enumerate(nodes)}
    k, n = tree.k, len(nodes)
    if k**n > JOINT_STATE_LIMIT:
        raise ScaleError(f"joint state space k^{n} exceeds {JOINT_STATE_LIMIT}")

    def lifted(arr, axes: tuple[int, ...]) -> np.ndarray:
        if hasattr(arr, "expand"):
            arr = arr.expand()
        shape = [1] * n
        for a in axes:
            shape[a] = k
        if len(axes) == 2 and axes[0] > axes[1]:
            arr = arr.T
        return arr.reshape(shape)

    w = lifted(tree.prior, (axis[tree.root],))
    for child, m in tree.matrix.items():
        if child not in tree.parent:
            continue
        w = w * lifted(m, (axis[tree.parent[child]], axis[child]))
    for leaf in tree.in_order_leaves():
        w = w * lifted(tree.leaf_lambda(leaf), (axis[leaf],))

    total = float(w.sum())
    if total <= 0.0:
        raise InconsistentEvidenceError("evidence has zero joint probability")
    out = {}
    for node in nodes:
        others = tuple(i for i in range(n) if i != axis[node])
        out[node] = w.sum(axis=others) / total
    return out


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
