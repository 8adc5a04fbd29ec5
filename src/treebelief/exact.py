"""Verification oracles and linear-time baselines.

Three engines of increasing cleverness, used to cross-check each other and
the logarithmic engine:

* enumerate_marginals -- the one brute-force oracle: enumeration of the full
  joint of a factor product; definitionally correct, exponential, for small
  models only.  joint_marginals feeds it a causal tree and
  Polytree.joint_conditionals a polytree.
* propagate_all   -- the classical two-pass bottom-up/top-down propagation,
  O(k^2 N), swept one depth level at a time.  Nodes are numbered
  breadth-first, computed once per tree (`CausalTree.numbering`), and
  lambda, the edge messages and pi are rows of (N, k) arrays in that order.
  A level of at least BATCH_MIN_WIDTH nodes whose edge matrices are all
  dense, or all factored with one pair of factor shapes, runs each direction
  as one stacked product and one row-wise rescale; a narrower level (a chain
  has two nodes per level), or one that mixes edge kinds or shapes, runs the
  per-node apply/rescale loop.
* PropagationState -- the depth-bounded incremental engine that keeps only
  the bottom-up vectors current, O(k^2 D) per operation.  It answers the
  engine protocol (update_evidence, bel_query, counter) that
  `dynamic.DynamicEngine` and `bench.FullEngine` answer too.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from . import linalg
from .errors import InconsistentEvidenceError, ScaleError
from .linalg import OpCounter
from .tree import BATCH_MIN_WIDTH, CausalTree, Levels

JOINT_STATE_LIMIT = 10**7


class NodeRows(Mapping):
    """Per-node view of an (N, k) array whose rows follow a breadth-first
    numbering; assigning to a node writes its row."""

    def __init__(self, levels: Levels, rows: np.ndarray):
        self.levels = levels
        self.rows = rows

    def __getitem__(self, x: int) -> np.ndarray:
        return self.rows[self.levels.pos[x]]

    def __setitem__(self, x: int, v) -> None:
        self.rows[self.levels.pos[x]] = v

    def __iter__(self):
        return iter(self.levels.order)

    def __len__(self) -> int:
        return len(self.levels.order)


def lambda_pass(tree: CausalTree, counter: OpCounter | None = None):
    """Bottom-up sweep; returns (lambda vectors, cached edge messages) as
    per-node views of breadth-first (N, k) arrays.

    msg[c] = M_c . lambda(c) is cached per non-root node (the root's row stays
    zero) so the top-down pass can reuse sibling messages, keeping the total
    at one matrix-vector product per edge per direction.  Leaf rows hold
    `CausalTree.leaf_lambda`, read for all posted evidence at once.
    """
    lv = tree.numbering()
    lam = np.ones((len(lv.order), tree.k))
    msg = np.zeros_like(lam)
    if tree.evidence:
        rows = [lv.pos[x] for x in tree.evidence]
        lam[rows] = linalg.rescale_rows(np.array(list(tree.evidence.values())))
    for d in reversed(lv.depths()):
        start, stop = lv.span(d)
        if lv.inner[d]:
            c0, c1 = lv.span(d + 1)
            if stop - start >= BATCH_MIN_WIDTH:
                lam[lv.inner[d]] = linalg.rescale_rows(msg[c0:c1:2] * msg[c0 + 1 : c1 : 2])
            else:
                for i, c in zip(lv.inner[d], range(c0, c1, 2)):
                    lam[i] = linalg.rescale_if_tiny(msg[c] * msg[c + 1])
        if d == 0:
            break
        stack = lv.stacks[d]
        if stack is not None:
            msg[start:stop] = linalg.apply_stacked(stack, lam[start:stop], counter)
        else:
            for i in range(start, stop):
                msg[i] = linalg.apply(tree.matrix[lv.order[i]], lam[i], counter)
    return NodeRows(lv, lam), NodeRows(lv, msg)


def propagate_all(
    tree: CausalTree, counter: OpCounter | None = None
) -> Mapping[int, np.ndarray]:
    """Full two-pass propagation; Bel(x) for every node at current evidence."""
    lam, msg = lambda_pass(tree, counter)
    lv, msg = lam.levels, msg.rows
    pi = np.empty_like(msg)
    pi[0] = tree.prior
    for d in lv.depths()[1:]:
        start, stop = lv.span(d)
        parents = lv.inner[d - 1]
        stack = lv.stacks[d]
        if stack is not None:
            # pi(p) . msg(sibling) for every child: left children at even offsets
            p = pi[parents]
            v = np.empty((stop - start, tree.k))
            v[0::2] = p * msg[start + 1 : stop : 2]
            v[1::2] = p * msg[start:stop:2]
            pi[start:stop] = linalg.rescale_rows(
                linalg.apply_transpose_stacked(stack, v, counter)
            )
        else:
            for p, l in zip(parents, range(start, stop, 2)):
                for c, sib in ((l, l + 1), (l + 1, l)):
                    pi[c] = linalg.rescale_if_tiny(
                        linalg.apply_transpose(
                            tree.matrix[lv.order[c]], pi[p] * msg[sib], counter
                        )
                    )
    bel = lam.rows * pi
    mass = bel.sum(axis=1)
    zero = np.flatnonzero(~((mass > 0.0) & (mass < np.inf)))
    if zero.size:
        raise InconsistentEvidenceError(
            f"evidence has zero joint probability (first seen at node {lv.order[zero[0]]})"
        )
    bel /= mass[:, np.newaxis]
    return NodeRows(lv, bel)


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
            factors.append(((tree.parent[child], child), linalg.dense(m)))
    for leaf in tree.in_order_leaves():
        factors.append(((leaf,), tree.leaf_lambda(leaf)))
    return enumerate_marginals(tree.k, factors, counter)


class PropagationState:
    """Depth-bounded incremental engine: keeps lambda current, computes pi on
    demand along the root path only."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counter = OpCounter()
        self.lam, self.msg = lambda_pass(tree, self.counter)
        self.last_lambda_recomputes = 0
        self.last_pi_recomputes = 0

    def update_evidence(self, leaf: int, likelihood) -> None:
        """Post new evidence and refresh lambda on the root path; pi is left
        stale by design."""
        tree = self.tree
        tree.set_evidence(leaf, likelihood)
        self.lam[leaf] = tree.leaf_lambda(leaf)
        self.msg[leaf] = linalg.apply(tree.matrix[leaf], self.lam[leaf], self.counter)
        self.last_lambda_recomputes = 0
        x = tree.parent.get(leaf)
        while x is not None:
            l, r = tree.kids[x]
            self.lam[x] = linalg.rescale_if_tiny(self.msg[l] * self.msg[r])
            self.last_lambda_recomputes += 1
            if x != tree.root:
                self.msg[x] = linalg.apply(tree.matrix[x], self.lam[x], self.counter)
            x = tree.parent.get(x)

    def bel_query(self, x: int) -> np.ndarray:
        """Bel(x) computed by walking pi down the root path; transient, never
        cached."""
        tree = self.tree
        x = tree.resolve(x)
        path = [x]
        while path[-1] != tree.root:
            path.append(tree.parent[path[-1]])
        path.reverse()
        pi = tree.prior
        self.last_pi_recomputes = 0
        for parent, child in zip(path, path[1:]):
            l, r = tree.kids[parent]
            sib = r if child == l else l
            pi = linalg.rescale_if_tiny(
                linalg.apply_transpose(tree.matrix[child], pi * self.msg[sib], self.counter)
            )
            self.last_pi_recomputes += 1
        return linalg.normalize(self.lam[x] * pi)
