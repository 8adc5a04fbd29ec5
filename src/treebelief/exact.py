"""Verification oracles and linear-time baselines.

Three engines of increasing cleverness, used to cross-check each other and
the logarithmic engine:

* enumerate_marginals -- the one brute-force oracle: enumeration of the full
  joint of a factor product; definitionally correct, exponential, for small
  models only.  joint_marginals feeds it a causal tree and
  Polytree.joint_conditionals a polytree.
* propagate_all   -- the classical two-pass bottom-up/top-down propagation,
  O(k^2 N).  Nodes are numbered breadth-first once per tree, and the sweep's
  schedule is compiled with the numbering (`CausalTree.numbering`, `Levels`);
  lambda (leaf rows: `evidence_rows`), the edge messages and pi are (N, k)
  arrays in that order.  A depth of at least BATCH_MIN_WIDTH nodes whose
  edge matrices are all of one `linalg.form` (all dense, or all factored
  with one pair of factor shapes) runs each direction as one stacked
  product and one row-wise rescale.  The internal nodes of the other depths (a chain has two nodes
  per depth) run node by node, one run per stretch of such depths.  Their
  leaves leave that run: messages before it and pi after it, as one
  row-wise product per edge matrix object several of them share (a protein
  chain's evidence leaves share one identity) and one per form over the
  stack of the matrices one leaf uses alone.  Every stacked product is
  `linalg.apply_rows` or `apply_transpose_rows` and every row-wise rescale
  `rescale_rows`, bitwise their per-node forms, so the sweep is bitwise the
  two-pass recursion node by node, with one matrix-vector product per edge
  per direction.
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
from .tree import CausalTree, Levels, Stacked

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
    `CausalTree.evidence_rows`, the likelihoods as guarded when posted.  The
    schedule is the tree's `Levels`: the messages of the leaves off its runs
    first, then its steps bottom-up, then the root's lambda.
    """
    lv = tree.numbering()
    lam = np.ones((len(lv.order), tree.k))
    msg = np.zeros_like(lam)
    leaves, rows = tree.evidence_rows()
    if leaves:
        lam[[lv.pos[x] for x in leaves]] = rows
    for m, at, _, _ in lv.groups:
        msg[at] = linalg.apply_rows(m, lam[at], counter)
    for step in lv.steps:
        if isinstance(step, Stacked):
            start, stop = step.start, step.stop
            if step.inner.size:
                end = stop + 2 * step.inner.size
                lam[step.inner] = linalg.rescale_rows(msg[stop:end:2] * msg[stop + 1 : end : 2])
            msg[start:stop] = linalg.apply_rows(step.stack, lam[start:stop], counter)
        else:
            for i, l, _, _, m in reversed(step):
                lam[i] = linalg.rescale_if_tiny(msg[l] * msg[l + 1])
                msg[i] = linalg.apply(m, lam[i], counter)
    if lv.inner.size:
        lam[0] = linalg.rescale_if_tiny(msg[1] * msg[2])
    return NodeRows(lv, lam), NodeRows(lv, msg)


def propagate_all(
    tree: CausalTree, counter: OpCounter | None = None
) -> Mapping[int, np.ndarray]:
    """Full two-pass propagation; Bel(x) for every node at current evidence.
    The top-down pass runs the `Levels` steps in reverse, then the pi of the
    leaves off the runs."""
    lam, msg = lambda_pass(tree, counter)
    lv, msg = lam.levels, msg.rows
    pi = np.empty_like(msg)
    pi[0] = tree.prior
    for step in reversed(lv.steps):
        if isinstance(step, Stacked):
            # pi(p) . msg(sibling) for every child: left children at even offsets
            start, stop = step.start, step.stop
            p = pi[step.up]
            v = np.empty((stop - start, tree.k))
            v[0::2] = p * msg[start + 1 : stop : 2]
            v[1::2] = p * msg[start:stop:2]
            pi[start:stop] = linalg.rescale_rows(
                linalg.apply_transpose_rows(step.stack, v, counter)
            )
        else:
            for i, _, p, s, m in step:
                pi[i] = linalg.rescale_if_tiny(linalg.apply_transpose(m, pi[p] * msg[s], counter))
    for m, at, up, sib in lv.groups:
        pi[at] = linalg.rescale_rows(linalg.apply_transpose_rows(m, pi[up] * msg[sib], counter))
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
    and each sum adds the tensor size to `counter.flops`.  A float table is
    first multiplied by the power of two that brings its max into [0.5, 1),
    so that no product of many large tables overflows; the shift is exact
    and the normalized marginals do not change under it.  Tables of
    `fractions.Fraction` objects give exact marginals as Fraction object
    arrays, with no shift and no rounding.
    """
    variables = sorted({v for vs, _ in factors for v in vs})
    axis = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    if k**n > JOINT_STATE_LIMIT:
        raise ScaleError(f"joint state space k^{n} exceeds {JOINT_STATE_LIMIT}")
    tables = [np.asarray(table) for _, table in factors]
    rational = any(t.dtype == object for t in tables)
    w = np.ones((k,) * n, dtype=object if rational else np.float64)
    for (vs, _), t in zip(factors, tables):
        axes = [axis[v] for v in vs]
        t = t.reshape((k,) * len(vs))
        if not rational:
            t = t.astype(np.float64, copy=False)
            t = np.ldexp(t, -np.frexp(t.max(initial=0.0))[1])
        shape = [1] * n
        for a in axes:
            shape[a] = k
        w = w * np.transpose(t, np.argsort(axes)).reshape(shape)
        if counter is not None:
            counter.flops += w.size

    total = w.sum()
    if total <= 0:
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
    for p, pair in tree.kids.items():
        factors += [((p, c), linalg.dense(tree.matrix[c])) for c in pair]
    for leaf in tree.in_order_leaves():
        factors.append(((leaf,), tree.leaf_lambda(leaf)))
    return enumerate_marginals(tree.k, factors, counter)


class PropagationState:
    """Depth-bounded incremental engine: keeps lambda current, computes pi on
    demand along the root path only, climbing by its own child -> parent map."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.up = {c: p for p, pair in tree.kids.items() for c in pair}
        self.counter = OpCounter()
        self.lam, self.msg = lambda_pass(tree, self.counter)
        self.last_lambda_recomputes = 0
        self.last_pi_recomputes = 0

    def update_evidence(self, leaf: int, likelihood) -> None:
        """Post new evidence and refresh lambda on the root path; pi is left
        stale by design."""
        tree = self.tree
        tree.set_evidence([(leaf, likelihood)])
        self.lam[leaf] = tree.leaf_lambda(leaf)
        self.msg[leaf] = linalg.apply(tree.matrix[leaf], self.lam[leaf], self.counter)
        self.last_lambda_recomputes = 0
        x = self.up.get(leaf)
        while x is not None:
            l, r = tree.kids[x]
            self.lam[x] = linalg.rescale_if_tiny(self.msg[l] * self.msg[r])
            self.last_lambda_recomputes += 1
            if x != tree.root:
                self.msg[x] = linalg.apply(tree.matrix[x], self.lam[x], self.counter)
            x = self.up.get(x)

    def bel_query(self, x: int) -> np.ndarray:
        """Bel(x) computed by walking pi down the root path; transient, never
        cached."""
        tree = self.tree
        x = tree.resolve(x)
        path = [x]
        while path[-1] != tree.root:
            path.append(self.up[path[-1]])
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
