"""Causal-tree data model.

A causal tree is a rooted binary complete tree: every internal node has
exactly two children, every edge carries a k x k row-stochastic conditional
matrix, the root carries a prior, and evidence lives only at leaves as
likelihood vectors.  Arbitrary-fanout inputs are normalized by `binarize`,
which copies over-full nodes (linked by identity matrices) and pads
single-child nodes with dummy leaves whose likelihood is permanently
all-ones.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import DimensionError, StructureError, UsageError

ROW_SUM_TOL = 1e-9


class RawTree:
    """Arbitrary-fanout rooted tree input, prior to binarization."""

    def __init__(self, k: int):
        self.k = k
        self.names: dict[int, str] = {}
        self.children: dict[int, list[int]] = {}
        self.matrix: dict[int, np.ndarray] = {}  # keyed by child id
        self.root: int | None = None
        self.prior: np.ndarray | None = None
        self.evidence: dict[int, np.ndarray] = {}

    def add_node(self, node: int, name: str | None = None) -> None:
        self.names[node] = name if name is not None else str(node)
        self.children.setdefault(node, [])

    def set_root(self, node: int, prior) -> None:
        v = linalg.as_vector(prior)
        if not (v.size and v.min() >= 0.0 and 0.0 < v.max() < math.inf):
            raise DimensionError("prior must be finite, nonnegative and not all zero")
        self.root = node
        self.prior = linalg.normalize(v)

    def add_edge(self, parent: int, child: int, matrix) -> None:
        if parent not in self.names or child not in self.names:
            raise StructureError(f"edge {parent}->{child} references unknown node")
        if hasattr(matrix, "mv"):  # factored matrices pass through unchanged
            m = matrix
        else:
            m = linalg.as_matrix(matrix)
            if not np.all(np.isfinite(m)):
                raise DimensionError(f"edge matrix into {child} has non-finite entries")
        self.children[parent].append(child)
        self.matrix[child] = m


class CausalTree:
    """Binary complete causal tree; the single store of leaf evidence.

    `evidence` maps each leaf with posted evidence to its likelihood vector.
    A contraction hierarchy built on the tree reads it through `leaf_lambda`,
    so once an engine is built, evidence changes go through the engine's
    `update_evidence`, which also refreshes the derived matrices.
    """

    def __init__(self, k: int):
        self.k = k
        self.names: dict[int, str] = {}
        self.root: int | None = None
        self.prior: np.ndarray | None = None
        self.parent: dict[int, int] = {}
        self.left: dict[int, int] = {}
        self.right: dict[int, int] = {}
        self.matrix: dict[int, np.ndarray] = {}  # edge matrix, keyed by child
        self.evidence: dict[int, np.ndarray] = {}  # leaf id -> likelihood
        self.alias: dict[int, int] = {}  # copy -> original
        self.dummies: set[int] = set()
        self._next_id = 0
        self._ones = np.ones(k)  # shared likelihood of every leaf without evidence
        self._ones.flags.writeable = False

    # ------------------------------------------------------------------
    # basic structure helpers

    def is_leaf(self, x: int) -> bool:
        return x not in self.left

    def children_of(self, x: int) -> tuple[int, int]:
        return self.left[x], self.right[x]

    def fresh_id(self) -> int:
        while self._next_id in self.names:
            self._next_id += 1
        nid = self._next_id
        self._next_id += 1
        return nid

    def add_node(self, node: int, name: str | None = None) -> None:
        self.names[node] = name if name is not None else str(node)

    def link(self, parent: int, left: int, right: int) -> None:
        self.left[parent] = left
        self.right[parent] = right
        self.parent[left] = parent
        self.parent[right] = parent

    def resolve(self, x: int) -> int:
        """Follow alias links from a normalization copy to its original."""
        while x in self.alias:
            x = self.alias[x]
        return x

    def in_order_leaves(self) -> list[int]:
        """Leaves left-to-right under in-order traversal (iterative)."""
        out = []
        stack = [self.root]
        while stack:
            x = stack.pop()
            if self.is_leaf(x):
                out.append(x)
            else:
                stack.append(self.right[x])
                stack.append(self.left[x])
        return out

    def leaf_lambda(self, leaf: int) -> np.ndarray:
        """Current likelihood of a leaf (read-only all-ones without evidence)."""
        return self.evidence.get(leaf, self._ones)

    def depth(self, x: int) -> int:
        d = 0
        while x != self.root:
            x = self.parent[x]
            d += 1
        return d

    # ------------------------------------------------------------------
    # evidence

    def set_evidence(self, leaf: int, likelihood) -> None:
        if leaf not in self.names or not self.is_leaf(leaf):
            raise UsageError(f"node {leaf} is not a leaf")
        if leaf in self.dummies:
            raise UsageError(f"node {leaf} is a dummy leaf and not updatable")
        v = linalg.as_vector(likelihood)
        if v.shape[0] != self.k:
            raise DimensionError(f"likelihood length {v.shape[0]} != k={self.k}")
        if not (v.min() >= 0.0 and v.max() < math.inf):  # NaN fails the first test
            raise DimensionError("likelihood entries must be finite and nonnegative")
        self.evidence[leaf] = v.copy()

    def attach_evidence_leaf(self, x: int) -> int:
        """Give node x a dedicated identity-linked evidence leaf; returns its id.

        Internal nodes are copied so the tree stays binary complete; the copy
        is aliased back to x and its identity edge leaves all beliefs intact.
        """
        if x not in self.names:
            raise UsageError(f"unknown node {x}")
        ident = np.eye(self.k)
        e = self.fresh_id()
        self.add_node(e, f"{self.names[x]}_ev")
        if self.is_leaf(x):
            # x becomes internal; its evidence (if any) moves to the new leaf
            d = self.fresh_id()
            self.add_node(d, f"{self.names[x]}_pad")
            self.dummies.add(d)
            if x in self.evidence:
                self.evidence[e] = self.evidence.pop(x)
            self.matrix[e] = ident.copy()
            self.matrix[d] = ident.copy()
            self.link(x, e, d)
        else:
            cp = self.fresh_id()
            self.add_node(cp, f"{self.names[x]}_cp")
            self.alias[cp] = x
            l, r = self.left[x], self.right[x]
            self.link(cp, l, r)
            self.matrix[cp] = ident.copy()
            self.matrix[e] = ident.copy()
            self.link(x, e, cp)
        return e

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> list[str]:
        """All invariant violations as human-readable strings ([] when clean)."""
        out = []
        if self.root is None:
            return ["no root defined"]
        if self.prior is None or self.prior.shape != (self.k,):
            out.append("root prior missing or wrong length")
        elif not abs(self.prior.sum() - 1.0) <= 1e-9:  # NaN fails too
            out.append("root prior does not sum to 1")
        if self.root in self.parent:
            out.append("root has a parent")
        seen = set()
        stack = [self.root]
        while stack:
            x = stack.pop()
            if x in seen:
                out.append(f"node {x} reachable twice (cycle or shared child)")
                continue
            seen.add(x)
            has_l, has_r = x in self.left, x in self.right
            if has_l != has_r:
                out.append(f"node {x} has exactly one child (arity violation)")
            if has_l and has_r:
                for c in (self.left[x], self.right[x]):
                    if self.parent.get(c) != x:
                        out.append(f"child link {x}->{c} not mirrored by parent link")
                    stack.append(c)
        for x in self.names:
            if x not in seen:
                out.append(f"node {x} unreachable from root")
        for child, m in self.matrix.items():
            if child not in seen:
                continue
            if hasattr(m, "expand"):
                m = m.expand()  # row-stochasticity is checked on the product
            if m.shape != (self.k, self.k):
                out.append(f"edge matrix into {child} has shape {m.shape}")
                continue
            bad = np.where(~(np.abs(m.sum(axis=1) - 1.0) <= ROW_SUM_TOL))[0]
            for row in bad:
                out.append(f"edge matrix into {child}: row {row} sums to {m[row].sum():.6g}")
            if not np.all((m >= 0) & (m <= 1.0 + 1e-12)):
                out.append(f"edge matrix into {child} has entries outside [0,1]")
        for x in seen:
            if not self.is_leaf(x) and x not in self.matrix and x != self.root:
                out.append(f"edge into {x} has no matrix")
        for leaf, v in self.evidence.items():
            if leaf not in seen or not self.is_leaf(leaf):
                out.append(f"evidence on non-leaf node {leaf}")
            elif leaf in self.dummies:
                out.append(f"evidence on dummy leaf {leaf}")
            if v.shape != (self.k,) or not np.all(np.isfinite(v) & (v >= 0)):
                out.append(f"evidence on {leaf} is not a finite nonnegative k-vector")
        return out


def binarize(raw: RawTree) -> CausalTree:
    """Normalize an arbitrary-fanout raw tree to a binary complete CausalTree.

    Over-full nodes hang their surplus children off a right spine of
    identity-linked copies; single-child nodes get an all-ones dummy leaf.
    Node count at most doubles.
    """
    if raw.root is None or raw.prior is None:
        raise StructureError("raw tree has no root/prior")
    # reject multiple parents / cycles
    parent_count: dict[int, int] = {}
    for p, cs in raw.children.items():
        for c in cs:
            parent_count[c] = parent_count.get(c, 0) + 1
            if parent_count[c] > 1:
                raise StructureError(f"node {c} has multiple parents")
    # reachability check
    seen = set()
    stack = [raw.root]
    while stack:
        x = stack.pop()
        if x in seen:
            raise StructureError(f"cycle through node {x}")
        seen.add(x)
        stack.extend(raw.children.get(x, []))
    if seen != set(raw.names):
        raise StructureError("raw tree has nodes unreachable from the root")

    t = CausalTree(raw.k)
    ident = np.eye(raw.k)
    for n, name in raw.names.items():
        t.add_node(n, name)
    t.root = raw.root
    t.prior = raw.prior.copy()
    for child, m in raw.matrix.items():
        t.matrix[child] = m.copy()
    for leaf, v in raw.evidence.items():
        t.evidence[leaf] = linalg.as_vector(v).copy()

    for n in list(raw.names):
        cs = raw.children.get(n, [])
        if not cs:
            continue
        if len(cs) == 1:
            d = t.fresh_id()
            t.add_node(d, f"{raw.names[n]}_pad")
            t.dummies.add(d)
            t.matrix[d] = ident.copy()
            t.link(n, cs[0], d)
        elif len(cs) == 2:
            t.link(n, cs[0], cs[1])
        else:
            # right spine of identity-linked copies of n
            holder = n
            remaining = list(cs)
            orig = n
            while len(remaining) > 2:
                cp = t.fresh_id()
                t.add_node(cp, f"{raw.names[orig]}_cp")
                t.alias[cp] = orig
                t.matrix[cp] = ident.copy()
                t.link(holder, remaining[0], cp)
                remaining = remaining[1:]
                holder = cp
            t.link(holder, remaining[0], remaining[1])

    violations = t.validate()
    if violations:
        raise StructureError("; ".join(violations))
    return t
