"""Causal-tree data model.

A causal tree is a rooted binary complete tree: every internal node has
exactly two children, every edge carries a k x k row-stochastic conditional
matrix, the root carries a prior, and evidence lives only at leaves as
likelihood vectors.  Arbitrary-fanout inputs are normalized by `binarize`,
which copies over-full nodes and pads single-child nodes with dummy leaves
whose likelihood is permanently all-ones; every copy and dummy edge carries
the same identity matrix object.
"""

from __future__ import annotations

import math
from itertools import chain, compress

import numpy as np

from . import linalg
from .errors import DimensionError, StructureError, UsageError
from .linalg import FactoredMatrix

ROW_SUM_TOL = 1e-9

# Levels narrower than this keep the per-node loop: below it numpy's fixed
# cost per stacked call outweighs the per-node calls it replaces.
BATCH_MIN_WIDTH = 8


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
        if isinstance(matrix, FactoredMatrix):  # passes through unchanged
            m = matrix
        else:
            m = linalg.as_matrix(matrix)  # its values are checked by `validate`
        self.children[parent].append(child)
        self.matrix[child] = m


def as_likelihood(likelihood, k: int) -> np.ndarray:
    """The one check of a posted likelihood: a length-k vector with finite,
    nonnegative entries."""
    v = linalg.as_vector(likelihood)
    if v.shape[0] != k:
        raise DimensionError(f"likelihood length {v.shape[0]} != k={k}")
    if not (v.min() >= 0.0 and v.max() < math.inf):  # NaN fails the first test
        raise DimensionError("likelihood entries must be finite and nonnegative")
    return v


class BinaryLinks:
    """Root and child/parent links of a binary complete tree: `kids[x]` is
    the (left, right) pair of each internal node x, so a node has two
    children or none, and `parent` maps every other node to its parent."""

    def __init__(self, root: int | None = None):
        self.root = root
        self.kids: dict[int, tuple[int, int]] = {}
        self.parent: dict[int, int] = {}

    def is_leaf(self, x: int) -> bool:
        return x not in self.kids

    def in_order_leaves(self) -> list[int]:
        """Leaves left-to-right under in-order traversal (iterative)."""
        out = []
        stack = [self.root]
        while stack:
            x = stack.pop()
            if self.is_leaf(x):
                out.append(x)
            else:
                stack += reversed(self.kids[x])
        return out


class CausalTree(BinaryLinks):
    """Binary complete causal tree; the single store of leaf evidence.

    `evidence` maps each leaf with posted evidence to its likelihood vector.
    A contraction hierarchy built on the tree reads it through `leaf_lambda`,
    so once an engine is built, evidence changes go through the engine's
    `update_evidence`, which also refreshes the derived matrices.

    Edges may share a matrix object, never written in place (`rake_compose`,
    `rescale_if_tiny` and `_stack` return new arrays).  `link` is the one
    structural writer and drops the cached `numbering`; writing `matrix` after
    a sweep is unsupported, since the numbering keeps its own stacked copies.
    """

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.names: dict[int, str] = {}
        self.prior: np.ndarray | None = None
        self.matrix: dict[int, np.ndarray] = {}  # edge matrix, keyed by child
        self.evidence: dict[int, np.ndarray] = {}  # leaf id -> likelihood
        self.alias: dict[int, int] = {}  # copy -> original
        self.dummies: set[int] = set()
        self._next_id = 0
        self._ones = np.ones(k)  # shared likelihood of every leaf without evidence
        self._ones.flags.writeable = False
        self._numbering: Levels | None = None

    # ------------------------------------------------------------------
    # basic structure helpers

    def fresh_id(self) -> int:
        while self._next_id in self.names:
            self._next_id += 1
        nid = self._next_id
        self._next_id += 1
        return nid

    def add_node(self, node: int, name: str | None = None) -> None:
        self.names[node] = name if name is not None else str(node)

    def link(self, parent: int, left: int, right: int) -> None:
        self.kids[parent] = left, right
        self.parent[left] = parent
        self.parent[right] = parent
        self._numbering = None

    def numbering(self) -> Levels:
        """The breadth-first `Levels` of the tree, built on first call and
        kept until `link`.  It holds a second copy of each wide level's edge
        matrices, so the first sweep builds it, not the tree's set-up."""
        if self._numbering is None:
            self._numbering = Levels(self)
        return self._numbering

    def resolve(self, x: int) -> int:
        """The one check of a queried node id: follow alias links from a
        normalization copy to its original; UsageError for an id not in the
        tree."""
        while x in self.alias:
            x = self.alias[x]
        if x not in self.names:
            raise UsageError(f"unknown node {x}")
        return x

    def leaf_lambda(self, leaf: int) -> np.ndarray:
        """Current likelihood of a leaf.  Without evidence it is the shared
        read-only all-ones vector `_ones` itself, which needs no scale guard;
        posted evidence goes through the same guard as every derived vector,
        and the stored evidence stays as posted."""
        v = self.evidence.get(leaf)
        return self._ones if v is None else linalg.rescale_if_tiny(v)

    # ------------------------------------------------------------------
    # evidence

    def set_evidence(self, leaf: int, likelihood) -> None:
        if leaf not in self.names or not self.is_leaf(leaf):
            raise UsageError(f"node {leaf} is not a leaf")
        if leaf in self.dummies:
            raise UsageError(f"node {leaf} is a dummy leaf and not updatable")
        self.evidence[leaf] = as_likelihood(likelihood, self.k).copy()

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
            for c in self.kids.get(x, ()):
                if self.parent.get(c) != x:
                    out.append(f"child link {x}->{c} not mirrored by parent link")
                stack.append(c)
        for x in self.names:
            if x not in seen:
                out.append(f"node {x} unreachable from root")
        out += self._edge_violations(seen)
        for x in seen:
            if x not in self.matrix and x != self.root:
                out.append(f"edge into {x} has no matrix")
        for leaf, v in self.evidence.items():
            if leaf not in seen or not self.is_leaf(leaf):
                out.append(f"evidence on non-leaf node {leaf}")
            elif leaf in self.dummies:
                out.append(f"evidence on dummy leaf {leaf}")
            if v.shape != (self.k,) or not np.all(np.isfinite(v) & (v >= 0)):
                out.append(f"evidence on {leaf} is not a finite nonnegative k-vector")
        return out

    @np.errstate(invalid="ignore", over="ignore")  # bad values are reported, not warned
    def _edge_violations(self, seen: set[int]) -> list[str]:
        """Shape, finiteness, row-sum and range violations of the edge
        matrices into `seen`, in edge order.  Each distinct matrix is checked
        once: a factored one on its factors (`_sound_factored`), the k x k
        arrays, and any factored one that fails there expanded, as one stack.
        Python visits the edges only to name each edge that uses a failing
        matrix."""
        k = self.k
        mats = {id(m): m for c, m in self.matrix.items() if c in seen}
        sound = _sound_factored(mats, k)
        if sound:
            mats = {i: m for i, m in mats.items() if i not in sound}
        dense = list(map(linalg.dense, mats.values()))
        square = np.array([m.shape == (k, k) for m in dense], dtype=bool)
        stack = np.array(list(compress(dense, square))).reshape(-1, k, k)
        row_bad = ~(np.abs(stack.sum(axis=2) - 1.0) <= ROW_SUM_TOL)  # NaN fails too
        range_bad = ~((stack >= 0) & (stack <= 1.0 + 1e-12)).all(axis=(1, 2))
        flagged = ~square
        flagged[square] = row_bad.any(axis=1) | range_bad
        at = np.cumsum(square) - 1  # stack position of each square matrix
        failing = dict(zip(compress(mats, flagged), np.flatnonzero(flagged)))
        out = []
        for child, m in self.matrix.items() if failing else ():
            i = failing.get(id(m)) if child in seen else None
            if i is None:
                continue
            m = dense[i]
            if not square[i]:
                out.append(f"edge matrix into {child} has shape {m.shape}")
                continue
            if not np.isfinite(m).all():
                out.append(f"edge matrix into {child} has non-finite entries")
            for row in np.flatnonzero(row_bad[at[i]]):
                out.append(f"edge matrix into {child}: row {row} sums to {m[row].sum():.6g}")
            if range_bad[at[i]]:
                out.append(f"edge matrix into {child} has entries outside [0,1]")
        return out


def _sound_factored(mats: dict, k: int) -> set[int]:
    """Ids of the k x k factored matrices in `mats` that pass `validate`
    without a K x K product: both factors nonnegative (so the product is), and
    every row sum, taken as left . (right . 1), within ROW_SUM_TOL of 1 and at
    most 1 + 1e-12 (so no entry of the product is above it).  Factors of one
    shape are checked as one stack."""
    groups: dict[tuple, list[int]] = {}
    for i, m in mats.items():
        if isinstance(m, FactoredMatrix) and m.shape == (k, k):
            groups.setdefault((m.left.shape, m.right.shape), []).append(i)
    sound = set()
    for ids in groups.values():
        left = _stacked([mats[i].left for i in ids])
        right = _stacked([mats[i].right for i in ids])
        sums = np.matmul(left, right.sum(axis=2)[:, :, None])[:, :, 0]
        ok = (
            (left >= 0).all(axis=(1, 2))
            & (right >= 0).all(axis=(1, 2))
            & (np.abs(sums - 1.0) <= ROW_SUM_TOL).all(axis=1)
            & (sums <= 1.0 + 1e-12).all(axis=1)
        )
        sound.update(compress(ids, ok))
    return sound


class Levels:
    """Breadth-first numbering of a binary complete tree.

    order[i] is the node at position i and pos its inverse; depth d spans
    positions bounds[d]:bounds[d + 1]; inner[d] holds the positions of the
    internal nodes of depth d, and the children of inner[d][j] sit at
    bounds[d + 1] + 2j (left) and + 2j + 1 (right).  stacks[d] is the stacked
    form of depth d's edge matrices (see `_stack`), or None where depth d
    runs the per-node loop.
    """

    def __init__(self, tree: CausalTree):
        order = [tree.root]
        self.bounds = [0]
        self.inner: list[list[int]] = []
        self.stacks: list = [None]
        start = 0
        while start < len(order):
            stop = len(order)
            nodes = order[start:stop]
            internal = list(map(tree.kids.__contains__, nodes))
            order += chain.from_iterable(map(tree.kids.__getitem__, compress(nodes, internal)))
            self.bounds.append(stop)
            self.inner.append(list(compress(range(start, stop), internal)))
            if start:
                self.stacks.append(_stack(list(map(tree.matrix.__getitem__, nodes))))
            start = stop
        self.order = order
        self.pos = dict(zip(order, range(len(order))))

    def depths(self) -> range:
        return range(len(self.inner))

    def span(self, d: int) -> tuple[int, int]:
        return self.bounds[d], self.bounds[d + 1]


def _stack(mats):
    """A level's edge matrices as one (n, k, k) stack when all are dense, or
    as a left and a right factor stack when all are factored with equal
    factor shapes; None when the level is narrow or mixed."""
    if len(mats) < BATCH_MIN_WIDTH:
        return None
    factored = sum(isinstance(m, FactoredMatrix) for m in mats)
    if not factored:
        return (_stacked(mats),)
    if factored == len(mats):
        lefts = [m.left for m in mats]
        rights = [m.right for m in mats]
        if len(set(map(np.shape, lefts))) == 1 == len(set(map(np.shape, rights))):
            return _stacked(lefts), _stacked(rights)
    return None


def _stacked(mats) -> np.ndarray:
    """Equally shaped matrices as one (n, a, b) array."""
    return np.concatenate(mats).reshape(len(mats), *mats[0].shape)


def binarize(raw: RawTree) -> CausalTree:
    """Normalize an arbitrary-fanout raw tree to a binary complete CausalTree.

    Over-full nodes hang their surplus children off a right spine of
    identity-linked copies; single-child nodes get an all-ones dummy leaf.
    Node count at most doubles.  Each distinct raw matrix is copied once, and
    copy and dummy edges share one identity; nothing writes an edge matrix in
    place, so sharing cannot change a value.  The raw tree is linked as given
    and checked once, by `CausalTree.validate` (`StructureError`).
    """
    if raw.root is None or raw.prior is None:
        raise StructureError("raw tree has no root/prior")
    t = CausalTree(raw.k)
    ident = np.eye(raw.k)
    for n, name in raw.names.items():
        t.add_node(n, name)
    t.root = raw.root
    t.prior = raw.prior.copy()
    copies = {id(m): m for m in raw.matrix.values()}  # raw keeps each id alive
    copies = {i: m.copy() for i, m in copies.items()}
    t.matrix = {child: copies[id(m)] for child, m in raw.matrix.items()}
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
            t.matrix[d] = ident
            t.link(n, cs[0], d)
        else:
            # right spine of identity-linked copies of n, empty for two children
            holder = n
            for c in cs[:-2]:
                cp = t.fresh_id()
                t.add_node(cp, f"{raw.names[n]}_cp")
                t.alias[cp] = n
                t.matrix[cp] = ident
                t.link(holder, c, cp)
                holder = cp
            t.link(holder, cs[-2], cs[-1])

    violations = t.validate()
    if violations:
        raise StructureError("; ".join(violations))
    return t
