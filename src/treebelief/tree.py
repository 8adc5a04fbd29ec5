"""Causal-tree data model.

A causal tree is a rooted binary complete tree: every internal node has
exactly two children, every edge carries a k x k row-stochastic conditional
matrix, the root carries a prior, and evidence lives only at leaves as
likelihood vectors.  Arbitrary-fanout inputs are normalized by `binarize`,
which copies over-full nodes and pads single-child nodes with dummy leaves
whose likelihood is permanently all-ones; every copy and dummy edge carries
the same identity matrix object.  Each link is stored once, as the parent's
(left, right) child pair; a reader that climbs derives parents from those.
Only `CausalTree.link` writes links and edge matrices, so an internal node
always has both.  Only `CausalTree.set_evidence`, `drop_evidence` and
`binarize` write evidence: each likelihood is kept as posted and with its
scale guard taken at the write.
"""

from __future__ import annotations

import math
from itertools import chain, compress
from types import MappingProxyType

import numpy as np

from . import linalg
from .errors import DimensionError, StructureError, UsageError
from .linalg import FactoredMatrix

ROW_SUM_TOL = 1e-9

# Depths narrower than this keep per-node products in the sweep: below it
# numpy's fixed cost per stacked call outweighs the per-node calls it replaces.
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
        self.dummies: set[int] = set()  # leaves that are padding (BTN `pad` lines)
        self.alias: dict[int, int] = {}  # copy -> original (BTN `copy` lines)

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
    """Root and child links of a binary complete tree: `kids[x]` is the
    (left, right) pair of each internal node x, so a node has two children
    or none."""

    def __init__(self, root: int | None = None):
        self.root = root
        self.kids: dict[int, tuple[int, int]] = {}

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
    """Binary complete causal tree: one store of links and edge matrices, and
    one of evidence.

    An evidenced leaf has its likelihood as posted (`evidence`, a read-only
    view) and guarded (`leaf_lambda`), both read-only arrays.  A contraction
    hierarchy built on the tree reads the guarded form, so once an engine is
    built, evidence changes go through the engine's `update_many`, which also
    refreshes the derived matrices.

    `kids` (each internal node's (left, right) pair) and `matrix` (the edge
    matrix into each child) are read-only views too: `link` is their one
    writer, and it drops the cached `numbering`.  Edges may share a matrix
    object or factor array, never written in place (`rake_compose` and
    `rescale_if_tiny` return new arrays).  The k x k matrices that `binarize`
    links are row views of one C-contiguous (n, k, k) edge table, `_table`,
    one row per distinct raw matrix in link order; `validate` checks those
    rows as one array.
    """

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.names: dict[int, str] = {}
        self.prior: np.ndarray | None = None
        self._kids: dict[int, tuple[int, int]] = {}
        self._matrix: dict[int, np.ndarray] = {}  # edge matrix, keyed by child
        self._table = np.empty((0, k, k))  # binarize's k x k edge matrices, as rows
        self.kids = MappingProxyType(self._kids)  # read-only views; `link` writes
        self.matrix = MappingProxyType(self._matrix)
        self._posted: dict[int, np.ndarray] = {}  # leaf id -> likelihood as posted
        self._guarded: dict[int, np.ndarray] = {}  # leaf id -> rescale_if_tiny of it
        self.evidence = MappingProxyType(self._posted)  # read-only view
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

    def link(self, parent: int, left: int, right: int, m_left, m_right) -> None:
        """The one writer of links and edge matrices: `parent`'s children
        become (left, right), with edge matrices m_left and m_right.  Drops the
        cached `numbering`, so the next sweep sees the change."""
        self._kids[parent] = left, right
        self._matrix[left] = m_left
        self._matrix[right] = m_right
        self._numbering = None

    def numbering(self) -> Levels:
        """The breadth-first numbering of the tree and the sweep schedule
        compiled from it (`Levels`), built on first call and kept until the
        next `link`, the one write that can change it.  It holds a second
        copy of each stacked depth's edge matrices, and positions and matrix
        references for every other node below the root, so the first sweep
        builds it, not the tree's set-up."""
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

    # ------------------------------------------------------------------
    # evidence

    def leaf_lambda(self, leaf: int) -> np.ndarray:
        """Current likelihood of a leaf: the guarded form of its posted
        evidence, or without evidence the shared all-ones vector `_ones`."""
        return self._guarded.get(leaf, self._ones)

    def evidence_rows(self) -> tuple[list[int], list[np.ndarray]]:
        """The evidenced leaves, in first-posted order, and their `leaf_lambda`s."""
        return list(self._guarded), list(self._guarded.values())

    def set_evidence(self, items) -> None:
        """Post each (leaf, likelihood) of `items`; a repeated leaf keeps its
        last.  All are checked before any is stored: a bad one changes nothing."""
        checked = {}
        for leaf, likelihood in items:
            if leaf not in self.names or not self.is_leaf(leaf):
                raise UsageError(f"node {leaf} is not a leaf")
            if leaf in self.dummies:
                raise UsageError(f"node {leaf} is a dummy leaf and not updatable")
            checked[leaf] = as_likelihood(likelihood, self.k).copy()
        self._store(checked)

    def drop_evidence(self, leaves) -> None:
        """Remove the evidence of each of `leaves` that has any."""
        for leaf in list(leaves):
            self._posted.pop(leaf, None)
            self._guarded.pop(leaf, None)

    def _store(self, posted: dict) -> None:
        """Keep each likelihood, read-only, as posted and guarded (one object
        when the guard changes nothing)."""
        for leaf, v in posted.items():
            g = self._guarded[leaf] = linalg.rescale_if_tiny(v)
            v.flags.writeable = g.flags.writeable = False
            self._posted[leaf] = v

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
        if self.root in chain.from_iterable(self.kids.values()):
            out.append("root has a parent")
        seen = set()
        stack = [self.root]
        while stack:
            x = stack.pop()
            if x in seen:
                out.append(f"node {x} reachable twice (cycle or shared child)")
                continue
            seen.add(x)
            stack += self.kids.get(x, ())
        for x in self.names:
            if x not in seen:
                out.append(f"node {x} unreachable from root")
        out += self._edge_violations(seen)
        for leaf, sound in zip(self._posted, self._sound_evidence()):
            if leaf not in seen or not self.is_leaf(leaf):
                out.append(f"evidence on non-leaf node {leaf}")
            elif leaf in self.dummies:
                out.append(f"evidence on dummy leaf {leaf}")
            if not sound:
                out.append(f"evidence on {leaf} is not a finite nonnegative k-vector")
        return out

    def _sound_evidence(self) -> list[bool]:
        """Whether each posted likelihood, in posting order, is a finite
        nonnegative k-vector: those of length k are tested as one stack."""
        posted = list(self._posted.values())
        sound = np.array([v.shape == (self.k,) for v in posted], dtype=bool)
        if sound.any():
            rows, = linalg.row_operands(list(compress(posted, sound)))
            sound[sound] = (np.isfinite(rows) & (rows >= 0)).all(axis=1)
        return sound.tolist()

    @np.errstate(invalid="ignore", over="ignore")  # bad values are reported, not warned
    def _edge_violations(self, seen: set[int]) -> list[str]:
        """Shape, finiteness, row-sum and range violations of the edge
        matrices into `seen`, in edge order.  The rows of the edge table
        (`binarize`'s k x k matrices) are checked in one pass, and every other
        distinct matrix once: a factored one on its factors
        (`_sound_factored`), the k x k arrays, and any factored one that fails
        there expanded, as one stack.  Python visits the edges only to tell a
        table row from another matrix, and to name each edge that uses a
        failing one."""
        k, table = self.k, self._table
        mats = {
            id(m): m
            for c, m in self.matrix.items()
            if c in seen and not (type(m) is np.ndarray and m.base is table)
        }
        sound = _sound_factored(mats, k)
        if sound:
            mats = {i: m for i, m in mats.items() if i not in sound}
        dense = list(map(linalg.dense, mats.values()))
        square = np.array([m.shape == (k, k) for m in dense], dtype=bool)
        # the table's rows, then the other k x k matrices
        stacks = table, np.array(list(compress(dense, square))).reshape(-1, k, k)
        row_bad = np.concatenate([~(np.abs(a.sum(axis=2) - 1.0) <= ROW_SUM_TOL) for a in stacks])
        range_bad = np.concatenate(
            [~((a >= 0) & (a <= 1.0 + 1e-12)).all(axis=(1, 2)) for a in stacks]
        )
        bad = row_bad.any(axis=1) | range_bad
        at = len(table) + np.cumsum(square) - 1  # row of each other square matrix
        flagged = ~square
        flagged[square] = bad[len(table) :]
        failing = dict(zip(compress(mats, flagged), np.flatnonzero(flagged)))
        out = []
        for child, m in self.matrix.items() if failing or bad.any() else ():
            if child not in seen:
                continue
            if type(m) is np.ndarray and m.base is table:
                j = _row_of(m, table)
                if not bad[j]:
                    continue
            else:
                i = failing.get(id(m))
                if i is None:
                    continue
                m, j = dense[i], at[i]
                if not square[i]:
                    out.append(f"edge matrix into {child} has shape {m.shape}")
                    continue
            if not np.isfinite(m).all():
                out.append(f"edge matrix into {child} has non-finite entries")
            for row in np.flatnonzero(row_bad[j]):
                out.append(f"edge matrix into {child}: row {row} sums to {m[row].sum():.6g}")
            if range_bad[j]:
                out.append(f"edge matrix into {child} has entries outside [0,1]")
        return out


def _row_of(view: np.ndarray, table: np.ndarray) -> int:
    """The row of `table` that `view` is."""
    offset = view.__array_interface__["data"][0] - table.__array_interface__["data"][0]
    return offset // table.strides[0]


def _sound_factored(mats: dict, k: int) -> set[int]:
    """Ids of the k x k factored matrices in `mats` that pass `validate`
    without a K x K product: both factors nonnegative (so the product is), and
    every row sum, taken as left . (right . 1), within ROW_SUM_TOL of 1 and at
    most 1 + 1e-12 (so no entry of the product is above it).  The matrices
    of one form are checked as one `linalg.row_operands` operand, so a factor
    they all share is checked once."""
    groups: dict[int, list[int]] = {}
    for i, m in mats.items():
        if isinstance(m, FactoredMatrix) and m.shape == (k, k):
            groups.setdefault(linalg.form(m), []).append(i)
    sound = set()
    for ids in groups.values():
        m, = linalg.row_operands([mats[i] for i in ids])
        sums = np.matmul(m.left, m.right.sum(axis=-1)[..., None])[..., 0]
        ok = (
            (m.left >= 0).all(axis=(-2, -1))
            & (m.right >= 0).all(axis=(-2, -1))
            & (np.abs(sums - 1.0) <= ROW_SUM_TOL).all(axis=-1)
            & (sums <= 1.0 + 1e-12).all(axis=-1)
        )
        sound.update(compress(ids, np.broadcast_to(ok, len(ids))))
    return sound


class Levels:
    """Breadth-first numbering of a binary complete tree, and the two-pass
    sweep's schedule compiled from it.

    order[i] is the node at position i and pos its inverse.  `inner` holds
    the positions of the internal nodes in order; the children of inner[j]
    sit at 2j + 1 (left) and 2j + 2 (right), so the parent of position c is
    inner[(c - 1) // 2] and its sibling is c + 1 (c odd) or c - 1.

    The schedule lists the depths below the root bottom-up in `steps`, with
    positions and edge matrices resolved here, once per tree:
    * a `Stacked` depth: at least BATCH_MIN_WIDTH nodes whose edge matrices
      are of one `linalg.form`, swept as one `linalg.apply_rows` product per
      direction;
    * a run: the internal nodes of consecutive other depths, as a list of
      (position, left child, parent, sibling, edge matrix) in position
      order, swept one node at a time.
    The leaves of those other depths stay off the runs, since their messages
    need only evidence and no node needs their pi: `groups` holds, for each
    edge matrix object that several of them use, (matrix, positions,
    parents, siblings) with int arrays for those leaves, and for the
    matrices that one of them uses alone, one such group per form whose
    matrix is their `linalg.row_operands` stack.  Each group is swept as one
    product per direction too.  `linalg.apply_rows` is bitwise `apply` row
    by row, so the whole sweep is bitwise the two-pass recursion node by
    node.
    """

    def __init__(self, tree: CausalTree):
        order = [tree.root]
        inner: list[int] = []
        depths = []  # (start, stop, first, last): inner[first:last] at the depth
        start = 0
        while start < len(order):
            stop = len(order)
            nodes = order[start:stop]
            internal = list(map(tree.kids.__contains__, nodes))
            order += chain.from_iterable(map(tree.kids.__getitem__, compress(nodes, internal)))
            first = len(inner)
            inner += compress(range(start, stop), internal)
            depths.append((start, stop, first, len(inner)))
            start = stop
        self.order = order
        self.pos = dict(zip(order, range(len(order))))
        self.inner = np.array(inner, dtype=np.intp)

        self.steps: list = []
        run = None
        groups: dict[int, tuple] = {}  # id(m) -> (m, positions, parents, siblings)
        for start, stop, first, last in depths[1:]:
            mats = list(map(tree.matrix.__getitem__, order[start:stop]))
            if len(mats) >= BATCH_MIN_WIDTH and len(set(map(linalg.form, mats))) == 1:
                stack, = linalg.row_operands(mats)
                up = self.inner[(start - 1) // 2 : first]
                self.steps.append(Stacked(start, stop, stack, self.inner[first:last], up))
                run = None
                continue
            if run is None:
                run = []
                self.steps.append(run)
            j = first  # rank of the next internal node
            for i, m in zip(range(start, stop), mats):
                p, s = inner[(i - 1) // 2], i + 1 if i % 2 else i - 1
                if j < last and inner[j] == i:
                    run.append((i, 2 * j + 1, p, s, m))
                    j += 1
                else:
                    _, at, up, sib = groups.setdefault(id(m), (m, [], [], []))
                    at.append(i)
                    up.append(p)
                    sib.append(s)
        self.steps.reverse()
        self.groups = []
        lone: dict[int, list] = {}  # form -> the groups of one leaf
        for m, *cols in groups.values():
            if len(cols[0]) == 1:
                lone.setdefault(linalg.form(m), []).append((m, *cols))
            else:
                self.groups.append((m, *(np.array(col, dtype=np.intp) for col in cols)))
        for same in lone.values():
            mats, *cols = zip(*same)
            cols = (np.array(col, dtype=np.intp).ravel() for col in cols)
            self.groups.append((*linalg.row_operands(mats), *cols))


class Stacked:
    """A depth of the sweep schedule swept as stacked products: its nodes sit
    at positions start:stop with edge matrices `stack`, their one
    `linalg.row_operands` operand (the one matrix they all are, or their
    stack); its internal nodes at `inner`, whose children start at `stop`;
    and the parents of its node pairs at `up`."""

    __slots__ = ("start", "stop", "stack", "inner", "up")

    def __init__(self, start: int, stop: int, stack, inner: np.ndarray, up: np.ndarray):
        self.start, self.stop, self.stack, self.inner, self.up = start, stop, stack, inner, up


def binarize(raw: RawTree) -> CausalTree:
    """Normalize an arbitrary-fanout raw tree to a binary complete CausalTree.

    Over-full nodes hang their surplus children off a right spine of
    identity-linked copies; single-child nodes get an all-ones dummy leaf.
    Node count at most doubles.  Nothing the caller holds is kept: the
    distinct k x k raw matrix objects become the rows of one edge table, in
    link order, by one concatenation with no per-edge copy, and the edges
    that used one raw object hold one row view of it; another dense shape is
    copied once, and each distinct factor value (shape and bytes) of the
    factored ones once, so equal selection factors built edge by edge share
    one array; copy and dummy edges share one identity.  Nothing writes an
    edge matrix or factor in place, so sharing cannot change a value.
    Every pair is written by `CausalTree.link`; a raw child without a matrix
    is a `StructureError` naming it.  The raw tree is linked as given and
    checked once, by `CausalTree.validate` (`StructureError`).
    """
    if raw.root is None or raw.prior is None:
        raise StructureError("raw tree has no root/prior")
    t = CausalTree(raw.k)
    t.names = dict(raw.names)
    t.root = raw.root
    t.prior = raw.prior.copy()
    t.dummies = set(raw.dummies)
    t.alias = dict(raw.alias)
    factors: dict = {}  # shape -> {bytes: the one copy of that factor value}

    def factor(a: np.ndarray) -> np.ndarray:
        same, key = factors.setdefault(a.shape, {}), a.tobytes()
        if key not in same:
            same[key] = a.copy()
        return same[key]

    children = list(chain.from_iterable(raw.children.values()))  # link order
    try:
        raw_mats = list(map(raw.matrix.__getitem__, children))
    except KeyError as exc:
        raise StructureError(f"edge into {exc.args[0]} has no matrix") from None
    # each distinct raw matrix once, by first use in link order (raw keeps
    # each id alive): a factored one by its factor values, an odd-shaped one
    # as a copy, and the k x k ones as the rows of one table, so that `kids`
    # and `matrix` list them in the order they sit in memory
    distinct = dict(zip(map(id, raw_mats), raw_mats))
    copies, square = {}, {}
    for i, m in distinct.items():
        if isinstance(m, FactoredMatrix):
            copies[i] = FactoredMatrix.of(factor(m.left), factor(m.right))
        elif m.shape == (raw.k, raw.k):
            square[i] = m
        else:
            copies[i] = m.copy()
    t._table = np.empty((len(square), raw.k, raw.k))
    if square:
        np.concatenate(list(square.values()), out=t._table.reshape(-1, raw.k))
    copies.update(zip(square, t._table))  # row views
    mats = dict(zip(children, map(copies.__getitem__, map(id, raw_mats))))
    t._store({leaf: linalg.as_vector(v).copy() for leaf, v in raw.evidence.items()})

    ident = None  # made on first use: an unused k x k identity can be large
    for n in list(raw.names):
        cs = raw.children.get(n, [])
        if not cs:
            continue
        if len(cs) != 2 and ident is None:
            ident = np.eye(raw.k)
        if len(cs) == 1:
            d = t.fresh_id()
            t.add_node(d, f"{raw.names[n]}_pad")
            t.dummies.add(d)
            t.link(n, cs[0], d, mats[cs[0]], ident)
        else:
            # right spine of identity-linked copies of n, empty for two children
            holder = n
            for c in cs[:-2]:
                cp = t.fresh_id()
                t.add_node(cp, f"{raw.names[n]}_cp")
                t.alias[cp] = n
                t.link(holder, c, cp, mats[c], ident)
                holder = cp
            t.link(holder, cs[-2], cs[-1], mats[cs[-2]], mats[cs[-1]])

    violations = t.validate()
    if violations:
        raise StructureError("; ".join(violations))
    return t
