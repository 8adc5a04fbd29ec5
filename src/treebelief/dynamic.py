"""The logarithmic-time engine over a contraction hierarchy.

One write path and one read path:

* `update_many(items)` posts every likelihood of a batch, then recomputes the
  union of their recipe chains, each recipe once, in level order (at most one
  derived matrix per level per leaf).  `update_evidence` is the one-item
  batch.
* `bel_many(nodes)` resolves every id, then answers each node from one triple
  (pi(x), lambda(left), lambda(right)) taken down its walk up the hierarchy:
  O(log N) products per node.  Each (x, level) of a walk has one `Frame`,
  built on first read, that links to the frame above and holds its step's
  cells, so a query follows the links up and computes the triples top down
  in one loop.  Reads share the engine's `memo`, keyed by frame, so a triple
  that several walks pass through is computed once between two writes: a
  triple depends only on cells and leaf likelihoods, which only
  `update_many` changes, and it clears the memo.  `bel_query(x)` is the
  one-node batch.

All beliefs at once are `exact.propagate_all`, the O(N) two-pass sweep.

Each product is lambda up through a node (its children's edge matrices
applied to their lambdas, multiplied) or pi down one edge.  The engine does
not keep per-node lambda/pi current -- only the derived matrices.  Leaf
likelihoods are the tree's alone (`CausalTree.set_evidence` stores each with
its scale-guarded form, which `leaf_lambda` returns), so once an engine is
built, evidence changes go through `update_many`/`update_evidence`.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from . import linalg
from .contract import ContractionHierarchy, build_hierarchy
from .errors import UsageError
from .linalg import OpCounter
from .tree import CausalTree


class Frame:
    """One step of a query walk, at (x, level i): how x's triple in T_i follows
    from the triple of `up`, the frame of (x, i+1) when x survives to T_{i+1},
    of (u, i+1) for x's parent u when x is raked away, None at the top.

    `below` has, per lambda of the triple above, None if it passes down as it
    is, else (raked leaf's cell, survivor's cell, raked leaf) for a child of
    T_i raked away after level i.  A raked x keeps `cells` (its own and its
    sibling's), `x_left`, its raked leaf `e` and `e_left`; the top keeps its
    two leaves in `e`.  Cells, not values: `Recipe.recompute` replaces those.
    An x that keeps both children shares the frame of (x, i+1).
    """

    __slots__ = ("up", "below", "cells", "x_left", "e", "e_left")


class DynamicEngine:
    """The logarithmic engine over a tree that came from `binarize` or passes
    `CausalTree.validate()`; nothing here checks the tree again."""

    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.counter = OpCounter()
        self.build_counter = OpCounter()
        self.hier: ContractionHierarchy = build_hierarchy(tree, self.build_counter)
        self.prior = tree.prior
        self.last_recipe_recomputes = 0
        # frames[i][x] is the Frame of (x, i), built on its first read
        self.frames: list[dict[int, Frame]] = [{} for _ in self.hier.levels]
        # memo[f] is frame f's triple, kept from its first read to the next write
        self.memo: dict[Frame, tuple] = {}

    # ------------------------------------------------------------------

    def update_evidence(self, leaf: int, likelihood) -> None:
        """Store the new leaf likelihood and recompute its recipe chain."""
        self.update_many([(leaf, likelihood)])

    def update_many(self, items) -> None:
        """Store every (leaf, likelihood) of `items`, in order (a repeated
        leaf keeps its last likelihood), then recompute each recipe on their
        chains once, in level order.

        Each recipe is a pure function of its inputs and the level order is a
        topological order, so the cells end bitwise equal to posting the
        items one at a time.  `CausalTree.set_evidence` checks every item
        before it stores any, so a bad one raises with the evidence, the
        cells and `memo` as they were; a stored batch clears the memo.
        """
        tree, hier = self.tree, self.hier
        items = list(items)
        tree.set_evidence(items)
        self.memo.clear()
        chain, seen = [], set()
        for leaf, _ in items:
            recipe = hier.recipe_by_leaf.get(leaf)
            # past the first recipe already collected, the chains coincide
            while recipe is not None and recipe not in seen:
                seen.add(recipe)
                chain.append(recipe)
                recipe = hier.consumer(recipe.target)
        chain.sort(key=attrgetter("level"))
        for recipe in chain:
            recipe.recompute(tree, self.counter)
        self.last_recipe_recomputes = len(chain)

    # ------------------------------------------------------------------

    def _frame(self, x: int, i: int) -> Frame:
        """The frame of (x, i), built on first use with those above it."""
        levels = self.hier.levels
        if not 0 <= i < len(levels) or x not in levels[i].kids:
            raise UsageError(f"node {x} is not an internal node of T_{i}")
        if x in self.frames[i]:
            return self.frames[i][x]
        lt, f = levels[i], Frame()
        l, r = lt.kids[x]
        f.up = f.below = f.cells = None
        if i + 1 == len(levels):  # the top tree
            f.e = l, r
        else:
            nxt = levels[i + 1]

            def below(c):  # None if c survives to T_{i+1}
                if c not in nxt.cell:
                    cl, cr = lt.kids[c]
                    e, s = (cr, cl) if cl in nxt.cell else (cl, cr)
                    return lt.cell[e], lt.cell[s], e

            if x in nxt.kids:  # a rake never turns an internal node into a leaf
                f.below, up = (below(l), below(r)), x
            else:  # raked away with leaf e; its other child z took its place under u
                up = lt.cell[x].parent
                ul, ur = lt.kids[up]
                f.x_left = ul == x
                v = ur if f.x_left else ul
                f.below = (None, below(v)) if f.x_left else (below(v), None)
                f.cells, f.e_left = (lt.cell[x], lt.cell[v]), l not in nxt.cell
                f.e = l if f.e_left else r
            f.up = self._frame(up, i + 1)  # recurses once per level not yet built
            if f.cells is None and f.below == (None, None):
                f = f.up
        self.frames[i][x] = f
        return f

    def calc_pi_lambda(self, x: int, i: int, memo: dict | None = None):
        """Triple (pi(x), lambda(left child in T_i), lambda(right child in T_i)).

        No recursion: follow the `up` links from (x, i)'s frame to the top, or
        to the first frame in `memo`, then compute the triples top down, each
        from the one above.  `memo` (a fresh dict if None) keeps each triple
        under its frame."""
        memo = {} if memo is None else memo
        f, path = self._frame(x, i), []
        while f is not None and f not in memo:
            path.append(f)
            f = f.up
        leaf_lambda, counter = self.tree.leaf_lambda, self.counter
        if f is None:  # the top tree: the prior and its two leaf likelihoods
            f = path.pop()
            triple = memo[f] = self.prior, leaf_lambda(f.e[0]), leaf_lambda(f.e[1])
        else:
            triple = memo[f]
        apply, rescale = linalg.apply, linalg.rescale_if_tiny
        for f in reversed(path):
            pi, a, b = triple
            below_a, below_b = f.below  # products commute bitwise: factor order is free
            if below_a is not None:
                cell_e, cell_s, e = below_a
                a = rescale(
                    apply(cell_e.value, leaf_lambda(e), counter) * apply(cell_s.value, a, counter)
                )
            if below_b is not None:
                cell_e, cell_s, e = below_b
                b = rescale(
                    apply(cell_e.value, leaf_lambda(e), counter) * apply(cell_s.value, b, counter)
                )
            if f.cells is None:  # x survives: pi and both lambdas pass down
                triple = pi, a, b
            else:  # u's triple carries lambda(z) on x's side
                z, lam_v = (a, b) if f.x_left else (b, a)
                cell_x, cell_v = f.cells
                to_x = pi * apply(cell_v.value, lam_v, counter)
                pi = rescale(linalg.apply_transpose(cell_x.value, to_x, counter))
                lam_e = leaf_lambda(f.e)
                triple = (pi, lam_e, z) if f.e_left else (pi, z, lam_e)
            memo[f] = triple
        return triple

    # ------------------------------------------------------------------

    def bel_query(self, x: int) -> np.ndarray:
        """Posterior marginal of x under the current evidence: `bel_many` of
        one node."""
        return self._belief(self.tree.resolve(x))

    def bel_many(self, nodes) -> list[np.ndarray]:
        """Posterior marginal of each of `nodes`, in order (a repeated id is
        answered again).  Every id is resolved before any product, so an
        unknown one raises UsageError with `counter` untouched.  A walk
        computes only its triples not yet in `memo`: O(log N) products when
        cold, fewer after other reads since the last write.  However reads
        between two writes are split, they cost the same and give bitwise
        the same beliefs."""
        xs = [self.tree.resolve(x) for x in nodes]
        return [self._belief(x) for x in xs]

    def _belief(self, x: int) -> np.ndarray:
        """Posterior marginal of the resolved node x: pi down its edge from
        its parent's triple (a leaf), or lambda up from its own (else)."""
        tree, counter, apply = self.tree, self.counter, linalg.apply
        if tree.is_leaf(x):
            if x == tree.root:  # single-node tree
                return linalg.normalize(self.prior * tree.leaf_lambda(x))
            cell = self.hier.levels[0].cell  # T_0's kids are the tree's
            p = cell[x].parent
            pp, lam_l, lam_r = self.calc_pi_lambda(p, 0, self.memo)
            l, r = tree.kids[p]
            sib, lam_sib = (r, lam_r) if l == x else (l, lam_l)
            to_x = pp * apply(cell[sib].value, lam_sib, counter)
            pi_x = linalg.apply_transpose(cell[x].value, to_x, counter)
            return linalg.normalize(tree.leaf_lambda(x) * pi_x)
        i = self.hier.ind[x]
        cell, (l, r) = self.hier.levels[i].cell, self.hier.levels[i].kids[x]
        p, lam_l, lam_r = self.calc_pi_lambda(x, i, self.memo)
        lam_x = apply(cell[l].value, lam_l, counter) * apply(cell[r].value, lam_r, counter)
        return linalg.normalize(linalg.rescale_if_tiny(lam_x) * p)
