"""The logarithmic-time engine over a contraction hierarchy.

One write path and one read path:

* `update_many(items)` posts every likelihood of a batch, then recomputes the
  union of their recipe chains, each recipe once, in level order (at most one
  derived matrix per level per leaf).  `update_evidence` is the one-item
  batch.
* `bel_many(nodes)` resolves every id, then answers each node from one triple
  (pi(x), lambda(left), lambda(right)) found by walking up the hierarchy,
  never recursing twice per level: O(log N) products per node.  The nodes of
  one batch share a memo keyed by `(x, level)`, so a triple that several
  walks pass through is computed once; the memo lives for that batch only, as
  the next write changes the triples.  `bel_query(x)` is the one-node case
  and takes the same step without a memo.

All beliefs at once are `exact.propagate_all`, the O(N) two-pass sweep.

Each product is one of the two `LevelTree` kernels: lambda up through a node
(`lambda_up`) or pi down one edge (`pi_down`).  The engine does not keep
per-node lambda/pi current -- only the derived matrices.  Leaf likelihoods
stay in the tree's evidence map, so once an engine is built, evidence changes
go through `update_many`/`update_evidence`.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np

from . import linalg
from .contract import ContractionHierarchy, build_hierarchy
from .errors import UsageError
from .linalg import OpCounter
from .tree import CausalTree


class DynamicEngine:
    """The logarithmic engine over a tree that came from `binarize` or passes
    `CausalTree.validate()`; nothing here checks the tree again."""

    def __init__(self, tree: CausalTree, counter: OpCounter | None = None):
        self.tree = tree
        self.counter = counter if counter is not None else OpCounter()
        self.build_counter = OpCounter()
        self.hier: ContractionHierarchy = build_hierarchy(
            tree, counter=self.build_counter
        )
        self.prior = tree.prior
        self.last_recipe_recomputes = 0

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
        items one at a time.  A bad item raises before any recipe is
        recomputed and puts back the evidence stored before it.
        """
        tree, hier = self.tree, self.hier
        items = list(items)
        saved = [(leaf, tree.evidence.get(leaf)) for leaf, _ in items]
        try:
            for leaf, likelihood in items:
                tree.set_evidence(leaf, likelihood)  # validates leaf/dummy/dims/sign
        except BaseException:  # put the evidence back, then re-raise
            for leaf, old in saved:
                if old is None:
                    tree.evidence.pop(leaf, None)
                else:
                    tree.evidence[leaf] = old
            raise
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

    def _lambda_below(self, lt, nxt, c: int, lam_next: np.ndarray) -> np.ndarray:
        """lambda of c in T_i, given lam_next for the node in c's place in
        T_{i+1}: c itself if it survives, else c's surviving child."""
        if c in nxt.parent:
            return lam_next
        l, r = lt.left[c], lt.right[c]
        lam_l, lam_r = self._raked_or_survivor(nxt, l, r, lam_next)
        return lt.lambda_up(l, r, lam_l, lam_r, self.counter)

    def _raked_or_survivor(self, nxt, l: int, r: int, lam_survivor: np.ndarray):
        """(lambda(l), lambda(r)) for the T_i children of a node raked away
        after level i: the raked leaf is the child missing from T_{i+1}; the
        survivor, re-parented there, has lambda lam_survivor."""
        if l in nxt.parent:
            return lam_survivor, self.tree.leaf_lambda(r)
        return self.tree.leaf_lambda(l), lam_survivor

    def calc_pi_lambda(self, x: int, i: int, memo: dict | None = None):
        """Triple (pi(x), lambda(left child in T_i), lambda(right child in T_i)).

        Case 1: top three-node tree -- prior plus two leaf likelihoods.
        Case 2: x raked away after level i -- recurse on its parent.
        Case 3: x survives to level i+1 -- recurse on x itself.

        With a `memo`, a triple already in it is returned as it is and a new
        one is stored under `(x, i)`, for this call and its recursion.
        """
        if memo is not None and (x, i) in memo:
            return memo[x, i]
        levels = self.hier.levels
        lt = levels[i]
        if x not in lt.left:
            raise UsageError(f"node {x} is not an internal node of T_{i}")
        l, r = lt.left[x], lt.right[x]

        if i + 1 == len(levels):  # the top tree
            triple = self.prior, self.tree.leaf_lambda(l), self.tree.leaf_lambda(r)
        else:
            nxt = levels[i + 1]
            if x in nxt.left:  # a rake never turns an internal node into a leaf
                p, lam_l, lam_r = self.calc_pi_lambda(x, i + 1, memo)
                triple = (
                    p,
                    self._lambda_below(lt, nxt, l, lam_l),
                    self._lambda_below(lt, nxt, r, lam_r),
                )
            else:
                # x was raked away with one child; the other, z, took x's
                # place under u, so u's triple carries lambda(z) on x's side
                u = lt.parent[x]
                pu, lam_ul, lam_ur = self.calc_pi_lambda(u, i + 1, memo)
                if lt.left[u] == x:
                    v, lam_z, lam_v = lt.right[u], lam_ul, lam_ur
                else:
                    v, lam_z, lam_v = lt.left[u], lam_ur, lam_ul
                lam_v = self._lambda_below(lt, nxt, v, lam_v)
                pi_x = linalg.rescale_if_tiny(lt.pi_down(x, v, pu, lam_v, self.counter))
                triple = (pi_x, *self._raked_or_survivor(nxt, l, r, lam_z))
        if memo is not None:
            memo[x, i] = triple
        return triple

    # ------------------------------------------------------------------

    def bel_query(self, x: int) -> np.ndarray:
        """Posterior marginal of x under the current evidence: `bel_many` of
        one node, without building a memo."""
        return self._belief(self.tree.resolve(x), None)

    def bel_many(self, nodes) -> list[np.ndarray]:
        """Posterior marginal of each of `nodes`, in order (a repeated id is
        answered again).  Every id is resolved before any product, so an
        unknown one raises UsageError with `counter` untouched.  The walks
        share one memo, so each `(x, level)` triple is computed once per
        batch; each belief is bitwise equal to `bel_query`'s."""
        xs = [self.tree.resolve(x) for x in nodes]
        memo: dict = {}
        return [self._belief(x, memo) for x in xs]

    def _belief(self, x: int, memo: dict | None) -> np.ndarray:
        """Posterior marginal of the resolved node x."""
        tree = self.tree
        if tree.is_leaf(x):
            if x == tree.root:  # single-node tree
                return linalg.normalize(self.prior * tree.leaf_lambda(x))
            lt0 = self.hier.levels[0]
            p = tree.parent[x]
            pp, lam_l, lam_r = self.calc_pi_lambda(p, 0, memo)
            if lt0.left[p] == x:
                sib, lam_sib = lt0.right[p], lam_r
            else:
                sib, lam_sib = lt0.left[p], lam_l
            pi_x = lt0.pi_down(x, sib, pp, lam_sib, self.counter)
            return linalg.normalize(tree.leaf_lambda(x) * pi_x)
        i = self.hier.ind[x]
        lt = self.hier.levels[i]
        p, lam_l, lam_r = self.calc_pi_lambda(x, i, memo)
        lam_x = lt.lambda_up(lt.left[x], lt.right[x], lam_l, lam_r, self.counter)
        return linalg.normalize(lam_x * p)
