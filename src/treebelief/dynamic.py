"""The logarithmic-time engine over a contraction hierarchy.

Evidence updates recompute one recipe chain (at most one derived matrix per
level); belief queries resolve a single triple (pi(x), lambda(left),
lambda(right)) by walking up the hierarchy, never recursing twice per level.
The engine does not keep per-node lambda/pi current -- only the derived
matrices.  Leaf likelihoods stay in the tree's evidence map, so once an engine
is built, evidence changes go through `update_evidence`.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .contract import ContractionHierarchy, build_hierarchy
from .errors import UsageError
from .linalg import OpCounter
from .tree import CausalTree


class DynamicEngine:
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
        tree = self.tree
        tree.set_evidence(leaf, likelihood)  # validates leaf/dummy/dims/sign
        self.last_recipe_recomputes = 0
        recipe = self.hier.recipe_by_leaf.get(leaf)
        while recipe is not None:
            recipe.recompute(tree, self.counter)
            self.last_recipe_recomputes += 1
            recipe = self.hier.successor.get(recipe.target)

    # ------------------------------------------------------------------

    def lambda_query(self, x: int) -> np.ndarray:
        """lambda(x) via the level-ind(x) equation; one recursive resolution
        per level, at most two matrix-vector products each."""
        x = self.tree.resolve(x)
        if x not in self.hier.ind:
            raise UsageError(f"unknown node {x}")
        return self._lambda(x)

    def _lambda(self, x: int) -> np.ndarray:
        if self.tree.is_leaf(x):
            return self.tree.leaf_lambda(x)
        lt = self.hier.levels[self.hier.ind[x]]
        y, z = lt.children_of(x)
        ly = self._lambda(y)
        lz = self._lambda(z)
        return linalg.rescale_if_tiny(
            linalg.apply(lt.cell[(x, "A")].value, ly, self.counter)
            * linalg.apply(lt.cell[(x, "B")].value, lz, self.counter)
        )

    # ------------------------------------------------------------------

    def _reconstruct_lambda(self, lt, z: int, lam_survivor: np.ndarray) -> np.ndarray:
        """lambda of an internal node z removed at level lt.level: one child is
        its raked leaf, the other's lambda is handed down from above."""
        e = self.hier.raked_with[z]
        zl, zr = lt.children_of(z)
        ll = self.tree.leaf_lambda(zl) if zl == e else lam_survivor
        rr = self.tree.leaf_lambda(zr) if zr == e else lam_survivor
        return linalg.rescale_if_tiny(
            linalg.apply(lt.cell[(z, "A")].value, ll, self.counter)
            * linalg.apply(lt.cell[(z, "B")].value, rr, self.counter)
        )

    def _child_lambda(self, lt, nxt, x: int, side: str, lam_next: np.ndarray):
        """lambda of x's level-i child on one side, given the lambda returned
        for x's level-(i+1) child on the same side."""
        c_i = lt.left[x] if side == "A" else lt.right[x]
        c_next = nxt.left[x] if side == "A" else nxt.right[x]
        if c_i == c_next:
            return lam_next
        return self._reconstruct_lambda(lt, c_i, lam_next)

    def calc_pi_lambda(self, x: int, i: int):
        """Triple (pi(x), lambda(left child in T_i), lambda(right child in T_i)).

        Case 1: top three-node tree -- prior plus two leaf likelihoods.
        Case 2: x raked away after level i -- recurse on its parent.
        Case 3: x survives to level i+1 -- recurse on x itself.
        """
        hier = self.hier
        lt = hier.levels[i]
        if x not in lt.left:
            raise UsageError(f"node {x} is not an internal node of T_{i}")

        if i == hier.top:
            l, r = lt.children_of(x)
            return self.prior, self.tree.leaf_lambda(l), self.tree.leaf_lambda(r)

        nxt = hier.levels[i + 1]
        if x in nxt.left:  # a rake never turns an internal node into a leaf
            p, lam_l, lam_r = self.calc_pi_lambda(x, i + 1)
            return (
                p,
                self._child_lambda(lt, nxt, x, "A", lam_l),
                self._child_lambda(lt, nxt, x, "B", lam_r),
            )

        # x was removed between levels i and i+1
        u = lt.parent[x]
        side_x = lt.side_of(u, x)
        side_v = "B" if side_x == "A" else "A"
        v = lt.right[u] if side_x == "A" else lt.left[u]
        pu, lam_ul, lam_ur = self.calc_pi_lambda(u, i + 1)
        lam_on_side_x = lam_ul if side_x == "A" else lam_ur
        lam_on_side_v = lam_ur if side_x == "A" else lam_ul
        lam_v = self._child_lambda(lt, nxt, u, side_v, lam_on_side_v)
        pi_x = linalg.rescale_if_tiny(
            linalg.apply_transpose(
                lt.cell[(u, side_x)].value,
                pu * linalg.apply(lt.cell[(u, side_v)].value, lam_v, self.counter),
                self.counter,
            )
        )
        # x's children in T_i: the raked leaf and the survivor z,
        # whose lambda is exactly the one returned for u's side_x child.
        e = hier.raked_with[x]
        xl, xr = lt.children_of(x)
        lam_l = self.tree.leaf_lambda(xl) if xl == e else lam_on_side_x
        lam_r = self.tree.leaf_lambda(xr) if xr == e else lam_on_side_x
        return pi_x, lam_l, lam_r

    # ------------------------------------------------------------------

    def bel_query(self, x: int) -> np.ndarray:
        """Posterior marginal of x under the current evidence."""
        tree = self.tree
        x = tree.resolve(x)
        if x not in tree.names:
            raise UsageError(f"unknown node {x}")
        if tree.is_leaf(x):
            if x == tree.root:  # single-node tree
                return linalg.normalize(self.prior * self.tree.leaf_lambda(x))
            lt0 = self.hier.levels[0]
            p = tree.parent[x]
            pp, lam_l, lam_r = self.calc_pi_lambda(p, 0)
            side_x = lt0.side_of(p, x)
            lam_sib = lam_r if side_x == "A" else lam_l
            side_sib = "B" if side_x == "A" else "A"
            pi_x = linalg.apply_transpose(
                lt0.cell[(p, side_x)].value,
                pp * linalg.apply(lt0.cell[(p, side_sib)].value, lam_sib, self.counter),
                self.counter,
            )
            return linalg.normalize(self.tree.leaf_lambda(x) * pi_x)
        i = self.hier.ind[x]
        lt = self.hier.levels[i]
        p, lam_l, lam_r = self.calc_pi_lambda(x, i)
        lam_x = linalg.rescale_if_tiny(
            linalg.apply(lt.cell[(x, "A")].value, lam_l, self.counter)
            * linalg.apply(lt.cell[(x, "B")].value, lam_r, self.counter)
        )
        return linalg.normalize(lam_x * p)
