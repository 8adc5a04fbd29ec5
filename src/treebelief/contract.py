"""Preprocessing: the contracted-tree sequence T_0..T_top.

Each contraction pass rakes alternating non-extreme leaves (a rake removes a
leaf together with its parent, folding their effect into a freshly derived
edge matrix of the grandparent).  Every derived matrix keeps a Recipe -- its
defining equation in terms of lower-level matrices and one leaf likelihood --
and each matrix or leaf likelihood feeds at most one Recipe at the next level,
so an evidence update touches a single chain of recipes.  Leaf likelihoods are
not copied: recipes read them from the tree (`CausalTree.leaf_lambda`).
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .errors import StructureError
from .linalg import OpCounter
from .tree import CausalTree


class MatCell:
    """Stable holder for one edge matrix of the hierarchy.

    Carried-over levels share the cell object; recomputation replaces the
    whole value, never mutates it in place.
    """

    __slots__ = ("value", "key")

    def __init__(self, value, key):
        self.value = value
        self.key = key  # (node, side, birth level), diagnostic only

    def __repr__(self):
        return f"MatCell{self.key}"


class Recipe:
    """Defining equation of a derived matrix:

        target = m_u . Diag(m_diag . lambda(leaf)) . m_pass

    with fixed left-to-right operand order so recomputation is bitwise
    reproducible against a full rebuild.
    """

    __slots__ = ("level", "target", "m_u", "m_diag", "m_pass", "leaf")

    def __init__(self, level, target, m_u, m_diag, m_pass, leaf):
        self.level = level  # rake happened between level and level+1
        self.target = target
        self.m_u = m_u
        self.m_diag = m_diag
        self.m_pass = m_pass
        self.leaf = leaf

    def recompute(self, tree: CausalTree, counter: OpCounter | None = None) -> None:
        self.target.value = linalg.rake_compose(
            self.m_u.value, self.m_diag.value, self.m_pass.value,
            tree.leaf_lambda(self.leaf), counter,
        )

    def inputs(self):
        return (self.m_u, self.m_diag, self.m_pass)


class LevelTree:
    """One contracted tree T_i: structure links plus A/B matrix cells.

    The node set is derived from the links (the root plus every node with a
    parent), not stored.
    """

    def __init__(self, level: int, root: int):
        self.level = level
        self.root = root
        self.left: dict[int, int] = {}
        self.right: dict[int, int] = {}
        self.parent: dict[int, int] = {}
        self.cell: dict[tuple[int, str], MatCell] = {}

    def copy_next(self) -> "LevelTree":
        nxt = LevelTree(self.level + 1, self.root)
        nxt.left = dict(self.left)
        nxt.right = dict(self.right)
        nxt.parent = dict(self.parent)
        nxt.cell = dict(self.cell)
        return nxt

    @property
    def contains(self) -> set[int]:
        return {self.root, *self.parent}

    def is_leaf(self, x: int) -> bool:
        return x not in self.left

    def children_of(self, x: int) -> tuple[int, int]:
        return self.left[x], self.right[x]

    def side_of(self, parent: int, child: int) -> str:
        return "A" if self.left[parent] == child else "B"

    def leaves_in_order(self) -> list[int]:
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


class ContractionHierarchy:
    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.levels: list[LevelTree] = []
        self.recipes: list[Recipe] = []
        self.recipe_by_leaf: dict[int, Recipe] = {}
        self.successor: dict[MatCell, Recipe] = {}
        self.ind: dict[int, int] = {}
        self.raked_with: dict[int, int] = {}  # removed parent -> its raked leaf
        self.rakes_per_pass: list[int] = []

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    def level_lambdas(self, i: int, counter: OpCounter | None = None):
        """Run the exact bottom-up recursion inside T_i (consistency audits)."""
        lt = self.levels[i]
        lam: dict[int, np.ndarray] = {}
        order = []
        stack = [(lt.root, False)]
        while stack:
            x, expanded = stack.pop()
            if lt.is_leaf(x) or expanded:
                order.append(x)
            else:
                stack.append((x, True))
                stack.append((lt.right[x], False))
                stack.append((lt.left[x], False))
        for x in order:
            if lt.is_leaf(x):
                lam[x] = self.tree.leaf_lambda(x)
            else:
                l, r = lt.children_of(x)
                lam[x] = linalg.rescale_if_tiny(
                    linalg.apply(lt.cell[(x, "A")].value, lam[l])
                    * linalg.apply(lt.cell[(x, "B")].value, lam[r])
                )
        return lam

    def dump_lines(self) -> list[str]:
        """Diagnostic text: per-level node sets and the recipe graph."""
        out = []
        for lt in self.levels:
            nodes = " ".join(str(n) for n in sorted(lt.contains))
            out.append(f"level {lt.level} nodes {nodes}")
        for r in self.recipes:
            ins = " ".join(f"{c.key[0]}.{c.key[1]}@{c.key[2]}" for c in r.inputs())
            t = r.target.key
            out.append(
                f"level {r.level + 1} {t[0]}.{t[1]} <- {ins} lambda({r.leaf})"
            )
        return out


def rake(
    hier: ContractionHierarchy,
    cur: LevelTree,
    nxt: LevelTree,
    e: int,
    counter: OpCounter | None = None,
) -> Recipe:
    """Apply one rake of leaf e (read from T_i `cur`, applied to `nxt`)."""
    if not cur.is_leaf(e):
        raise StructureError(f"rake target {e} is not a leaf of T_{cur.level}")
    x = cur.parent.get(e)
    if x is None or x == cur.root:
        raise StructureError(f"leaf {e} has no rakeable parent")
    u = cur.parent[x]
    xl, xr = cur.children_of(x)
    z = xr if e == xl else xl
    leaf_side = "A" if e == xl else "B"
    side_x = cur.side_of(u, x)

    m_u = cur.cell[(u, side_x)]
    m_diag = cur.cell[(x, leaf_side)]
    m_pass = cur.cell[(x, "B" if leaf_side == "A" else "A")]

    target = MatCell(None, (u, side_x, nxt.level))
    recipe = Recipe(cur.level, target, m_u, m_diag, m_pass, e)
    recipe.recompute(hier.tree, counter)

    # single-successor audit (by construction each input dies after use)
    for cell in recipe.inputs():
        if cell in hier.successor:
            raise StructureError(f"matrix {cell.key} consumed twice")
        hier.successor[cell] = recipe
    if e in hier.recipe_by_leaf:
        raise StructureError(f"leaf {e} raked twice")
    hier.recipe_by_leaf[e] = recipe
    hier.recipes.append(recipe)
    hier.raked_with[x] = e
    hier.ind[e] = hier.ind[x] = cur.level

    # splice the next-level tree
    for d in (e, x):
        nxt.parent.pop(d, None)
        nxt.left.pop(d, None)
        nxt.right.pop(d, None)
        nxt.cell.pop((d, "A"), None)
        nxt.cell.pop((d, "B"), None)
    if side_x == "A":
        nxt.left[u] = z
    else:
        nxt.right[u] = z
    nxt.parent[z] = u
    nxt.cell[(u, side_x)] = target
    return recipe


def contract_pass(
    hier: ContractionHierarchy, cur: LevelTree, counter: OpCounter | None = None
) -> LevelTree | None:
    """One CONTRACT pass: rake alternating eligible non-extreme leaves.

    Parity is decided once on the eligible list before any raking; a candidate
    is skipped (without shifting parity) when an earlier rake this pass
    already removed its parent or refreshed one of its input matrices.
    """
    leaves = cur.leaves_in_order()
    if len(leaves) < 3:
        return None
    eligible = [e for e in leaves[1:-1] if cur.parent[e] != cur.root]
    if not eligible:
        return None

    nxt = cur.copy_next()
    removed: set[int] = set()
    fresh_targets: set[int] = set()
    rakes = 0
    for idx, e in enumerate(eligible):
        if idx % 2 != 0:
            continue
        x = cur.parent[e]
        u = cur.parent[x]
        if x in removed or x in fresh_targets or u in removed:
            continue
        rake(hier, cur, nxt, e, counter)
        removed.add(x)
        removed.add(e)
        fresh_targets.add(u)
        rakes += 1
    if rakes == 0:
        return None
    hier.rakes_per_pass.append(rakes)
    return nxt


def build_hierarchy(
    tree: CausalTree, counter: OpCounter | None = None
) -> ContractionHierarchy:
    """Repeat CONTRACT until the three-node top tree remains.

    The tree must already be valid (`binarize` validates it); leaf
    likelihoods are read from its evidence map.
    """
    hier = ContractionHierarchy(tree)

    t0 = LevelTree(0, tree.root)
    t0.left = dict(tree.left)
    t0.right = dict(tree.right)
    t0.parent = dict(tree.parent)
    for x in tree.left:
        t0.cell[(x, "A")] = MatCell(tree.matrix[tree.left[x]], (x, "A", 0))
        t0.cell[(x, "B")] = MatCell(tree.matrix[tree.right[x]], (x, "B", 0))
    hier.levels.append(t0)

    cur = t0
    while True:
        nxt = contract_pass(hier, cur, counter)
        if nxt is None:
            break
        hier.levels.append(nxt)
        cur = nxt
    remaining = cur.contains
    for node in remaining:
        hier.ind[node] = cur.level

    n_leaves = len(t0.leaves_in_order())
    if n_leaves >= 3 and len(remaining) != 3:
        raise StructureError(
            f"contraction stalled with {len(remaining)} nodes remaining"
        )
    bound = 4 * math.ceil(math.log2(max(2, n_leaves))) + 2
    if len(hier.levels) > bound:
        raise StructureError(
            f"level count {len(hier.levels)} exceeds bound {bound}"
        )
    return hier
