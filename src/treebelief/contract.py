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

from . import linalg
from .errors import StructureError
from .linalg import OpCounter
from .tree import BinaryLinks, CausalTree


class MatCell:
    """Stable holder for one edge matrix of the hierarchy.

    Carried-over levels share the cell object; recomputation replaces the
    whole value, never mutates it in place.  `consumer` is the position in
    `ContractionHierarchy.recipes` of the recipe that reads the cell, if any
    (not the Recipe, which holds the cell: no reference cycles to collect).
    """

    __slots__ = ("value", "consumer")

    def __init__(self, value):
        self.value = value
        self.consumer: int | None = None


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


class LevelTree(BinaryLinks):
    """One contracted tree T_i: `kids` and `parent` links plus edge-matrix cells.

    `cell[c]` holds the matrix on the edge into c, so its keys are the keys
    of `parent`.  The node set is derived from the links (the root plus every
    node with a parent), not stored.
    """

    def __init__(self, level: int, root: int):
        super().__init__(root)
        self.level = level
        self.cell: dict[int, MatCell] = {}

    def copy_next(self) -> "LevelTree":
        nxt = LevelTree(self.level + 1, self.root)
        nxt.kids = dict(self.kids)
        nxt.parent = dict(self.parent)
        nxt.cell = dict(self.cell)
        return nxt

    @property
    def contains(self) -> set[int]:
        return {self.root, *self.parent}


class ContractionHierarchy:
    def __init__(self, tree: CausalTree):
        self.tree = tree
        self.levels: list[LevelTree] = []
        self.recipes: list[Recipe] = []
        self.recipe_by_leaf: dict[int, Recipe] = {}
        self.ind: dict[int, int] = {}  # internal node -> its last level

    def consumer(self, cell: MatCell) -> Recipe | None:
        """The one recipe that reads `cell`, if any."""
        return None if cell.consumer is None else self.recipes[cell.consumer]

    def names(self) -> dict[MatCell, tuple[int, str, int]]:
        """The paper's name of every cell: (parent x, "A" for its left edge
        or "B" for its right one, birth level i), read where the cell first
        appears; a carried-over cell keeps its edge."""
        out = {}
        for lt in self.levels:
            for c, cell in lt.cell.items():
                if cell not in out:
                    x = lt.parent[c]
                    out[cell] = (x, "A" if lt.kids[x][0] == c else "B", lt.level)
        return out

    def dump_lines(self) -> list[str]:
        """Diagnostic text: per-level node sets and the recipe graph."""
        out = []
        for lt in self.levels:
            nodes = " ".join(str(n) for n in sorted(lt.contains))
            out.append(f"level {lt.level} nodes {nodes}")
        names = self.names()
        for r in self.recipes:
            ins = " ".join("{}.{}@{}".format(*names[c]) for c in r.inputs())
            t = names[r.target]
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
    """Apply one rake of leaf e (read from T_i `cur`, applied to `nxt`); e is
    one of `contract_pass`'s eligible leaves, so its parent is not the root."""
    x = cur.parent[e]
    u = cur.parent[x]
    xl, xr = cur.kids[x]
    z = xr if e == xl else xl

    target = MatCell(None)
    recipe = Recipe(cur.level, target, cur.cell[x], cur.cell[e], cur.cell[z], e)
    recipe.recompute(hier.tree, counter)

    # single-consumer audit; a leaf raked twice fails it too (its rake read its edge)
    pos = len(hier.recipes)  # where `recipe` is appended below
    for c, cell in zip((x, e, z), recipe.inputs()):
        if cell.consumer is not None:
            raise StructureError(f"edge matrix into {c} at level {cur.level} consumed twice")
        cell.consumer = pos
    hier.recipe_by_leaf[e] = recipe
    hier.recipes.append(recipe)
    hier.ind[x] = cur.level

    # splice the next-level tree: z takes x's place under u.  u's pair is read
    # from `nxt`: an earlier rake this pass may have replaced its other child.
    for d in (e, x):
        del nxt.parent[d]
        del nxt.cell[d]
    del nxt.kids[x]
    ul, ur = nxt.kids[u]
    nxt.kids[u] = (z, ur) if ul == x else (ul, z)
    nxt.parent[z] = u
    nxt.cell[z] = target
    return recipe


def contract_pass(
    hier: ContractionHierarchy, cur: LevelTree, leaves: list[int],
    counter: OpCounter | None = None,
) -> tuple[LevelTree, list[int]] | None:
    """One CONTRACT pass over `cur` and its in-order `leaves`: rake
    alternating eligible non-extreme leaves.  Returns the next tree and its
    in-order leaves (`leaves` minus the raked ones: each survivor takes its
    parent's place), or None when no leaf is eligible.

    Parity is decided once on the eligible list before any raking; a candidate
    is skipped (without shifting parity) when an earlier rake this pass
    already removed its parent or refreshed one of its input matrices.
    """
    eligible = [e for e in leaves[1:-1] if cur.parent[e] != cur.root]
    if not eligible:
        return None

    nxt = cur.copy_next()
    removed: set[int] = set()
    fresh_targets: set[int] = set()
    for idx, e in enumerate(eligible):
        if idx % 2 != 0:
            continue
        x = cur.parent[e]
        u = cur.parent[x]
        if x in removed or x in fresh_targets or u in removed:
            continue
        rake(hier, cur, nxt, e, counter)
        removed.update((x, e))
        fresh_targets.add(u)
    nxt.kids = dict(nxt.kids)  # a fresh copy drops the room the rakes' deletions left
    return nxt, [e for e in leaves if e not in removed]


def build_hierarchy(
    tree: CausalTree, counter: OpCounter | None = None
) -> ContractionHierarchy:
    """Repeat CONTRACT until the three-node top tree remains.

    The tree must already be valid (`binarize` validates it); leaf
    likelihoods are read from its evidence map.  Level 0 reads the tree's
    own `kids`/`parent` dicts, not copies: a rake writes only the
    next level, which `copy_next` copies from its predecessor.  The leaves
    are walked once, on T_0; each pass derives the next level's.
    """
    hier = ContractionHierarchy(tree)

    t0 = LevelTree(0, tree.root)
    t0.kids, t0.parent = tree.kids, tree.parent
    t0.cell = {c: MatCell(tree.matrix[c]) for c in tree.parent}
    hier.levels.append(t0)

    cur, leaves = t0, t0.in_order_leaves()
    n_leaves = len(leaves)
    while (step := contract_pass(hier, cur, leaves, counter)) is not None:
        cur, leaves = step
        hier.levels.append(cur)
    if not cur.is_leaf(cur.root):
        hier.ind[cur.root] = cur.level

    if n_leaves >= 3 and len(leaves) != 2:
        raise StructureError(f"contraction stalled with {2 * len(leaves) - 1} nodes remaining")
    bound = 4 * math.ceil(math.log2(max(2, n_leaves))) + 2
    if len(hier.levels) > bound:
        raise StructureError(f"level count {len(hier.levels)} exceeds bound {bound}")
    return hier
